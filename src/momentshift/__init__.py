"""Retrieving density-matrix moments tr[rho^k] from noisy quantum states.

Synthesis of optimal retrieval protocols (conic programming and closed
forms), exact and finite-shot evaluation, and a Fermi-Hubbard ground-state
purity demonstration.
"""

from .operators import (
    Operator,
    identity,
    partial_trace,
    partial_transpose,
    random_density_matrix,
    tensor_product,
)
from .channels import (
    Channel,
    amplitude_damping,
    adjoint_apply,
    apply,
    channel_matrix,
    depolarizing,
    identity_channel,
    is_invertible,
    link_product,
    tensor_power,
)
from .moments import (
    PermutationSpectrum,
    cyclic_permutation,
    moment_observable,
    permutation_eigenprojectors,
)
from .sdp.problem import DualCertificate, SdpProblem, SdpSolution
from .sdp.solver import solve
from .sdp.programs import (
    build_dual_fmin,
    build_fmin,
    build_gmin,
    build_info_recover,
    check_certificate,
    gmin_power,
)
from .protocols import (
    RetrievalProtocol,
    TransferMapPair,
    ad_second_moment,
    de_kth_moment,
    de_second_moment,
    de_second_moment_nqubit,
    exact_expectation,
    from_sdp_solution,
    identity_protocol,
    load_protocol,
    q_matrices,
    recovery_map,
    save_protocol,
    transfer_maps,
)
from .estimator import (
    EstimationRun,
    SamplingPlan,
    plan_shots,
    renyi_entropy,
    run_choi_map,
    run_measurement_based,
    run_mixed_unitary,
    run_protocol,
)
from .hubbard import (
    GroundStateResult,
    HubbardModel,
    build_hamiltonian,
    fig4_experiment,
    ground_state,
    demo_model,
    reduced_state,
)

__version__ = "0.1.0"
