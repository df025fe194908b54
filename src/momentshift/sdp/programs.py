"""Builders for the three conic programs behind the retrieval machinery.

All programs are phrased over Choi matrices with the package's input-first
convention.  Labels follow the roles in the composition
``retriever . noise^(x k)``: A is the joint input, B the noisy output fed to
the retriever, C the retriever output measured with the moment observable.

* ``build_fmin``: minimal trace-scaling factor f of a completely positive
  trace-scaling retriever whose adjoint pulls H_k back to ``(H_k + t I)``
  through the noise (the observable-shift program).
* ``build_gmin``: quasi-probability overhead of simulating the exact inverse
  of a channel as a difference of two scaled channels.
* ``build_info_recover``: overhead of a Hermitian-preserving trace-scaling
  map recovering the expectation of one fixed observable on k noisy copies.

The first and last optima are spectral (``protocols.optimal_shift``,
``protocols.spectral_overheads``) and the middle one is in closed form for both
CLI noises (``protocols.inverse_overhead``); the programs are the reference those
are checked against in tests, and ``verify`` is the one package caller that
solves (``build_gmin``).  Every block is one dense Hermitian matrix.

Every program takes one copy's noise; none builds a k-fold channel.  The last
two are one program from one builder: PSD J1, J2 with tr_C J_i = c_i I, one
coupling ``L(J1) - L(J2) = target`` and objective c1 + c2; L is the link with
the noise (inverse) or the observable pullback (recover).

Every constraint term is stated by its adjoint map, from the constraint's
target space back to the Choi block, which is what the solver compiles A's
rows from:

* the trace scaling tr_2[J] = c I has the adjoint Y -> Y (x) I;
* the observable pullback J -> N^dag(x k)(tr_C[(I (x) H^T) J^T]) has the
  pushforward Y -> (N^(x k)(Y))^T (x) H (``_noise_pushforward``);
* the link with the noise has the adjoint ``noise_link_adjoint``, the package's one
  statement of the link convention.

No dual program is built: each solve records its dual objective in its
diagnostics.
"""

from __future__ import annotations

import numpy as np

from ..channels import Channel, apply_copywise, channel_matrix
from ..moments import moment_observable
from ..operators import Operator
from .problem import BlockVar, Constraint, ConstraintTerm, ScalarVar, SdpProblem
from .solver import check_program_memory

F_LOWER_BOUND = 1e-9


def _kron_identity(d2: int):
    """Batched Y -> Y (x) I_d2: the adjoint of the partial trace over a second factor."""
    def adjoint(batch: np.ndarray) -> np.ndarray:
        n, d1 = batch.shape[:2]
        return (batch[:, :, None, :, None] * np.eye(d2)[:, None]).reshape(n, d1 * d2, d1 * d2)
    return adjoint


def _trace_scaling(block: str, scale: str, d1: int, d2: int, name: str) -> Constraint:
    """tr_2[block] = scale * I: the Choi ``block`` is ``scale`` times trace preserving."""
    return Constraint(
        terms=(ConstraintTerm(var=block, adjoint=_kron_identity(d2)),
               ConstraintTerm(var=scale, scalar_coeff_op=-np.eye(d1))),
        target=np.zeros((d1, d1)), name=name)


def _noise_pushforward(noise: Channel, k: int, h: np.ndarray):
    """Batched Y -> (N^(x k)(Y))^T (x) H, the adjoint of the retriever pullback
    J -> N^dag(x k)(tr_C[(I (x) H^T) J^T]) and the dual coupling term.

    The noise acts copy by copy through its channel matrix (``apply_copywise``), as in
    ``protocols.contract_residual``: no k-fold Kraus set is built."""
    m = channel_matrix(noise)

    def pushforward(batch: np.ndarray) -> np.ndarray:
        n, dim = batch.shape[0], noise.in_dim ** k
        y = np.ascontiguousarray(apply_copywise(m, batch, k).transpose(0, 2, 1))
        return (y[:, :, None, :, None] * h[:, None]).reshape(n, dim * dim, dim * dim)
    return pushforward


def build_fmin(noise: Channel, k: int) -> SdpProblem:
    """Primal observable-shift program for H_k; optimum is f_min(noise, k)."""
    if noise.in_dim != noise.out_dim:
        raise ValueError("observable-shift synthesis needs a square channel")
    d = noise.in_dim ** k
    name = f"fmin[{noise.label},k={k}]"
    scalars = [ScalarVar("f", lower=F_LOWER_BOUND), ScalarVar("t")]
    blocks = [BlockVar("J", d * d, psd=True)]
    check_program_memory(name, blocks, scalars, (d, d))
    h = moment_observable(k, noise.in_dim).entries
    ts = _trace_scaling("J", "f", d, d, "trace_scaling")
    shift = Constraint(
        terms=(
            ConstraintTerm(var="J", adjoint=_noise_pushforward(noise, k, h)),
            ConstraintTerm(var="t", scalar_coeff_op=-np.eye(d)),
        ),
        target=h,
        name="observable_shift",
    )
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"f": 1.0},
                      constraints=[ts, shift], name=name)


def _channel_difference(name: str, d1: int, d2: int, target_dim: int, coupling,
                        constraint: str) -> SdpProblem:
    """min c1 + c2 over PSD J1, J2 on d1 (x) d2 with tr_2[J_i] = c_i I and
    L(J1) - L(J2) = target, where ``coupling()`` returns (L^dag, target); it is
    called only once the program has passed the memory gate."""
    blocks = [BlockVar("J1", d1 * d2, psd=True), BlockVar("J2", d1 * d2, psd=True)]
    scalars = [ScalarVar("c1", lower=0.0), ScalarVar("c2", lower=0.0)]
    check_program_memory(name, blocks, scalars, (d1, d1, target_dim))
    adjoint, target = coupling()
    cons = [
        _trace_scaling("J1", "c1", d1, d2, "ts_J1"),
        _trace_scaling("J2", "c2", d1, d2, "ts_J2"),
        Constraint(terms=(ConstraintTerm(var="J1", adjoint=adjoint),
                          ConstraintTerm(var="J2", adjoint=lambda y: -adjoint(y))),
                   target=target, name=constraint),
    ]
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"c1": 1.0, "c2": 1.0},
                      constraints=cons, name=name)


def noise_link_adjoint(noise: Channel):
    """Batched adjoint of the link L(J) = tr_B[(J_N^{T_B} (x) I_A)(I_A (x) J)], the Choi on
    A (x) A of (the map B -> A of Choi J on B (x) A) o noise: L^dag takes Y on A (x) A to
    ``[(q c), (b e)] -> sum_ap conj(J_N)[(a q), (p b)] Y[(a c), (p e)]`` on B (x) A."""
    da, db = noise.in_dim, noise.out_dim
    j_conj = noise.choi().entries.conj().reshape(da, db, da, db)

    def adjoint(batch: np.ndarray) -> np.ndarray:
        y = batch.reshape(-1, da, da, da, da)
        return np.einsum("aqpb,nacpe->nqcbe", j_conj, y).reshape(-1, db * da, db * da)
    return adjoint


def build_gmin(noise: Channel) -> SdpProblem:
    """Quasi-probability overhead of the exact channel inverse of ``noise``: the
    decomposed map runs from the noise output back to its input, and its link
    with the noise (``noise_link_adjoint``) is pinned to the identity Choi matrix."""
    da, db = noise.in_dim, noise.out_dim
    omega = np.eye(da, dtype=complex).reshape(-1)
    return _channel_difference(f"gmin[{noise.label}]", db, da, da * da,
                               lambda: (noise_link_adjoint(noise), np.outer(omega, omega)),
                               "inverse_composition")


def gmin_power(g1: float, k: int) -> float:
    """k-copy inverse overhead via multiplicativity of the diamond norm."""
    return float(g1) ** k


def build_info_recover(noise: Channel, obs: Operator) -> SdpProblem:
    """Overhead of recovering one observable's expectation on k copies, each through
    ``noise``; k is read off ``obs.dim == noise.in_dim ** k``."""
    d = noise.in_dim
    k = next((k for k in range(1, obs.dim.bit_length() + 1) if d ** k == obs.dim), None)
    if noise.out_dim != d or k is None:
        raise ValueError(f"information recovery needs a square channel and an observable on "
                         f"copies of its input, got {noise!r} and dimension {obs.dim}")
    return _channel_difference(
        f"info_recover[{noise.label},k={k}]", obs.dim, obs.dim, obs.dim,
        lambda: (_noise_pushforward(noise, k, obs.entries), obs.entries),
        "observable_recovery")
