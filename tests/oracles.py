"""Dense and composed reference objects the tests check the package against.

The package builds H_k from an index permutation, composes channels through
``link_product``, keeps the transfer and recovery maps as the coefficient
matrices of the recursion, streams its run records and reads the dual objective
off the primal solve; these are the literal objects those forms replace.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from momentshift.channels import Channel, tensor_power
from momentshift.estimator import EstimationRun
from momentshift.moments import cyclic_shift_index, moment_observable
from momentshift.operators import Operator, check_memory, partial_trace
from momentshift.protocols import CycleMap, _gram, _transfer_matrix, q_matrices
from momentshift.sdp.problem import BlockVar, Constraint, ConstraintTerm, ScalarVar, SdpProblem
from momentshift.sdp.programs import _kron_identity_right, _negated, _noise_pushforward


def cyclic_permutation(k: int, d: int = 2) -> Operator:
    """Unitary S_k with S_k |x1 x2 ... xk> = |x2 ... xk x1>."""
    shift = cyclic_shift_index(k, d)
    dim = shift.size
    check_memory(2 * 16 * dim * dim, f"cyclic permutation for k={k}, d={d}")  # S_k, copy
    s = np.zeros((dim, dim), dtype=complex)
    s[shift, np.arange(dim)] = 1.0
    return Operator(s, (d,) * k)


def run_to_json(run: EstimationRun) -> dict:
    """The run record as one dict; ``estimator.save_run`` writes its ``json.dumps``."""
    return {"schema_version": 1, "seed": run.seed, "shots": run.shots,
            "zeta_bar": run.zeta_bar, "estimate": run.estimate, "protocol_ref": run.protocol_ref,
            "per_shot": [float(x) for x in run.per_shot],
            "outcome_indices": [int(i) for i in run.outcome_indices]}


def identity_channel(d: int) -> Channel:
    return Channel(d, d, kraus=[np.eye(d, dtype=complex)], label=f"id_{d}")


def is_cptp(c: Channel) -> bool:
    """Choi matrix PSD and input marginal I, both to within 1e-9."""
    j = c.choi()
    marg = partial_trace(Operator(j.entries, (c.in_dim, c.out_dim)), [0])
    return bool(j.min_eigenvalue() >= -1e-9
                and np.max(np.abs(marg.entries - np.eye(c.in_dim))) <= 1e-9)


def compose(after: Channel, before: Channel, label: str = "") -> Channel:
    """Channel ``after . before`` by multiplying Kraus sets."""
    if before.out_dim != after.in_dim:
        raise ValueError("cannot compose: dimension mismatch")
    if before.kraus is None or after.kraus is None:
        raise ValueError("compose requires Kraus form on both channels")
    kraus = [a @ b for a in after.kraus for b in before.kraus]
    return Channel(before.in_dim, after.out_dim, kraus=kraus,
                   label=label or f"{after.label}.{before.label}")


def _to_copy_cycle(k: int, l: int, d: int, a: np.ndarray) -> CycleMap:
    """The map X -> sum_pj a[p, j] tr[S_k^j X] S_l^p (x) I on k copies."""
    return CycleMap(k, d, outputs=[(l, -p) for p in range(l)],
                    inputs=[(k, j) for j in range(k)], matrix=a)


@dataclass(frozen=True)
class TransferMapPair:
    forward: CycleMap        # T_k:  H_k -> H_{k-1} (x) I/d
    forward_neg: CycleMap    # T~_k: H_k -> -H_{k-1} (x) I/d


@lru_cache(maxsize=None)
def transfer_maps(k: int, d: int = 2) -> TransferMapPair:
    q, q_tilde = q_matrices(k)
    return TransferMapPair(forward=_to_copy_cycle(k, k - 1, d, _transfer_matrix(q, k, d)),
                           forward_neg=_to_copy_cycle(k, k - 1, d,
                                                      _transfer_matrix(q_tilde, k, d)))


@lru_cache(maxsize=None)
def recovery_map(k: int, l: int, d: int = 2) -> CycleMap:
    """CP map R_l with R_l(H_k) = -H_l (x) I/d^{k-l}.

    Composition (T_{l+1} (x) id) o ... o (T_{k-1} (x) id) o T~_k; the first
    stage carries the sign flip so that the later stages accumulate only
    positive transfers.
    """
    if not 2 <= l < k:
        raise ValueError(f"recovery map needs 2 <= l < k, got l={l}, k={k}")
    a = _transfer_matrix(q_matrices(k)[1], k, d)
    for s in range(k - 1, l, -1):
        a = _transfer_matrix(q_matrices(s)[0], s, d) @ _gram(s, d) @ a
    return _to_copy_cycle(k, l, d, a)


def dual_fmin(noise: Channel, k: int) -> SdpProblem:
    """The observable-shift dual as its own program: minimize v = tr[K H_k] over
    PSD T = M (x) I + (N^(x k)(K))^T (x) H_k with tr M + s = 1, s >= 0, tr K = 0,
    so that -v is the dual optimum, max -tr[K H_k]."""
    d = noise.in_dim ** k
    h = moment_observable(k, noise.in_dim).entries

    def trace(batch):
        return np.real(np.einsum("naa->n", batch))

    psd = Constraint(terms=(
        ConstraintTerm("T", block_map=lambda batch: batch),
        ConstraintTerm("M", block_map=_negated(_kron_identity_right(d))),
        ConstraintTerm("K", block_map=_negated(_noise_pushforward(tensor_power(noise, k).kraus,
                                                                  h, d)))),
        target=np.zeros((d * d, d * d)), name="dual_psd")
    return SdpProblem(
        blocks=[BlockVar("M", d, psd=False), BlockVar("K", d, psd=False),
                BlockVar("T", d * d, psd=True)],
        scalars=[ScalarVar("s", lower=0.0), ScalarVar("v")],
        objective={"v": 1.0},
        constraints=[psd,
                     Constraint(terms=(ConstraintTerm("M", block_map=trace),
                                       ConstraintTerm("s", scalar_coeff_op=np.eye(1))),
                                target=1.0, name="trace_M_bound"),
                     Constraint(terms=(ConstraintTerm("K", block_map=trace),), target=0.0,
                                name="trace_K_zero"),
                     Constraint(terms=(ConstraintTerm("K", block_map=lambda batch: np.real(
                                           np.einsum("nab,ba->n", batch, h))),
                                       ConstraintTerm("v", scalar_coeff_op=-np.eye(1))),
                                target=0.0, name="objective_value")],
        name=f"dual_fmin[{noise.label},k={k}]")
