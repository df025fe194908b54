"""Dense and composed reference objects the tests check the package against.

The package builds H_k from an index permutation, composes channels through
``link_product``, keeps the transfer and recovery maps as the coefficient
matrices of the recursion and streams its run records; these are the literal
objects those forms replace.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from momentshift.channels import Channel
from momentshift.estimator import EstimationRun
from momentshift.moments import cyclic_shift_index
from momentshift.operators import Operator, check_memory, partial_trace
from momentshift.protocols import CycleMap, _gram, _transfer_matrix, q_matrices


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
