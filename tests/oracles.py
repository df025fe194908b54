"""Dense and composed reference objects the tests check the package against.

The package builds H_k from an index permutation, composes channels through
``link_product`` and keeps the transfer and recovery maps as the coefficient
matrices of the recursion; these are the literal objects those forms replace.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from momentshift.channels import Channel
from momentshift.moments import cyclic_shift_index
from momentshift.operators import Operator, check_memory
from momentshift.protocols import CycleMap, _recovery_matrix, _transfer_matrix, q_matrices


def cyclic_permutation(k: int, d: int = 2) -> Operator:
    """Unitary S_k with S_k |x1 x2 ... xk> = |x2 ... xk x1>."""
    shift = cyclic_shift_index(k, d)
    dim = shift.size
    check_memory(2 * 16 * dim * dim, f"cyclic permutation for k={k}, d={d}")  # S_k, copy
    s = np.zeros((dim, dim), dtype=complex)
    s[shift, np.arange(dim)] = 1.0
    return Operator(s, (d,) * k)


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
    return _to_copy_cycle(k, l, d, _recovery_matrix(k, l, d))
