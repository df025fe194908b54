"""The cyclic shift of k copies as an index permutation, and the moment
observables built from it.

The k-th moment of a state is read off k copies through the Hermitian
observable ``H_k = (S_k + S_k^dag)/2`` where ``S_k`` cyclically shifts the
copies: ``S_k |x1 x2 ... xk> = |x2 ... xk x1>``.  ``S_k`` is a permutation of
basis indices (``cyclic_shift_index``) and is never built as a dense matrix:
``moment_observable`` scatters H_k's entries straight from that index, and
``cycle_orbits`` tabulates the
orbits of any index permutation P with P^k = I; every other structure of the
copy cycle in the package is read off that one table; every evaluation of H_k
on a state reads the traces of ``cycle_traces``.  The orbits of ``S_k`` are
necklaces (equivalence classes of index strings under rotation), each named by
its smallest string; a necklace of period p contributes eigenstates only for
the p phase labels m with m*p = 0 mod k, and its projector terms fill only the
p x p block of its orbit.

On a product state sigma^(x k) no index table is needed: a permutation of the
copies has trace prod over its cycles c of tr[sigma^|c|], and two permutation
operators P, Q have tr[P Q^dag] = d^(#cycles of P Q^dag).  ``cycle_type`` and
``cycle_counts`` tabulate those numbers per (k, labels) for the leading-copy
cycles, and ``power_traces`` gives the moments tr[sigma^l] from one d x d
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import Operator, check_memory


def _dim(k: int, d: int) -> int:
    if k < 1 or d < 2:
        raise ValueError("need k >= 1 and d >= 2")
    return d ** k


def cyclic_shift_index(k: int, d: int = 2) -> np.ndarray:
    """Flat index of S_k |x> = |x2 ... xk x1> for every basis string x, in order."""
    strings = np.arange(_dim(k, d)).reshape((d,) * k)
    return np.moveaxis(strings, -1, 0).reshape(-1)


def moment_observable(k: int, d: int = 2) -> Operator:
    """Observable H_k = (S_k + S_k^dag)/2 with tr[H_k rho^(x k)] = tr[rho^k]."""
    dim = _dim(k, d)
    # H, its two index arrays and the dim entries a scatter gathers
    check_memory(16 * dim * dim + 32 * dim, f"moment observable for k={k}, d={d}")
    shift, x = cyclic_shift_index(k, d), np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    h[shift, x] += 0.5  # S_k |x> = |shift[x]>
    h[x, shift] += 0.5  # S_k^dag
    h.flags.writeable = False  # frozen, so the Operator holds it without a copy
    return Operator(h, (d,) * k)


def cycle_orbits(perm: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit table of an index permutation P with P^k = I.

    Returns ``(orbits, starts, lengths)``: ``orbits[t, x] = P^t x`` for t < k,
    the smallest index of every orbit in ascending order, and each of those
    orbits' lengths, so orbit i is ``orbits[:lengths[i], starts[i]]``.
    """
    orbits = np.empty((k, perm.size), dtype=perm.dtype)
    orbits[0] = np.arange(perm.size)
    for t in range(1, k):
        orbits[t] = perm[orbits[t - 1]]
    starts = np.flatnonzero(orbits.min(axis=0) == orbits[0])
    back = orbits[1:, starts] == starts
    lengths = np.where(back.any(axis=0), back.argmax(axis=0) + 1, k)
    return orbits, starts, lengths


@lru_cache(maxsize=None)
def leading_cycle_index(m: int, k: int, d: int = 2) -> np.ndarray:
    """Flat indices of X[x, P_b x] for the leading-copy cycles P_b = S_m^b (x) I on k copies.

    Row b, b < m, gathers tr[P_b X] = sum_x X[x, P_b x], and the same d^k
    entries of a matrix hold P_b^dag.  Cached per (m, k, d); the array is read-only.
    """
    dim, rest = _dim(k, d), d ** (k - m)
    # the table, its two temporaries, and x
    check_memory(8 * (3 * m + 1) * dim, f"copy-cycle index for m={m}, k={k}, d={d}")
    x = np.arange(dim)
    orbits = cycle_orbits(cyclic_shift_index(m, d), m)[0]  # S_m^b y for b < m
    table = x * dim + orbits[:, x // rest] * rest + x % rest
    table.flags.writeable = False
    return table


def _copy_permutation(m: int, b: int, k: int) -> list[int]:
    """S_m^b (x) I on k copies as a copy order: output copy i holds input copy perm[i]."""
    return [(i + b) % m if i < m else i for i in range(k)]


def _cycles(perm: list[int]) -> list[int]:
    """The length of every cycle of a permutation."""
    seen, lengths = [False] * len(perm), []
    for start in range(len(perm)):
        n, i = 0, start
        while not seen[i]:
            seen[i], i, n = True, perm[i], n + 1
        if n:
            lengths.append(n)
    return lengths


@lru_cache(maxsize=None)
def cycle_type(k: int, labels: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Row q counts the cycles of each length l = 1 .. k of P_q = S_m^b (x) I, (m, b) =
    labels[q], so tr[P_q sigma^(x k)] = prod_l tr[sigma^l]^row[l - 1].  Cached; read-only."""
    table = np.zeros((len(labels), k), dtype=np.int64)
    for q, (m, b) in enumerate(labels):
        for length in _cycles(_copy_permutation(m, b, k)):
            table[q, length - 1] += 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def cycle_counts(k: int, left: tuple[tuple[int, int], ...],
                 right: tuple[tuple[int, int], ...]) -> np.ndarray:
    """[a, b]: the number of cycles of P_a P_b^dag for the leading-copy cycles of labels
    left[a] and right[b], so tr[P_a P_b^dag] = d^[a, b] on k copies of C^d; (1, 0) labels
    the identity.  Cached; read-only."""
    # W_p |x> = |x_p(0) ... x_p(k-1)> composes as W_p W_r^dag = W_(r^-1 o p)
    inverse = [np.argsort(_copy_permutation(m, b, k)) for m, b in right]
    table = np.array([[len(_cycles(inv[_copy_permutation(m, b, k)].tolist())) for inv in inverse]
                      for m, b in left], dtype=np.int64).reshape(len(left), len(right))
    table.flags.writeable = False
    return table


def power_traces(x: np.ndarray, k: int) -> np.ndarray:
    """p_l = tr[x^l], l = 1 .. k, of the Hermitian part of a d x d matrix, from its
    eigenvalues: the moments that every trace of a permutation on x^(x k) multiplies."""
    eigenvalues = np.linalg.eigvalsh((x + x.conj().T) / 2)
    return (eigenvalues[:, None] ** np.arange(1, k + 1)).sum(axis=0)


def cycle_traces(x: np.ndarray, k: int, d: int = 2) -> np.ndarray:
    """t_j = tr[S_k^j x] for j < k, of one matrix or each of a stack: the one
    reading of H_k, tr[H_k x] = (t_1 + t_{k-1})/2."""
    return x.reshape(*x.shape[:-2], -1)[..., leading_cycle_index(k, k, d)].sum(axis=-1)


def _strings(index: np.ndarray, k: int, d: int) -> list[tuple[int, ...]]:
    """Digit strings x1 ... xk of flat basis indices."""
    return [tuple(x) for x in (index[:, None] // d ** np.arange(k - 1, -1, -1) % d).tolist()]


@dataclass(frozen=True)
class PermutationSpectrum:
    """Eigenstructure of S_k indexed as in the spectral decomposition.

    ``projectors[m]`` projects onto the eigenspace with eigenvalue
    ``omega_k^{-m}``, so ``sum_m omega_k^{-m} projectors[m] == S_k``.
    ``eigenstates[(m, x)]`` is the normalized vector for necklace x (only
    present when the minimal period p of x divides into m, i.e. m*p = 0
    mod k; constant strings appear only at m = 0).
    """

    k: int
    d: int
    eigenstates: dict
    projectors: tuple[Operator, ...]


def permutation_eigenprojectors(k: int, d: int = 2) -> PermutationSpectrum:
    dim = _dim(k, d)
    # k projectors, their Operator copies and the d^k eigenvectors
    check_memory((2 * k + 1) * 16 * dim * dim, f"permutation eigenprojectors for k={k}, d={d}")
    orbits, starts, lengths = cycle_orbits(cyclic_shift_index(k, d), k)
    omega = np.exp(2j * np.pi / k)
    eigenstates: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    proj = [np.zeros((dim, dim), dtype=complex) for _ in range(k)]
    for x, p, necklace in zip(starts, lengths, _strings(starts, k, d)):
        orbit = orbits[:p, x]
        block = np.ix_(orbit, orbit)
        for m in range(0, k, k // p):
            v = omega ** (m * np.arange(p)) / np.sqrt(p)
            psi = np.zeros(dim, dtype=complex)
            psi[orbit] = v
            eigenstates[(m, necklace)] = psi
            proj[m][block] += np.outer(v, v.conj())
    projectors = tuple(Operator(pm, (d,) * k) for pm in proj)
    return PermutationSpectrum(k=k, d=d, eigenstates=eigenstates, projectors=projectors)
