"""Cyclic permutation operators and the moment observables built from them.

The k-th moment of a state is read off k copies through the Hermitian
observable ``H_k = (S_k + S_k^dag)/2`` where ``S_k`` cyclically shifts the
copies: ``S_k |x1 x2 ... xk> = |x2 ... xk x1>``.  The spectral structure of
``S_k`` is organized by necklaces (equivalence classes of index strings under
rotation); each string of minimal period p contributes eigenstates only for
the p phase labels m with m*p = 0 mod k.  For prime k every non-constant
string has full period, which recovers the cardinality
``|C(k,d)| = (d^k - d)/k + d``; the construction below handles arbitrary k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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


def cyclic_permutation(k: int, d: int = 2) -> Operator:
    """Unitary S_k with S_k |x1 x2 ... xk> = |x2 ... xk x1>."""
    dim = _dim(k, d)
    check_memory(2 * 16 * dim * dim, f"cyclic permutation for k={k}, d={d}")  # S_k, copy
    s = np.zeros((dim, dim), dtype=complex)
    s[cyclic_shift_index(k, d), np.arange(dim)] = 1.0
    return Operator(s, (d,) * k)


@dataclass(frozen=True)
class MomentObservable:
    """Observable on k copies with tr[H rho^(x k)] = tr[rho^k]."""

    k: int
    d: int
    matrix: Operator


def moment_observable(k: int, d: int = 2) -> MomentObservable:
    """Observable H_k = (S_k + S_k^dag)/2 reading off tr[rho^k]."""
    dim = _dim(k, d)
    check_memory(4 * 16 * dim * dim, f"moment observable for k={k}, d={d}")  # S, S^dag, H, copy
    s = cyclic_permutation(k, d).entries
    return MomentObservable(k=k, d=d, matrix=Operator((s + s.conj().T) / 2, (d,) * k))


def _min_rotation(x: tuple[int, ...]) -> tuple[int, ...]:
    return min(x[i:] + x[:i] for i in range(len(x)))


def _period(x: tuple[int, ...]) -> int:
    k = len(x)
    for p in range(1, k + 1):
        if k % p == 0 and x == x[p:] + x[:p]:
            return p
    return k


def necklace_set(k: int, d: int = 2) -> list[tuple[int, ...]]:
    """Canonical rotation-class representatives of length-k strings over [d].

    Representatives are the lexicographically smallest rotations.  Cyclic
    shifts of the returned set cover all d^k strings; for prime k the count
    equals (d^k - d)/k + d.
    """
    # at least d^k / k representatives of k entries each
    check_memory(8 * k * (_dim(k, d) // k), f"necklace set for k={k}, d={d}")
    reps = []
    for x in product(range(d), repeat=k):
        if x == _min_rotation(x):
            reps.append(x)
    return reps


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
    necklaces: tuple[tuple[int, ...], ...]
    eigenstates: dict
    projectors: tuple[Operator, ...]

    def projector_ranks(self) -> tuple[int, ...]:
        return tuple(sum(1 for (m, _x) in self.eigenstates if m == mm)
                     for mm in range(self.k))


def permutation_eigenprojectors(k: int, d: int = 2) -> PermutationSpectrum:
    dim = _dim(k, d)
    # k projectors, their Operator copies and the d^k eigenvectors
    check_memory((2 * k + 1) * 16 * dim * dim, f"permutation eigenprojectors for k={k}, d={d}")
    reps = necklace_set(k, d)
    radix = [d ** (k - 1 - j) for j in range(k)]
    omega = np.exp(2j * np.pi / k)
    eigenstates: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    proj = [np.zeros((dim, dim), dtype=complex) for _ in range(k)]
    for x in reps:
        p = _period(x)
        orbit_idx = []
        for l in range(p):
            shifted = x[l:] + x[:l]
            orbit_idx.append(sum(xi * r for xi, r in zip(shifted, radix)))
        step = k // p
        for m in range(0, k, step):
            psi = np.zeros(dim, dtype=complex)
            for l, idx in enumerate(orbit_idx):
                psi[idx] += omega ** (m * l)
            psi /= np.sqrt(p)
            eigenstates[(m, x)] = psi
            proj[m] += np.outer(psi, psi.conj())
    projectors = tuple(Operator(pm, (d,) * k) for pm in proj)
    return PermutationSpectrum(k=k, d=d, necklaces=tuple(reps),
                               eigenstates=eigenstates, projectors=projectors)
