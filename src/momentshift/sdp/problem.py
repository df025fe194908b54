"""Canonical conic-program containers and real coordinates for Hermitian blocks.

A problem is a list of Hermitian matrix blocks (PSD-constrained or free),
real scalars (optionally bounded below), a linear objective over the scalars
to minimize, and linear equality constraints whose block terms are given by
the adjoints of their maps, from the target space back to the block.  The
solver compiles everything to one real system ``A x = b`` over the orthonormal
Hermitian basis ``{E_ii} u {(E_ij + E_ji)/sqrt2} u {i(E_ij - E_ji)/sqrt2}``,
under which Frobenius inner products are Euclidean ones, so A's row for a
target basis matrix E is the coordinate vector of the adjoint's image of E.
A block of side dim has the dim^2 Hermitian coordinates of its matrix.  A
solution's diagnostics hold its solve's ``dual_objective``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..operators import Operator


class HermitianBasis:
    """Coordinate maps between Hermitian matrices and real vectors of length d^2."""

    _cache: dict[int, "HermitianBasis"] = {}

    def __new__(cls, d: int):
        if d not in cls._cache:
            inst = super().__new__(cls)
            inst.d = d
            inst.iu = np.triu_indices(d, 1)
            inst.n_off = d * (d - 1) // 2
            cls._cache[d] = inst
        return cls._cache[d]

    @property
    def size(self) -> int:
        return self.d * self.d

    def to_coords(self, h: np.ndarray) -> np.ndarray:
        """(..., d, d) Hermitian -> (..., d^2) real coordinates."""
        h = np.asarray(h)
        diag = np.real(h[..., np.arange(self.d), np.arange(self.d)])
        off = h[..., self.iu[0], self.iu[1]]
        root2 = np.sqrt(2.0)
        return np.concatenate(
            [diag, root2 * np.real(off), root2 * np.imag(off)], axis=-1)

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        d, n_off = self.d, self.n_off
        h = np.zeros(batch + (d, d), dtype=complex)
        h[..., np.arange(d), np.arange(d)] = x[..., :d]
        upper = (x[..., d:d + n_off] + 1j * x[..., d + n_off:]) / np.sqrt(2.0)
        h[..., self.iu[0], self.iu[1]] = upper
        h[..., self.iu[1], self.iu[0]] = upper.conj()
        return h

    def basis_batch(self, start: int, stop: int) -> np.ndarray:
        """Materialize basis elements [start, stop) as a (n, d, d) array."""
        units = np.zeros((stop - start, self.size))
        units[np.arange(stop - start), np.arange(start, stop)] = 1.0
        return self.from_coords(units)


@dataclass(frozen=True)
class BlockVar:
    name: str
    dim: int
    psd: bool = True  # False => free Hermitian variable

    @property
    def size(self) -> int:
        """Real coordinates of the block, dim^2."""
        return self.dim * self.dim


@dataclass(frozen=True)
class ScalarVar:
    name: str
    lower: float | None = None  # None => free


@dataclass(frozen=True)
class ConstraintTerm:
    """One linear term of an equality constraint.

    For a block variable, ``adjoint`` is the adjoint L^dag of the term's map L:
    it maps a batch (n, Dc, Dc) of target-space Hermitian matrices Y (Dc = 1
    for a scalar target) to the (n, D, D) block matrices with
    tr[L^dag(Y) X] = tr[Y L(X)].  For a scalar variable, ``scalar_coeff_op`` is
    its (Dc, Dc) coefficient operator on the target space.
    """

    var: str
    adjoint: Callable[[np.ndarray], np.ndarray] | None = None
    scalar_coeff_op: np.ndarray | None = None


@dataclass(frozen=True)
class Constraint:
    terms: tuple[ConstraintTerm, ...]
    target: object  # (Dc, Dc) Hermitian ndarray; a float is the Dc = 1 case
    name: str = ""


@dataclass
class SdpProblem:
    blocks: list[BlockVar]
    scalars: list[ScalarVar]
    objective: dict  # scalar name -> float coefficient; minimized
    constraints: list[Constraint]
    name: str = ""

    def __post_init__(self):
        declared = {b.name for b in self.blocks} | {s.name for s in self.scalars}
        for c in self.constraints:
            for t in c.terms:
                if t.var not in declared:
                    raise ValueError(f"constraint {c.name!r} references undeclared {t.var!r}")
        for v in self.objective:
            if v not in {s.name for s in self.scalars}:
                raise ValueError(f"objective term {v!r} is not a declared scalar")


@dataclass
class SdpSolution:
    status: str  # "optimal" | "infeasible" | "max_iters"
    objective_value: float
    variables: dict
    primal_residual: float
    dual_residual: float
    iterations: int
    name: str = ""
    diagnostics: dict = field(default_factory=dict)

    def block(self, name: str) -> Operator:
        v = self.variables[name]
        if not isinstance(v, Operator):
            raise KeyError(f"{name} is not a matrix block")
        return v

    def scalar(self, name: str) -> float:
        return float(self.variables[name])

