"""Canonical conic-program containers and real coordinates for Hermitian blocks.

A problem is a list of Hermitian matrix blocks (PSD-constrained or free),
real scalars (optionally bounded below), a linear objective over the scalars
to minimize, and linear equality constraints whose left-hand sides are built
from callables acting on batches of basis matrices.  The solver compiles
everything to one real system ``A x = b`` over the orthonormal Hermitian
coordinate basis ``{E_ii} u {(E_ij + E_ji)/sqrt2} u {i(E_ij - E_ji)/sqrt2}``,
under which Frobenius norms and inner products carry over to ordinary
Euclidean ones.  A solution's diagnostics hold its solve's ``dual_objective``.

A block may declare symmetry sectors: orthonormal column bases Q_s with
mutually orthogonal ranges, restricting it to ``X = sum_s Q_s B_s Q_s^dag``
with each ``B_s`` Hermitian of size m_s.  Its coordinates are then the
Hermitian coordinates of the ``B_s``, concatenated (sum_s m_s^2 of them
instead of dim^2); since ``||X||_F^2 = sum_s ||B_s||_F^2`` the map is still an
isometry.  A block without sectors is the one-sector case Q = I.
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
        n = stop - start
        d, n_off = self.d, self.n_off
        h = np.zeros((n, d, d), dtype=complex)
        alphas = np.arange(start, stop)
        rows = np.arange(n)
        r2 = 1.0 / np.sqrt(2.0)
        diag = alphas < d
        h[rows[diag], alphas[diag], alphas[diag]] = 1.0
        re = (alphas >= d) & (alphas < d + n_off)
        idx = alphas[re] - d
        h[rows[re], self.iu[0][idx], self.iu[1][idx]] = r2
        h[rows[re], self.iu[1][idx], self.iu[0][idx]] = r2
        im = alphas >= d + n_off
        idx = alphas[im] - d - n_off
        h[rows[im], self.iu[0][idx], self.iu[1][idx]] = 1j * r2
        h[rows[im], self.iu[1][idx], self.iu[0][idx]] = -1j * r2
        return h


@dataclass(frozen=True, eq=False)
class Sector:
    """Orthonormal columns Q (dim x m) spanning one sector of a block, stored
    by the rows they touch: ``Q[rows] = q`` and every other row is zero.
    ``q=None`` is the whole space, Q = I."""

    rows: np.ndarray
    q: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.rows) if self.q is None else self.q.shape[1]

    def embed(self, b: np.ndarray, dim: int) -> np.ndarray:
        """(..., m, m) -> (..., dim, dim): Q b Q^dag."""
        if self.q is None:
            return b
        out = np.zeros(b.shape[:-2] + (dim, dim), dtype=complex)
        out[..., self.rows[:, None], self.rows] = self.q @ b @ self.q.conj().T
        return out


@dataclass(frozen=True)
class BlockVar:
    name: str
    dim: int
    psd: bool = True  # False => free Hermitian variable
    sectors: tuple[Sector, ...] | None = None  # None => one sector, Q = I

    def parts(self) -> tuple[Sector, ...]:
        return self.sectors or (Sector(np.arange(self.dim)),)

    @property
    def size(self) -> int:
        """Real coordinates of the block: sum_s m_s^2, or dim^2 without sectors."""
        if self.sectors is None:
            return self.dim * self.dim
        return sum(s.size ** 2 for s in self.sectors)


@dataclass(frozen=True)
class ScalarVar:
    name: str
    lower: float | None = None  # None => free


@dataclass(frozen=True)
class ConstraintTerm:
    """One linear term of an equality constraint.

    For a block variable, ``block_map`` maps a batch (n, D, D) of Hermitian
    matrices to (n, Dc, Dc) target-space matrices; at Dc = 1 it may return
    (n,) reals.  For a scalar variable, ``scalar_coeff_op`` is its (Dc, Dc)
    coefficient operator on the target space.
    """

    var: str
    block_map: Callable[[np.ndarray], np.ndarray] | None = None
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


@dataclass(frozen=True)
class DualCertificate:
    """Feasible point (M, K) of the dual program; objective is -tr[K H]."""

    M: Operator
    K: Operator
