"""Dense complex operator algebra on multipartite Hilbert spaces.

Everything downstream (channels, moment observables, SDP builders) works with
:class:`Operator`: an immutable square complex matrix together with the list
of subsystem dimensions that factor its Hilbert space.  All matrices are
row-major ``complex128`` and dense; every call that builds a large one first
checks its bytes against the one fixed :data:`MEMORY_BUDGET` (:func:`check_memory`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_RANK_TOL = 1e-9
MEMORY_BUDGET = 4 * 1024 ** 3  # bytes; fixed, so a call is accepted or refused everywhere

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a call that needs more than the memory budget."""
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{what} needs {-(-int(nbytes) // 2 ** 20)} MiB, over the "
                         f"{MEMORY_BUDGET // 2 ** 20} MiB memory budget")


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator entries must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Operator:
    """Immutable dense operator on a tensor product of subsystems.

    Parameters
    ----------
    entries : (dim, dim) complex ndarray
        Matrix in the computational product basis, row index first.
    subsystem_dims : tuple of int
        Ordered local dimensions; their product must equal ``dim``.
    """

    entries: np.ndarray
    subsystem_dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        m = _as_matrix(self.entries)
        dims = tuple(int(d) for d in self.subsystem_dims) or (m.shape[0],)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        if int(np.prod(dims)) != m.shape[0]:
            raise ValueError(
                f"product of subsystem_dims {dims} != matrix dimension {m.shape[0]}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def num_subsystems(self) -> int:
        return len(self.subsystem_dims)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2)[0])

    def with_dims(self, subsystem_dims: Sequence[int]) -> "Operator":
        """Reinterpret the same matrix with a different subsystem factoring."""
        return Operator(self.entries, tuple(subsystem_dims))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.entries + other.entries, self.subsystem_dims)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.entries - other.entries, self.subsystem_dims)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.entries * scalar, self.subsystem_dims)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.entries @ other.entries, self.subsystem_dims)


@dataclass(frozen=True)
class VectorizedOperator:
    """Vector form |M> = sum_ij M_ij |j> (x) |i> of a square matrix.

    The component at flat index ``j*dim + i`` is ``M[i, j]`` (column index
    first); this single convention is used everywhere vectorization appears.
    """

    entries: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=complex).reshape(-1)
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise ValueError(f"vector length {v.size} is not a perfect square")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "entries", v)

    @property
    def dim2(self) -> int:
        return self.entries.size


def identity(subsystem_dims: Sequence[int] | int) -> Operator:
    if isinstance(subsystem_dims, int):
        subsystem_dims = (subsystem_dims,)
    dims = tuple(int(d) for d in subsystem_dims)
    return Operator(np.eye(int(np.prod(dims)), dtype=complex), dims)


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with concatenated subsystem bookkeeping."""
    return Operator(np.kron(a.entries, b.entries), a.subsystem_dims + b.subsystem_dims)


def _check_subsystems(op: Operator, subsystems: Iterable[int]) -> tuple[int, ...]:
    subs = tuple(int(s) for s in subsystems)
    n = op.num_subsystems
    if len(set(subs)) != len(subs):
        raise ValueError(f"repeated subsystem index in {subs}")
    for s in subs:
        if not 0 <= s < n:
            raise ValueError(f"subsystem index {s} out of range for {n} subsystems")
    return subs


def partial_trace(op: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not in ``keep``; preserves the full trace."""
    keep = _check_subsystems(op, keep)
    dims = op.subsystem_dims
    n = len(dims)
    traced = [s for s in range(n) if s not in keep]
    t = op.entries.reshape(dims + dims)
    for s in sorted(traced, reverse=True):
        t = np.trace(t, axis1=s, axis2=s + (t.ndim // 2))
    kept_sorted = [s for s in range(n) if s in keep]
    # np.trace removal keeps remaining axes ordered, i.e. sorted subsystem order
    if list(keep) != kept_sorted:
        order = [kept_sorted.index(s) for s in keep]
        m = len(keep)
        t = t.transpose(order + [m + o for o in order])
    new_dims = tuple(dims[s] for s in keep)
    d = int(np.prod(new_dims)) if new_dims else 1
    return Operator(t.reshape(d, d), new_dims if new_dims else (1,))


def partial_transpose(op: Operator, subsystems: Iterable[int]) -> Operator:
    """Transpose the row/column indices of the given subsystems only."""
    subs = _check_subsystems(op, subsystems)
    dims = op.subsystem_dims
    n = len(dims)
    t = op.entries.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[s + n] = axes[s + n], axes[s]
    t = t.transpose(axes)
    return Operator(t.reshape(op.dim, op.dim), dims)


def vectorize(m: Operator) -> VectorizedOperator:
    """Column-index-first vectorization |M> = sum_ij M_ij |j>|i>."""
    return VectorizedOperator(m.entries.T.reshape(-1))


def devectorize(v: VectorizedOperator, subsystem_dims: Sequence[int] | None = None) -> Operator:
    d = int(round(np.sqrt(v.dim2)))
    m = v.entries.reshape(d, d).T
    return Operator(m, tuple(subsystem_dims) if subsystem_dims else (d,))


def hermitian_eig(op: Operator, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns ascending real eigenvalues and an orthonormal eigenvector matrix
    ``V`` (columns) with ``A = V diag(w) V^dag``.  Raises if the input fails
    the Hermiticity test at ``tol``.
    """
    if not op.is_hermitian(tol):
        raise ValueError("operator is not Hermitian within tolerance")
    a = (op.entries + op.entries.conj().T) / 2
    w, v = np.linalg.eigh(a)
    return w, v


def effective_rank(op: Operator, bipartition: Iterable[int], tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of tr_B |O><O| for the bipartition A = ``bipartition``.

    Equivalently the Schmidt rank of the vectorized operator across the cut
    that groups the row and column indices of A against those of the remaining
    subsystems; computed from singular values of the reshaped matrix, zeroing
    any value <= tol * sigma_max.
    """
    if not op.is_hermitian(1e-8):
        raise ValueError("effective rank is defined for Hermitian operators")
    subs_a = _check_subsystems(op, bipartition)
    dims = op.subsystem_dims
    n = len(dims)
    subs_b = [s for s in range(n) if s not in subs_a]
    if not subs_b:
        return 1 if np.any(op.entries) else 0
    t = op.entries.reshape(dims + dims)
    axes = [s for s in subs_a] + [s + n for s in subs_a] \
        + [s for s in subs_b] + [s + n for s in subs_b]
    da = int(np.prod([dims[s] for s in subs_a]))
    db = int(np.prod([dims[s] for s in subs_b]))
    m = t.transpose(axes).reshape(da * da, db * db)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def matrix_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    sv = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def random_density_matrix(dim: int, seed: int, rank: int | None = None,
                          subsystem_dims: Sequence[int] | None = None) -> Operator:
    """Random full-rank (or rank-limited) density matrix via the Ginibre map."""
    rng = np.random.default_rng(seed)
    r = rank or dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return Operator(rho, tuple(subsystem_dims) if subsystem_dims else (dim,))


def random_pure_state(dim: int, seed: int,
                      subsystem_dims: Sequence[int] | None = None) -> Operator:
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return Operator(np.outer(psi, psi.conj()),
                    tuple(subsystem_dims) if subsystem_dims else (dim,))


def matrix_to_json(m: np.ndarray) -> list:
    """Complex matrix as nested ``[real, imag]`` pairs, row by row."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows: list) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; rejects anything but (r, c, 2) pairs."""
    pairs = np.asarray(rows, dtype=float)
    if pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise ValueError("a JSON matrix is a list of rows of [real, imag] pairs")
    m = np.empty(pairs.shape[:2], dtype=complex)
    m.real = pairs[..., 0]
    m.imag = pairs[..., 1]
    return m
