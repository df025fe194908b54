"""Dense complex operator algebra on multipartite Hilbert spaces.

Everything downstream (channels, moment observables, SDP builders) works with
:class:`Operator`: an immutable square complex matrix together with the list
of subsystem dimensions that factor its Hilbert space.  All matrices are
row-major ``complex128`` and dense; every call that builds a large one first
checks its bytes against the one fixed :data:`MEMORY_BUDGET` (:func:`check_memory`).
"""

from __future__ import annotations

import base64
import sys
from dataclasses import dataclass, field
from typing import Iterable

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
        Matrix in the computational product basis, row index first.  It is
        copied unless it already owns its data and is read-only.
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
        if m.flags.writeable or not m.flags.owndata:  # a frozen array it owns is held as is
            m = m.copy()
            m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2)[0])


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with concatenated subsystem bookkeeping.

    The product is written in place, one scaled copy of the larger factor per
    entry of the smaller one (a broadcast product would allocate ufunc
    buffers), and frozen before it is wrapped, so the Operator holds it
    without a copy.
    """
    x, y = a.entries, b.entries
    (m, n), (p, q) = x.shape, y.shape
    out = np.empty((m * p, n * q), dtype=complex)
    blocks = out.reshape(m, p, n, q)
    if x.size <= y.size:
        for i, j in np.ndindex(m, n):
            np.multiply(x[i, j], y, out=blocks[i, :, j, :])
    else:
        for i, j in np.ndindex(p, q):
            np.multiply(x, y[i, j], out=blocks[:, i, :, j])
    out.flags.writeable = False
    return Operator(out, a.subsystem_dims + b.subsystem_dims)


def _check_subsystems(op: Operator, subsystems: Iterable[int]) -> tuple[int, ...]:
    subs = tuple(int(s) for s in subsystems)
    n = len(op.subsystem_dims)
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


def matrix_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    sv = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def random_density_matrix(dim: int, seed: int, rank: int | None = None) -> Operator:
    """Random full-rank (or rank-limited) density matrix via the Ginibre map."""
    r = rank or dim
    # rho and its frozen copy, the Ginibre factor and its temporaries (tracemalloc: 51 dim^2
    # bytes at full rank, 32 dim^2 at rank 1)
    check_memory(32 * dim * dim + 24 * dim * r, f"random density matrix of dimension {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return Operator(rho)


def matrix_to_json(m: np.ndarray) -> dict:
    """Complex matrix as ``{"shape": [rows, cols], "base64": ...}``: its row-major
    little-endian complex128 bytes, base64-encoded, so every bit round-trips."""
    m = np.ascontiguousarray(m, dtype="<c16")
    return {"shape": list(m.shape), "base64": base64.b64encode(m.tobytes()).decode("ascii")}


def matrix_from_json(entries, name: str = "") -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, which also reads nested ``[real, imag]`` pairs,
    row by row (schema-1 protocol files, state files).  Anything else, or a non-finite
    entry, is refused, naming the JSON field ``name`` when one is given."""
    what = f"a matrix in JSON field {name!r}" if name else "a JSON matrix"
    if isinstance(entries, dict) and not {"shape", "base64"}.isdisjoint(entries):
        for key in ("shape", "base64"):
            if key not in entries:
                raise ValueError(f"{what} lacks the key {key!r}")
        shape, text = entries["shape"], entries["base64"]
        if not (isinstance(shape, list) and len(shape) == 2 and
                all(type(n) is int and n > 0 for n in shape)):
            raise ValueError(f"{what} has shape {shape!r}, not two positive integers")
        try:
            raw = base64.b64decode(text, validate=True)
        except (TypeError, ValueError):  # not a string, or not base64 characters
            raise ValueError(f"{what} holds text that is not base64") from None
        if len(raw) != (nbytes := 16 * shape[0] * shape[1]):
            raise ValueError(f"{what} holds {len(raw)} bytes, not the {nbytes} of a "
                             f"{shape[0]} x {shape[1]} matrix")
        m = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(shape)
    else:
        try:
            pairs = np.asarray(entries, dtype=float)
        except (TypeError, ValueError):  # not numbers, or ragged
            pairs = np.empty(0)
        if pairs.ndim != 3 or pairs.shape[-1] != 2:
            raise ValueError(f"JSON field {name!r} holds neither rows of [real, imag] pairs nor "
                             "a shape and base64 object" if name else
                             "a JSON matrix is a list of rows of [real, imag] pairs")
        m = np.empty(pairs.shape[:2], dtype=complex)
        m.real = pairs[..., 0]
        m.imag = pairs[..., 1]
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    return m


def list_from_json(doc: dict, name: str, numbers: bool = False) -> list:
    """The matrices, or the finite numbers, of the nonempty JSON list ``doc[name]``; a
    field holding anything else is refused by name."""
    entries = doc[name]
    if isinstance(entries, list) and entries and all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max if numbers
            else isinstance(x, (list, dict)) for x in entries):
        return [float(x) if numbers else matrix_from_json(x, name) for x in entries]
    raise ValueError(f"JSON field {name!r} is not a list of {'numbers' if numbers else 'matrices'}")
