"""Quantum channels in Kraus/Choi form plus the built-in noise models.

Conventions, pinned once and verified by round-trip tests:

* Choi matrices are input-system-first, ``J = sum_ij |i><j| (x) N(|i><j|)``.
* The link product ``tr_B[(J_N^{T_B} (x) I_C)(I_A (x) J_C)]`` with the partial
  transpose on the *output* factor of ``J_N`` reproduces Kraus composition; its
  one statement is the adjoint ``sdp.programs.noise_link_adjoint``.
* The channel matrix is ``M_N = sum_k conj(E_k) (x) E_k`` and satisfies
  ``M_N |X> = |N(X)>`` in the column-index-first vectorization.

Channels are immutable; the Kraus -> Choi conversion is computed once on
first request and cached (compute-then-publish, idempotent under concurrent
access).  The depolarizing channel acts in closed form and builds its d^2
Kraus operators the same way, on first request.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .operators import (
    Operator,
    check_memory,
    list_from_json,
    matrix_from_json,
    matrix_rank,
    matrix_to_json,
    tensor_product,
)


class Channel:
    """Linear map between density operators, stored as Kraus and/or Choi data.

    At least one of ``kraus`` / ``choi`` must be given.  Kraus operators are
    ``out_dim x in_dim`` matrices.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 kraus: Sequence[np.ndarray] | None = None,
                 choi: Operator | None = None,
                 label: str = ""):
        if kraus is None and choi is None:
            raise ValueError("channel needs Kraus operators or a Choi matrix")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.label = label
        self.kraus: tuple[np.ndarray, ...] | None = None
        if kraus is not None:
            ops = tuple(np.asarray(e, dtype=complex) for e in kraus)
            for e in ops:
                if e.shape != (self.out_dim, self.in_dim):
                    raise ValueError(
                        f"Kraus operator shape {e.shape} != ({self.out_dim}, {self.in_dim})"
                    )
            self.kraus = ops
        self._choi = choi
        if choi is not None and choi.dim != self.in_dim * self.out_dim:
            raise ValueError("Choi dimension does not match in_dim * out_dim")

    def __repr__(self):
        form = self.label or ("kraus" if self.kraus is not None else "choi")
        return f"Channel({form}, {self.in_dim}->{self.out_dim})"

    def choi(self) -> Operator:
        """Choi matrix J = sum_ij |i><j| (x) N(|i><j|), input factor first."""
        if self._choi is None:
            d = self.in_dim * self.out_dim
            j = np.zeros((d, d), dtype=complex)
            for e in self.kraus:
                v = e.T.reshape(-1)  # (I (x) E)|Omega>
                j += np.outer(v, v.conj())
            j.flags.writeable = False
            self._choi = Operator(j, (self.in_dim, self.out_dim))
        return self._choi

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Schroedinger-picture action N(x) on an in_dim x in_dim matrix."""
        if self.kraus is not None:
            return sum(e @ x @ e.conj().T for e in self.kraus)
        j = self.choi().entries.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        # N(x) = tr_A[(x^T (x) I) J]
        return np.einsum("ij,iajb->ab", x, j)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action N^dag(y); unital when N is trace preserving."""
        if self.kraus is not None:
            return sum(e.conj().T @ y @ e for e in self.kraus)
        j = self.choi().entries.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        # N^dag(y) = tr_B[(I (x) y^T) J^T]
        return np.einsum("ab,qbpa->pq", y, j)


def apply(c: Channel, rho: Operator) -> Operator:
    """Schroedinger-picture action N(rho)."""
    if rho.dim != c.in_dim:
        raise ValueError(f"state dimension {rho.dim} != channel input {c.in_dim}")
    return Operator(c.apply(rho.entries), (c.out_dim,))


def tensor_power(c: Channel, k: int) -> Channel:
    """k-fold tensor product channel, Kraus set = all k-fold products.  No command calls
    it; the benchmark's spans (``bench/tracing.py``) wrap it and the test oracles call it."""
    if k < 1:
        raise ValueError("tensor power requires k >= 1")
    if c.kraus is None:
        raise ValueError("tensor_power requires Kraus form")
    if k == 1:
        return c
    check_memory(16 * (len(c.kraus) * c.in_dim * c.out_dim) ** k,
                 f"{k}-fold tensor power of {c!r}")
    kraus: list[np.ndarray] = [np.array([[1.0 + 0j]])]
    for _ in range(k):
        kraus = [np.kron(a, e) for a in kraus for e in c.kraus]
    return Channel(c.in_dim ** k, c.out_dim ** k, kraus=kraus,
                   label=f"{c.label}^(x{k})")


def noisy_copies(rho: Operator, noise: Channel, k: int) -> Operator:
    """The k-copy noisy state noise^(x k)(rho^(x k)) as one joint operator.

    Every copy passes through the same channel, so the joint state is the
    product N(rho)^(x k): one d x d channel application and k - 1 Kronecker
    products, where ``tensor_power`` would build |K|^k Kraus operators.
    """
    if k < 1:
        raise ValueError("noisy copies require k >= 1")
    d = noise.out_dim
    # the joint state, the k - 1 copies it is built from, and one copy
    check_memory(16 * (d ** (2 * k) + d ** (2 * k - 2) + d * d),
                 f"{k} noisy copies of dimension {d}")
    one = apply(noise, rho)
    joint = one
    for _ in range(k - 1):
        joint = tensor_product(joint, one)
    return joint


def channel_matrix(c: Channel) -> np.ndarray:
    """Matrix M_N = sum_k conj(E_k) (x) E_k with M_N |X> = |N(X)>, where the
    column-index-first |X> = sum_ij X_ij |j>|i> is ``X.T.reshape(-1)``."""
    if c.kraus is None:
        raise ValueError("channel matrix requires Kraus form")
    d2 = c.in_dim * c.out_dim
    m = np.zeros((d2, d2), dtype=complex)
    for e in c.kraus:
        m += np.kron(e.conj(), e)
    return m


def apply_copywise(m: np.ndarray, batch: np.ndarray, k: int) -> np.ndarray:
    """The map of channel matrix ``m`` (``channel_matrix``'s vectorization, or its
    adjoint ``m^dag``) on each of the k copies of every operator of a batch
    (n, d^k, d^k), one copy at a time: no k-fold matrix is built."""
    d = math.isqrt(m.shape[0])
    m = m.reshape(d, d, d, d)  # (column, row) out, then in
    y = batch.reshape((batch.shape[0],) + (d,) * (2 * k))
    for i in range(k):
        y = np.moveaxis(np.tensordot(m, y, axes=([2, 3], [k + 1 + i, 1 + i])),
                        (0, 1), (k + 1 + i, 1 + i))
    return y.reshape(batch.shape)


def is_invertible(c: Channel) -> bool:
    """Rank test on M_N: invertible iff the channel matrix has full rank."""
    return matrix_rank(channel_matrix(c)) == c.in_dim ** 2


def _weyl_operators(d: int) -> np.ndarray:
    """Shift/clock unitaries X^a Z^b, index a d + b, by index arithmetic:
    X^a Z^b |x> = w^(bx) |x + a>, w = exp(2 pi i/d).  The Paulis (up to phase) at d = 2."""
    x = np.arange(d)
    a, b = x[:, None, None], x[None, :, None]
    out = np.zeros((d, d, d, d), dtype=complex)
    out[a, b, (x + a) % d, x] = np.exp(2j * np.pi / d) ** (b * x)
    return out.reshape(d * d, d, d)


class Depolarizing(Channel):
    """Depolarizing channel X -> (1 - eps) X + eps tr(X) I/d, applied in closed form.

    The map is self-adjoint.  Its d^2 Weyl Kraus operators are built, and checked against
    the memory budget, only when ``kraus`` is first read: by ``choi`` and ``channel_matrix``
    (the conic programs, the invertibility test, the contract certificate), by ``verify``'s
    link check, and by ``tensor_power`` in the test oracles.
    """

    def __init__(self, eps: float, d: int):
        self.in_dim = self.out_dim = int(d)
        self.eps = eps
        self.label = f"DE(eps={eps:g},d={d})"
        self._choi = None

    @cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        d, eps = self.in_dim, self.eps
        check_memory(2 * 16 * d ** 4, f"depolarizing channel on dimension {d}")  # Kraus, Weyl
        scale = np.sqrt(eps) / d
        return (np.sqrt(1.0 - eps + eps / d ** 2) * np.eye(d, dtype=complex),
                *(scale * w for w in _weyl_operators(d)[1:]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = (1.0 - self.eps) * np.asarray(x, dtype=complex)
        out.flat[::self.in_dim + 1] += self.eps * np.trace(x) / self.in_dim
        return out

    adjoint_apply = apply


def depolarizing(eps: float, d: int = 2) -> Depolarizing:
    """Depolarizing channel rho -> (1 - eps) rho + eps I/d."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"depolarizing noise level must be in [0, 1], got {eps}")
    return Depolarizing(eps, d)


def amplitude_damping(eps: float) -> Channel:
    """Single-qubit amplitude damping with damping rate eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"damping rate must be in [0, 1], got {eps}")
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eps)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(eps)], [0.0, 0.0]], dtype=complex)
    return Channel(2, 2, kraus=[a0, a1], label=f"AD(eps={eps:g})")


def channel_to_json(c: Channel) -> dict:
    """Kraus operators when the channel has them, otherwise its Choi matrix."""
    doc = {"label": c.label, "in_dim": c.in_dim, "out_dim": c.out_dim}
    if c.kraus is not None:
        doc["kraus"] = [matrix_to_json(e) for e in c.kraus]
    else:
        doc["choi"] = matrix_to_json(c.choi().entries)
    return doc


def channel_from_json(data: dict) -> Channel:
    d_in, d_out = data["in_dim"], data["out_dim"]
    if "kraus" in data:
        return Channel(d_in, d_out, kraus=list_from_json(data, "kraus"),
                       label=data.get("label", ""))
    choi = Operator(matrix_from_json(data["choi"], "choi"), (d_in, d_out))
    return Channel(d_in, d_out, choi=choi, label=data.get("label", ""))
