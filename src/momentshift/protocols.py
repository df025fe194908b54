"""Executable retrieval protocols.

A protocol bundles one realization of the retrieval operation with the two
post-processing scalars: the sampling overhead ``f`` and the shift distance
``t``.  Its defining contract, holding for every constructor in this module, is

    f * tr[H_k C(noise^(x k)(rho^(x k)))] - t  ==  tr[rho^k]

for all states rho, where H_k is the moment observable on k copies;
``contract_residual`` decides it for all states, mixed ones included, at once.

Every realization is a linear map with one interface: ``in_dim``,
``out_dim``, ``apply(x)`` and ``adjoint_apply(y)`` on dense matrices, and a
``choi()`` method.  Three realizations are used:

* a :class:`~momentshift.channels.Channel`, in Kraus form (the twelve-unitary
  depolarizing twirl with Kraus operators sqrt(p_j) U_j) or in Choi form (files
  written from solver optima);
* a :class:`MeasurePrepare` map: the amplitude-damping protocol, a projective
  measurement whose outcomes carry stored values, and the spectral optimum
  ``optimal_shift``, a two-outcome measurement whose outputs are H_k eigenstates;
* :class:`Recursive`, the retriever of every moment order under depolarizing
  noise, composed from the transfer and recovery maps (kept as their small
  coefficient matrices).  It is a
  :class:`CycleMap` X -> [X +] sum_pq M[p, q] tr[P_q X] P_p^dag over
  leading-copy cycles P = S_m^b (x) I, stored as a small coefficient matrix
  and applied by gathering and scattering d^k matrix entries per cycle; no
  d^k x d^k operator is built.  On a product input N(rho)^(x k) its output
  traces follow from the k moments of the one noisy copy and tables of cycle
  counts (``CycleMap.product_traces``), so ``output_traces``, exact
  evaluation and sampling build no d^k object either, and neither does its
  trace-preservation gate (``CycleMap.unit_error``).  It is the two-term
  qudit map at k = 2; it is not trace preserving for k >= 3, so the
  trace-preservation gate of finite-shot sampling refuses it and it is
  evaluated exactly only.  The identity protocol is the copy-cycle map with
  only its identity term.

Protocol files are written with kind ``channel``, ``measure_prepare`` or
``recursive``; files of the earlier kinds ``mixed_unitary``,
``measurement_based`` and ``choi`` still load, as the realization they
describe.  Schema 2 writes each matrix as a base64 object
(:func:`~momentshift.operators.matrix_to_json`); schema-1 files, in pairs, still load.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, isclose
from typing import Callable, Sequence

import numpy as np

from .channels import (Channel, apply, apply_copywise, channel_from_json, channel_matrix,
                       channel_to_json, is_invertible, noisy_copies)
from .moments import (cycle_counts, cycle_traces, cycle_type, leading_cycle_index,
                      moment_observable, power_traces)
from .operators import (I2, PAULI_X, PAULI_Y, PAULI_Z, Operator, check_memory,
                        list_from_json, matrix_to_json)

PROTOCOL_SCHEMA_VERSION = 2
SAMPLING_TP_TOL = 1e-6  # trace preservation required of a sampled realization
MAX_RECURSIVE_ORDER = 100  # highest k of the Q matrices behind the recursive retriever


# ---------------------------------------------------------------------------
# realizations


def _check_paired(first: str, a: Sequence, second: str, b: Sequence) -> None:
    """Refuse two lists whose entries pair up one to one unless they have one length."""
    if len(a) != len(b):
        raise ValueError(f"fields {first!r} and {second!r} have {len(a)} and {len(b)} "
                         "entries; they must pair up")


class MeasurePrepare:
    """Linear map rho -> sum_m tr[effects_m rho] outputs_m.

    Completely positive whenever every effect and output is PSD.

    ``values``, when given, makes the map a projective measurement whose
    outcome m records ``values[m]`` = tr[H outputs_m], so estimation needs
    only the outcome index.
    """

    def __init__(self, effects: Sequence[np.ndarray], outputs: Sequence[np.ndarray],
                 values: Sequence[float] | None = None):
        self.effects = tuple(np.asarray(e, dtype=complex) for e in effects)
        self.outputs = tuple(np.asarray(o, dtype=complex) for o in outputs)
        _check_paired("effects", self.effects, "outputs", self.outputs)
        self.in_dim = self.effects[0].shape[0]
        self.out_dim = self.outputs[0].shape[0]
        for name, mats, dim in (("effects", self.effects, self.in_dim),
                                ("outputs", self.outputs, self.out_dim)):
            for i, m in enumerate(mats):
                if m.shape != (dim, dim):
                    raise ValueError(f"field {name!r}[{i}] has shape {m.shape}, "
                                     f"not ({dim}, {dim})")
        self.values = None if values is None else tuple(float(v) for v in values)
        if self.values is not None:
            projective = all(np.max(np.abs(e @ e - e)) <= 1e-9 for e in self.effects)
            complete = np.max(np.abs(sum(self.effects) - np.eye(self.in_dim))) <= 1e-9
            if len(self.values) != len(self.effects) or not (projective and complete):
                raise ValueError("outcome values need one complete projective "
                                 "measurement effect each")
            if not all(-1 <= v <= 1 for v in self.values):
                raise ValueError("outcome values must lie in [-1, 1]")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return sum(np.trace(e @ x) * f for e, f in zip(self.effects, self.outputs))

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        return sum(np.trace(f @ y) * e for e, f in zip(self.effects, self.outputs))

    def outcome_probabilities(self, x: np.ndarray) -> np.ndarray:
        """tr[effects_m x] for every outcome m."""
        return np.real(np.einsum("mab,ba->m", np.stack(self.effects), x))

    def choi(self) -> Operator:
        j = sum(np.kron(e.T, f) for e, f in zip(self.effects, self.outputs))
        return Operator(j, (self.in_dim, self.out_dim))


def _dense_choi(apply_map: Callable[[np.ndarray], np.ndarray], d: int) -> Operator:
    """Choi matrix sum_ij |i><j| (x) T(|i><j|) of a map T on d x d matrices."""
    check_memory(2 * 16 * d ** 4, f"dense Choi matrix of side {d * d}")  # J and its copy
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            j[a * d:(a + 1) * d, b * d:(b + 1) * d] = apply_map(unit)
    return Operator(j, (d, d))


class CycleMap:
    """Map X -> [X +] sum_pq M[p, q] tr[P_q X] P_p^dag on k copies of C^d.

    Every P is a leading-copy cycle S_m^b (x) I, given by its label (m, b);
    the identity term is present when ``identity`` is set.  Each trace is a
    gather-sum over d^k entries of X and each P_p^dag a scatter onto d^k
    entries (``moments.leading_cycle_index``), so applying the map costs
    O(labels * d^k) besides the output matrix.  The adjoint swaps the two
    label sets and uses M^H.  On a product input, ``product_traces`` needs
    only the input's k moments and the cached cycle tables of (k, labels).
    """

    def __init__(self, k: int, d: int, outputs: Sequence[tuple[int, int]],
                 inputs: Sequence[tuple[int, int]], matrix: np.ndarray, identity: bool = False):
        self.k, self.d = k, d
        self.in_dim = self.out_dim = d ** k
        self.outputs = tuple((m, b % m) for m, b in outputs)
        self.inputs = tuple((m, b % m) for m, b in inputs)
        self.matrix = np.asarray(matrix, dtype=complex)
        self.identity = identity

    def _map(self, x: np.ndarray, gather, scatter, matrix: np.ndarray) -> np.ndarray:
        flat_x = x.reshape(-1)
        traces = [flat_x[leading_cycle_index(m, self.k, self.d)[b]].sum() for m, b in gather]
        out = (np.array(x, dtype=complex) if self.identity
               else np.zeros((self.in_dim, self.in_dim), dtype=complex))
        flat = out.reshape(-1)
        for (m, b), c in zip(scatter, matrix @ np.array(traces, dtype=complex)):
            flat[leading_cycle_index(m, self.k, self.d)[b]] += c
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._map(x, self.inputs, self.outputs, self.matrix)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        return self._map(y, self.outputs, self.inputs, self.matrix.conj().T)

    def choi(self) -> Operator:
        return _dense_choi(self.apply, self.in_dim)

    def product_traces(self, moments: np.ndarray) -> np.ndarray:
        """t_j = tr[S_k^j C(sigma^(x k))], j < k, from moments[l - 1] = tr[sigma^l], l <= k.

        tr[P sigma^(x k)] is the product of tr[sigma^|c|] over the cycles c of P, and
        tr[S_k^j P_p^dag] = d^(#cycles of S_k^j P_p^dag): no d^k object is built.
        """
        shifts, weights = _shift_weights(self.k, self.d, self.outputs)
        traces_in = np.prod(moments ** cycle_type(self.k, self.inputs), axis=1)
        t = weights @ (self.matrix @ traces_in)
        if self.identity:
            t = t + np.prod(moments ** cycle_type(self.k, shifts), axis=1)
        return t

    def unit_error(self) -> float:
        """||C^dag(I) - I||_F, read off the Gram matrix G[q, q'] = tr[P_q P_q'^dag] of
        the terms P_q^dag of C^dag(I) and I as c^H G c, with no d^k object."""
        unit = ((1, 0),)
        labels = self.inputs + unit
        c = self.matrix.conj().T @ float(self.d) ** cycle_counts(self.k, self.outputs, unit)[:, 0]
        c = np.append(c, 0.0 if self.identity else -1.0)
        square = (c.conj() @ float(self.d) ** cycle_counts(self.k, labels, labels) @ c).real
        return float(np.sqrt(max(square, 0.0)))


@lru_cache(maxsize=None)
def _shift_weights(k: int, d: int, outputs: tuple[tuple[int, int], ...]) -> tuple:
    """The labels (k, j), j < k, of the powers of S_k, and the table d^(#cycles of
    S_k^j P_p^dag) over the output labels p.  Built once per (k, d, outputs); read-only."""
    shifts = tuple((k, j) for j in range(k))
    weights = float(d) ** cycle_counts(k, shifts, outputs)
    weights.flags.writeable = False
    return shifts, weights


class Recursive(CycleMap):
    """Recursive depolarizing retriever C_k (the two-term map at k = 2) as a copy-cycle map."""

    def __init__(self, eps: float, k: int, d: int):
        u, labels = _recursion_matrix(eps, k, d)
        # C_k^dag(Y) = [Y +] sum_nj U[n, j] tr[S_k^j Y] E_n, E_n = S_m^b (x) I = (S_m^-b (x) I)^dag
        super().__init__(k, d, outputs=[(k, j) for j in range(k)],
                         inputs=[(m, -b) for m, b in labels], matrix=u.conj().T,
                         identity=k > 2)
        self.eps = eps


# ---------------------------------------------------------------------------
# protocol wrapper


@dataclass(frozen=True)
class RetrievalProtocol:
    k: int
    copy_dim: int
    f: float
    t: float
    realization: Channel | MeasurePrepare | CycleMap
    label: str = ""

    @property
    def kind(self) -> str:
        return {Channel: "channel", MeasurePrepare: "measure_prepare", Recursive: "recursive",
                CycleMap: "cycle_map"}[type(self.realization)]


def is_trace_preserving(r: Channel | MeasurePrepare | Recursive) -> bool:
    """Whether the realization's adjoint maps the identity to the identity: a copy-cycle
    map to within SAMPLING_TP_TOL in Frobenius norm, any other in every entry."""
    if isinstance(r, CycleMap):
        return r.unit_error() <= SAMPLING_TP_TOL
    unit = r.adjoint_apply(np.eye(r.out_dim))
    return bool(np.max(np.abs(unit - np.eye(r.in_dim))) <= SAMPLING_TP_TOL)


def output_traces(p: RetrievalProtocol, rho: Operator, noise: Channel) -> np.ndarray:
    """t_j = tr[S_k^j C(N(rho)^(x k))], j < k, the traces that H_k's value and Born
    probabilities read.  A copy-cycle map takes them from the k moments of the one noisy
    copy; any other realization is applied to the k-copy joint state."""
    if rho.dim != p.copy_dim:
        raise ValueError(f"state dim {rho.dim} != protocol copy dim {p.copy_dim}")
    if isinstance(p.realization, CycleMap):
        return p.realization.product_traces(power_traces(apply(noise, rho).entries, p.k))
    joint = noisy_copies(rho, noise, p.k).entries
    return cycle_traces(p.realization.apply(joint), p.k, p.copy_dim)


def exact_expectation(p: RetrievalProtocol, rho: Operator, noise: Channel) -> float:
    """zeta = tr[H_k C(N(rho)^(x k))], no sampling: Re(t_1 + t_{k-1})/2 of the
    traces ``output_traces`` that sampling reads too."""
    t = output_traces(p, rho, noise)
    return float((t[1 % p.k] + t[-1]).real / 2)


def contract_residual(p: RetrievalProtocol, noise: Channel) -> float:
    """Spectral norm of the Hermitian part of Ybar, the copy-permutation average of
    Y = f N^dag(x k)(C^dag(H_k)) - t I - H_k.  A state's estimate errs by
    Re tr[Y rho^(x k)] = tr[Ybar rho^(x k)], as rho^(x k) commutes with the copy
    permutations, so this bounds every state's error, and the X^(x k) span the
    permutation-invariant operators, so it is 0 exactly when the contract holds.  The
    noise adjoint acts copy by copy; the average is taken by cosets of the copy swaps,
    Ybar_j = (1/j) sum_(i <= j) tau_ij Ybar_(j-1): k(k-1)/2 axis swaps, not k! terms."""
    d, k = p.copy_dim, p.k
    if (noise.in_dim, noise.out_dim) != (d, d):
        raise ValueError(f"noise dimension {noise.in_dim} != protocol copy dim {d}")
    dim = d ** k
    # H_k, C^dag(H_k), the temporaries of the adjoints, and at k = 2 the channel matrix, as
    # large as H_k (tracemalloc: at most 6.2 x 16 dim^2 at k = 2, 5.1 x 16 dim^2 beyond)
    check_memory(100 * dim * dim, f"contract residual for k={k}, d={d}")
    h = moment_observable(k, d).entries
    y = apply_copywise(channel_matrix(noise).conj().T, p.realization.adjoint_apply(h)[None], k)
    y = p.f * y[0] - h
    y.flat[::dim + 1] -= p.t
    y = y.reshape((d,) * (2 * k))
    for j in range(1, k):
        average = y.copy()
        for i in range(j):
            average += y.swapaxes(i, j).swapaxes(k + i, k + j)
        y = np.divide(average, j + 1, out=average)
    y = y.reshape(dim, dim)
    return float(np.abs(np.linalg.eigvalsh(y + y.conj().T)).max() / 2)


# ---------------------------------------------------------------------------
# analytic single-qubit depolarizing protocol (twelve-unitary twirl)


def _twirl_unitaries() -> tuple[np.ndarray, ...]:
    i = 1j
    u5 = np.array([[-i, 1, 1, i], [i, 1, -1, i], [i, -1, 1, i], [-i, -1, -1, i]]) / 2
    u6 = np.array([[i, -1, -1, -i], [i, 1, -1, i], [i, -1, 1, i], [i, 1, 1, -i]]) / 2
    u7 = np.array([[i, i, i, i], [-1, 1, -1, 1], [-1, -1, 1, 1], [-i, i, i, -i]]) / 2
    u8 = np.array([[-i, i, i, -i], [1, 1, -1, -1], [1, -1, 1, -1], [i, i, i, i]]) / 2
    u9 = np.array([[i, 1, 1, -i], [-i, 1, -1, -i], [-i, -1, 1, -i], [i, -1, -1, -i]]) / 2
    u10 = np.array([[-i, -1, -1, i], [-i, 1, -1, -i], [-i, -1, 1, -i], [-i, 1, 1, i]]) / 2
    u11 = np.array([[i, -i, -i, i], [1, 1, -1, -1], [1, -1, 1, -1], [-i, -i, -i, -i]]) / 2
    u12 = np.array([[-i, -i, -i, -i], [-1, 1, -1, 1], [-1, -1, 1, 1], [i, -i, -i, i]]) / 2
    return (np.kron(I2, I2), np.kron(PAULI_X, PAULI_X), np.kron(PAULI_Y, PAULI_Y),
            np.kron(PAULI_Z, PAULI_Z), u5, u6, u7, u8, u9, u10, u11, u12)


def _twirl_choi_closed_form() -> np.ndarray:
    paulis = np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y) + np.kron(PAULI_Z, PAULI_Z)
    return np.kron(np.eye(4), np.eye(4)) / 4 + np.kron(paulis, paulis) / 12


@lru_cache(maxsize=1)
def _checked_twirl() -> Channel:
    """Build the twelve-unitary ensemble, verifying the constants on first use."""
    us = _twirl_unitaries()
    for idx, u in enumerate(us):
        if np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-12:
            raise AssertionError(f"twirl unitary {idx + 1} failed unitarity check")
    twirl = Channel(4, 4, kraus=[np.sqrt(1.0 / 12.0) * u for u in us], label="twirl")
    if np.max(np.abs(twirl.choi().entries - _twirl_choi_closed_form())) > 1e-12:
        raise AssertionError("twirl Choi does not match its closed form")
    return twirl


def de_second_moment(eps: float) -> RetrievalProtocol:
    """Purity retriever for single-qubit depolarizing noise (twelve unitaries)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("depolarizing retrieval requires 0 <= eps < 1")
    s = (1.0 - eps) ** 2
    return RetrievalProtocol(k=2, copy_dim=2, f=1.0 / s, t=(1.0 - s) / (2.0 * s),
                             realization=_checked_twirl(),
                             label=f"de_second_moment(eps={eps:g})")


# ---------------------------------------------------------------------------
# analytic amplitude-damping protocol (measurement based)


def ad_second_moment(eps: float) -> RetrievalProtocol:
    """Purity retriever for amplitude damping: measure in
    {|00>, |Psi+>, |Psi->, |11>} and average the per-outcome values
    (1-2eps, 1-2eps, -1, 1)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("amplitude-damping retrieval requires 0 <= eps < 1")
    b00 = np.array([1, 0, 0, 0], dtype=complex)
    b11 = np.array([0, 0, 0, 1], dtype=complex)
    psi_p = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    psi_m = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    h = moment_observable(2, 2).entries
    eye4 = np.eye(4)
    sigma_a = ((1 + 2 * eps) * eye4 + (1 - 4 * eps) * h) / 6
    sigma_3 = (eye4 - h) / 2
    sigma_4 = (eye4 + h) / 6
    mp = MeasurePrepare(
        effects=[np.outer(b, b.conj()) for b in (b00, psi_p, psi_m, b11)],
        outputs=(sigma_a, sigma_a, sigma_3, sigma_4),
        values=(1 - 2 * eps, 1 - 2 * eps, -1.0, 1.0),
    )
    s = (1.0 - eps) ** 2
    return RetrievalProtocol(k=2, copy_dim=2, f=1.0 / s, t=-eps ** 2 / s,
                             realization=mp,
                             label=f"ad_second_moment(eps={eps:g})")


# ---------------------------------------------------------------------------
# the depolarizing retrievers as copy-cycle maps


def de_second_moment_nqubit(eps: float, n: int) -> RetrievalProtocol:
    """Purity retriever for global depolarizing noise on n-qubit states."""
    if n < 1:
        raise ValueError("the retriever needs n >= 1 qubits")
    return replace(de_kth_moment(eps, 2, 2 ** n),
                   label=f"de_second_moment_nqubit(eps={eps:g},n={n})")


def q_matrices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative (k-1) x k matrices with sum_m Q[l,m] w_k^m = +/- w_{k-1}^l.

    Row l mixes the two k-th roots of unity adjacent to the (k-1)-th root
    w_{k-1}^l; the companion matrix picks up the opposite sign through a
    half-turn permutation of rows (odd k) or columns (even k).
    """
    if k < 3 or k > MAX_RECURSIVE_ORDER:
        raise ValueError(f"Q construction requires 3 <= k <= {MAX_RECURSIVE_ORDER}")
    q = np.zeros((k - 1, k))
    csc = 1.0 / np.sin(2 * np.pi / k)
    for l in range(k - 1):
        q[l, l] = csc * np.sin(2 * np.pi * (k - 1 - l) / (k * (k - 1)))
        q[l, (l + 1) % k] = csc * np.sin(2 * np.pi * l / (k * (k - 1)))
    if k % 2 == 1:
        half = (k - 1) // 2
        q_tilde = np.roll(q, half, axis=0)
    else:
        q_tilde = np.roll(q, k // 2, axis=1)
    return q, q_tilde


def _dft(k: int) -> np.ndarray:
    """F[m, j] = w_k^(-mj) / k, so the S_k eigenprojector of w_k^m is sum_j F[m, j] S_k^j."""
    j = np.arange(k)
    return np.exp(-2j * np.pi * np.outer(j, j) / k) / k


@lru_cache(maxsize=None)
def _gram(s: int, d: int) -> np.ndarray:
    """G[a, b] = tr[S_s^a S_s^b] = d^gcd(a + b, s).  Built once per (s, d); read-only."""
    a = np.arange(s)
    g = float(d) ** np.gcd(a[:, None] + a, s)
    g.flags.writeable = False
    return g


def _transfer_matrix(q: np.ndarray, k: int, d: int) -> np.ndarray:
    """A[p, j] with T(X) = sum_pj A[p, j] tr[S_k^j X] S_{k-1}^p (x) I for the transfer map
    T(X) = sum_m tr[Pi_m X] / rank_m (sum_l q[l, m] Pi'_l) (x) I/d over the eigenprojectors
    Pi_m of S_k and Pi'_l of S_{k-1}."""
    f_k = _dft(k)
    rank = (f_k @ _gram(k, d)[0]).real
    return _dft(k - 1) @ q @ (f_k / rank[:, None]) / d


@lru_cache(maxsize=None)
def _stages(s: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(A(T_s) G_s, A(T~_s)): a positive transfer stage of the recursion's chain, premultiplied
    by the Gram matrix it reads its input through, and the sign-flipped first stage.
    Neither depends on eps, so both are built once per (s, d); read-only."""
    q, q_tilde = q_matrices(s)
    out = (_transfer_matrix(q, s, d) @ _gram(s, d), _transfer_matrix(q_tilde, s, d))
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _chain(k: int, d: int) -> tuple[np.ndarray, ...]:
    """The transfer chains (A_2, ..., A_{k-1}) of the order-k recursion, walked down from
    A_{k-1} = A(T~_k) by A_{s-1} = A(T_s) G_s A_s.  Built once per (k, d); read-only."""
    a = [_stages(k, d)[1]]
    for s in range(k - 1, 2, -1):
        a.append(_stages(s, d)[0] @ a[-1])
        a[-1].flags.writeable = False
    return tuple(reversed(a))


def _shift_table(eps: float, k: int, d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Tables (f_2..f_k, t_2..t_k) of the recursive construction.

    t_k folds the l = 0 and l = 1 binomial terms of tr[(noisy rho)^k] with
    tr[I] = d, so both carry 1/d^{k-1}, and subtracts the shifts already
    accounted for by the lower-order retrievers.
    """
    f = [1.0 / (1.0 - eps) ** l for l in range(2, k + 1)]
    t = [(1.0 - (1.0 - eps) ** 2) / (d * (1.0 - eps) ** 2)]
    for kk in range(3, k + 1):
        acc = eps ** kk / d ** (kk - 1) + kk * (1 - eps) * eps ** (kk - 1) / d ** (kk - 1)
        for l in range(2, kk):
            acc -= comb(kk, l) * (1 - eps) ** l * eps ** (kk - l) / d ** (kk - l) * t[l - 2]
        t.append(f[kk - 2] * acc)
    return tuple(f), tuple(t)


def _recursion_matrix(eps: float, k: int, d: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """U_k and its labels (m, b), with C_k^dag(Y) = [Y +] sum_nj U_k[n, j] tr[S_k^j Y] E_n
    over E_n = S_m^b (x) I; the identity term is present for k >= 3.

    C_2 is the two-term map from (tr Y, tr S_2 Y) to (I, S_2).  For k >= 3,
    C_k^dag = id + sum_l c_l (C_l^dag (x) id) o R_l.  R_l maps Y to
    sum_p (A_l t)_p S_l^p (x) I, t_j = tr[S_k^j Y], and C_l^dag maps S_l^p to
    column V_l[:, p]: the unit vector of (l, p) (l >= 3) plus (U_l G_l)[:, p].
    The labels of every U_l are a prefix of those of U_k, m = 2 .. k-1.

    R_l is the composition (T_{l+1} (x) id) o ... o (T_{k-1} (x) id) o T~_k.
    Stage T_s (x) id reads tr[S_s^a (S_s^p (x) I)] = G_s[a, p] off the previous
    stage's output, so A_l = A(T_{l+1}) G_{l+1} A_{l+1} from A_{k-1} = A(T~_k):
    one walk down the chain gives every A_l.  The stages, chains and Gram
    matrices are built once per (k, d), and each V_l once per call.
    """
    u = {2: np.array([[1.0, -1.0 / d], [-1.0 / d, 1.0]]) / (d * d - 1)}
    v = {}
    for kk in range(3, k + 1):
        l = kk - 1
        v[l] = u[l] @ _gram(l, d)
        if l > 2:
            v[l] = np.vstack([v[l], np.eye(l)])
        u[kk] = np.zeros((kk * (kk - 1) // 2 - 1, kk), dtype=complex)
        for l, a in enumerate(_chain(kk, d), start=2):
            c = comb(kk, l) * eps ** (kk - l)  # binomial weight (1-eps)^l eps^(kk-l) times f_l
            u[kk][:len(v[l])] += c * v[l] @ a
    return u[k], [(m, b) for m in range(2, max(k, 3)) for b in range(m)]


def de_kth_moment(eps: float, k: int, d: int = 2) -> RetrievalProtocol:
    """k-th moment retriever for depolarizing noise on d-dim states.

    The realization is a :class:`Recursive` copy-cycle map: the two-term map
    at k = 2, and C_k = id + sum_l c_l R_l^dag o (C_l (x) id) for k >= 3.  It
    is trace preserving only at k = 2; for k >= 3 it is completely positive
    but not trace preserving, so it is evaluated exactly and is not part of
    the finite-shot sampling surface.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("depolarizing retrieval requires 0 <= eps < 1")
    if not 2 <= k <= MAX_RECURSIVE_ORDER:  # before the tables, which overflow near k = 1100
        raise ValueError(f"moment order must be in [2, {MAX_RECURSIVE_ORDER}], got {k}")
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"copy dimension must be an integer >= 2, got {d!r}")
    f_table, t_table = _shift_table(eps, k, d)
    return RetrievalProtocol(k=k, copy_dim=d, f=f_table[-1], t=t_table[-1],
                             realization=Recursive(eps, k, d),
                             label=f"de_kth_moment(eps={eps:g},k={k},d={d})")


# ---------------------------------------------------------------------------
# the spectral optima of the observable-shift and recover programs


def _pulled_back_observable(noise: Channel, k: int) -> tuple | None:
    """(A, a_min, a_max, lam): A = ((N^dag)^-1)^(x k)(H_k), its extreme eigenvalues and
    lam = lambda_min(H_k) = cos(2 pi floor(k/2) / k); None when the noise is not invertible
    and no retriever exists.  A shift retriever has f N^dag(x k)(C^dag(H_k)) = H_k + t I,
    so f C^dag(H_k) = A + t I."""
    d, dim = noise.in_dim, noise.in_dim ** k
    # H_k, A, the temporaries of the copywise map and eigvalsh, and the two effects
    check_memory(6 * 16 * dim * dim, f"spectral optimum for k={k}, d={d}")
    if not is_invertible(noise):
        return None
    h = moment_observable(k, d).entries
    a = apply_copywise(np.linalg.inv(channel_matrix(noise)).conj().T, h[None], k)[0]
    w = np.linalg.eigvalsh(a)
    return a, float(w[0]), float(w[-1]), float(np.cos(2 * np.pi * (k // 2) / k))


def optimal_shift(noise: Channel, k: int) -> RetrievalProtocol | None:
    """The observable-shift retriever of least overhead, or None for non-invertible noise.

    A CPTP retriever has lam I <= C^dag(H_k) <= I, so f lam I <= A + t I <= f I, whose
    least f is (a_max - a_min) / (1 - lam), at t = (lam a_max - a_min) / (1 - lam).  It
    measures {E+, I - E+}, E+ = (A - a_min I) / (a_max - a_min), and prepares |0..0>
    (H_k value 1) or v = k^-1/2 sum_j w^(j floor(k/2)) |e_j> (H_k value lam), |e_j> the
    string with a 1 on copy j: a closed-form eigenvector, so runs stay bit-reproducible."""
    if (pulled := _pulled_back_observable(noise, k)) is None:
        return None
    a, a_min, a_max, lam = pulled
    d, dim, j = noise.in_dim, noise.in_dim ** k, np.arange(k)
    effect = (a - a_min * np.eye(dim)) / (a_max - a_min)
    top, v = np.zeros((dim, dim), dtype=complex), np.zeros(dim, dtype=complex)
    top[0, 0] = 1.0
    v[d ** (k - 1 - j)] = np.exp(2j * np.pi * j * (k // 2) / k) / np.sqrt(k)
    return RetrievalProtocol(
        k=k, copy_dim=d, f=(a_max - a_min) / (1 - lam), t=(lam * a_max - a_min) / (1 - lam),
        realization=MeasurePrepare([effect, np.eye(dim) - effect], [top, np.outer(v, v.conj())]),
        label=f"optimal_shift[{noise.label},k={k}]")


def recover_overhead(noise: Channel, k: int) -> float | None:
    """Least overhead c1 + c2 of recovering tr[H_k rho^(x k)] from k noisy copies, or None
    for non-invertible noise: pinched to A's eigenbasis, the recover program is the LP
    min c1 + c2, c1 - lam c2 >= a_max, c2 - lam c1 >= -a_min, c_i >= 0 (||A|| at k = 2)."""
    if (pulled := _pulled_back_observable(noise, k)) is None:
        return None
    _, a_min, a_max, lam = pulled
    return max(a_max, -a_min, (a_max - a_min) / (1 - lam))


def identity_protocol(k: int, d: int) -> RetrievalProtocol:
    """Measure the moment observable directly; f = 1, t = 0 (no mitigation).  A copy-cycle
    map with only its identity term, so it reads the noisy copy's moments; no file holds it."""
    return RetrievalProtocol(k=k, copy_dim=d, f=1.0, t=0.0, label="identity",
                             realization=CycleMap(k, d, (), (), np.zeros((0, 0)), identity=True))


# ---------------------------------------------------------------------------
# serialization


def protocol_to_json(p: RetrievalProtocol) -> dict:
    r = p.realization
    if isinstance(r, Channel):
        data = channel_to_json(r)
    elif isinstance(r, MeasurePrepare):
        data = {"effects": [matrix_to_json(e) for e in r.effects],
                "outputs": [matrix_to_json(o) for o in r.outputs],
                "values": None if r.values is None else list(r.values)}
    elif isinstance(r, Recursive):
        data = {"eps": r.eps, "order": r.k, "copy_dim": r.d}
    else:
        raise ValueError(f"protocol {p.label!r}: a {p.kind} realization has no file form")
    return {"schema_version": PROTOCOL_SCHEMA_VERSION, "kind": p.kind, "k": p.k,
            "copy_dim": p.copy_dim, "f": p.f, "t": p.t, "label": p.label,
            "data": data}


def _realization_from_json(kind: str, data: dict) -> Channel | MeasurePrepare:
    if kind in ("channel", "choi"):
        return channel_from_json(data)
    if kind == "measure_prepare":
        values = None if data["values"] is None else list_from_json(data, "values", True)
        return MeasurePrepare(list_from_json(data, "effects"), list_from_json(data, "outputs"),
                              values)
    if kind == "mixed_unitary":
        probs = list_from_json(data, "probabilities", True)
        unitaries = list_from_json(data, "unitaries")
        _check_paired("probabilities", probs, "unitaries", unitaries)
        kraus = [np.sqrt(p) * u for p, u in zip(probs, unitaries)]
        return Channel(kraus[0].shape[1], kraus[0].shape[0], kraus=kraus)
    if kind == "measurement_based":
        basis = [b.reshape(-1) for b in list_from_json(data, "basis_states")]
        outputs = list_from_json(data, "output_states")
        _check_paired("basis_states", basis, "output_states", outputs)
        return MeasurePrepare([np.outer(b, b.conj()) for b in basis], outputs,
                              list_from_json(data, "outcome_values", True))
    raise ValueError(f"unknown protocol kind {kind!r}")


def _field(doc: dict, name: str, kind: type = int):
    """doc[name], refused unless a JSON integer (``int``) or finite number (``float``)."""
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, (int, kind)) or \
            (kind is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"protocol field {name!r} is not "
                         f"{'an integer' if kind is int else 'a finite number'}")
    return value


def protocol_from_json(doc: dict) -> RetrievalProtocol:
    """The protocol a file describes, refused if it is not a JSON object, lacks a
    field or a number, does not act on k copies of copy_dim, stores an f or t
    more than 1e-12 relative from the one a recursive file's data builds, or stores
    an outcome value more than 1e-12 from tr[H_k] of that outcome's output."""
    if not isinstance(doc, dict) or not isinstance(doc.get("data", {}), dict):
        raise ValueError("protocol file or its 'data' is not a JSON object")
    try:
        if _field(doc, "schema_version") not in (1, PROTOCOL_SCHEMA_VERSION):
            raise ValueError(f"unsupported protocol schema {doc['schema_version']}")
        data, k = doc["data"], _field(doc, "k")
        f, t = _field(doc, "f", float), _field(doc, "t", float)
        if doc["kind"] == "recursive":  # de_kth_moment refuses a bad data.copy_dim
            p = de_kth_moment(_field(data, "eps", float), _field(data, "order"),
                              data["copy_dim"])
        else:
            p = RetrievalProtocol(k=k, copy_dim=_field(doc, "copy_dim"), f=f, t=t,
                                  label=doc.get("label", ""),
                                  realization=_realization_from_json(doc["kind"], data))
        r, copy_dim = p.realization, _field(doc, "copy_dim")
        dim = copy_dim ** k
    except KeyError as exc:
        raise ValueError(f"protocol file lacks the field {exc.args[0]!r}") from None
    if (r.in_dim, r.out_dim) != (dim, dim):
        raise ValueError(f"protocol realization maps dimension {r.in_dim} to {r.out_dim}, "
                         f"but {k} copies of dimension {copy_dim} need {dim}")
    if (k, copy_dim) != (p.k, p.copy_dim):  # a recursive file's data builds the retriever
        raise ValueError(f"protocol fields 'k' = {k} and 'copy_dim' = {copy_dim} disagree "
                         f"with data.order = {p.k} and data.copy_dim = {p.copy_dim}")
    for name, stored in (("f", f), ("t", t)):  # and its overhead and shift
        if not isclose(stored, getattr(p, name), rel_tol=1e-12):
            raise ValueError(f"protocol field {name!r} = {stored!r} differs from "
                             f"{getattr(p, name)!r}, the value its data builds")
    if isinstance(r, MeasurePrepare) and r.values is not None:  # sampling records the values
        t_out = cycle_traces(np.stack(r.outputs), k, copy_dim)
        expected = (t_out[:, 1 % k] + t_out[:, -1]).real / 2
        for m, (stored, value) in enumerate(zip(r.values, expected)):
            if abs(stored - value) > 1e-12:
                name = "values" if doc["kind"] == "measure_prepare" else "outcome_values"
                raise ValueError(f"protocol field {name!r}[{m}] = {stored!r} differs from "
                                 f"{float(value)!r}, tr[H_k] of its output")
    return p


def save_protocol(p: RetrievalProtocol, path) -> None:
    text = json.dumps(protocol_to_json(p))  # not json.dump, which never uses the C encoder
    with open(path, "w") as fh:  # opened only once the protocol has a file form
        fh.write(text)


def load_protocol(path) -> RetrievalProtocol:
    with open(path) as fh:
        return protocol_from_json(json.load(fh))
