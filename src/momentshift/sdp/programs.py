"""Builders for the three conic programs behind the retrieval machinery.

All programs are phrased over Choi matrices with the package's input-first
convention.  Labels follow the roles in the composition
``retriever . noise^(x k)``: A is the joint input, B the noisy output fed to
the retriever, C the retriever output measured with the moment observable.

* ``build_fmin``: minimal trace-scaling factor f of a completely positive
  trace-scaling retriever whose adjoint pulls H_k back to ``(H_k + t I)``
  through the noise (the observable-shift program).  Its Choi block is
  declared in the sectors of the copy cycle and, for phase-covariant noise,
  of the excitation charge (``copy_sectors``), both symmetries of H_k.
* ``build_gmin``: quasi-probability overhead of simulating the exact inverse
  of a channel as a difference of two scaled channels.
* ``build_info_recover``: overhead of a Hermitian-preserving trace-scaling
  map recovering the expectation of one fixed observable.

The last two are one program from one builder: PSD J1, J2 with tr_C J_i =
c_i I, one coupling ``L(J1) - L(J2) = target`` and objective c1 + c2; L is the
link with the noise (inverse) or the observable pullback (recover).

No dual program is built: each solve records its dual objective in its
diagnostics, and ``check_certificate`` tests an (M, K) of the shift dual exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..channels import Channel, channel_matrix, link_product, tensor_power
from ..moments import cycle_orbits, cycle_traces, cyclic_shift_index, moment_observable
from ..operators import Operator
from .problem import (
    BlockVar,
    Constraint,
    ConstraintTerm,
    DualCertificate,
    ScalarVar,
    SdpProblem,
    Sector,
)
from .solver import check_program_memory

F_LOWER_BOUND = 1e-9
SYMMETRY_TOL = 1e-12


def _trace_out_second(d1: int, d2: int):
    """Map on Herm(d1*d2): partial trace over the second factor, batched."""
    def mapper(batch: np.ndarray) -> np.ndarray:
        n = batch.shape[0]
        t = batch.reshape(n, d1, d2, d1, d2)
        return np.einsum("nbcac->nba", t)
    return mapper


def _trace_scaling(block: str, scale: str, d1: int, d2: int, name: str) -> Constraint:
    """tr_2[block] = scale * I: the Choi ``block`` is ``scale`` times trace preserving."""
    return Constraint(
        terms=(ConstraintTerm(var=block, block_map=_trace_out_second(d1, d2)),
               ConstraintTerm(var=scale, scalar_coeff_op=-np.eye(d1))),
        target=np.zeros((d1, d1)), name=name)


def _negated(block_map):
    """Batched X -> -block_map(X)."""
    return lambda batch: -block_map(batch)


def _retriever_pullback(noise: Channel, h: np.ndarray, d: int):
    """Batched J -> NK^dag( tr_C[(I (x) H^T) J^T] ) for J on B (x) C.

    ``tr_C[(I (x) H^T) J^T]`` is the adjoint of the map with Choi J applied
    to H; composing with the Kraus adjoint of the noise gives the
    Heisenberg-picture pullback of the observable through retriever and
    noise.  The observable contraction is done in one einsum (never forming
    the d^2 x d^2 product) and the noise adjoint through its precomputed
    vectorized matrix, which keeps 256-dim Choi blocks tractable.
    """
    madj = channel_matrix(noise).T

    def mapper(batch: np.ndarray) -> np.ndarray:
        n = batch.shape[0]
        t = batch.reshape(n, d, d, d, d)
        y = np.einsum("cd,npdqc->nqp", h, t, optimize=True)
        return (madj @ y.reshape(n, d * d).T).T.reshape(n, d, d)
    return mapper


def _charges(k: int, d: int) -> np.ndarray:
    """Excitation number of every basis string of k copies of C^d: the
    popcounts of its k digits, summed."""
    digits = np.arange(d ** k)[:, None] // d ** np.arange(k) % d
    popcount = np.array([bin(v).count("1") for v in range(d)])
    return popcount[digits].sum(axis=1)


@lru_cache(maxsize=None)
def copy_sectors(k: int, d: int, charge: bool) -> tuple[Sector, ...]:
    """Symmetry sectors of a matrix on B (x) C, each k copies of C^d.

    The copy cycle acts as the permutation P (x) P on basis strings.  Each
    orbit x, Px, ..., P^{L-1}x gives the L columns
    ``v_j = L^{-1/2} sum_t e^{-2 pi i j t/L} |P^t x>``, eigenvectors of the
    cycle with Z_k label m = j k / L.  With ``charge`` the columns are also
    labelled by popcount(b) - popcount(c), which is constant on orbits.  A
    sector collects the columns of one label, ordered by orbit.
    """
    p = cyclic_shift_index(k, d)
    dk = d ** k
    orbits, starts, lengths = cycle_orbits((p[:, None] * dk + p).reshape(-1), k)
    n = _charges(k, d)
    labels = (n[:, None] - n).reshape(-1) if charge else np.zeros(dk * dk, dtype=int)
    columns: dict[tuple[int, int], list] = {}
    for x, length in zip(starts.tolist(), lengths.tolist()):
        t = np.arange(length)
        for j in range(length):
            phases = np.exp(-2j * np.pi * j * t / length) / np.sqrt(length)
            columns.setdefault((j * k // length, int(labels[x])), []).append(
                (orbits[:length, x], phases))
    sectors = []
    for key in sorted(columns):
        cols = columns[key]
        rows = np.concatenate([members for members, _ in cols])
        q = np.zeros((len(rows), len(cols)), dtype=complex)
        start = 0
        for c, (members, phases) in enumerate(cols):
            q[start:start + len(members), c] = phases
            start += len(members)
        rows.flags.writeable = q.flags.writeable = False
        sectors.append(Sector(rows, q))
    return tuple(sectors)


def _fmin_sectors(noise: Channel, k: int) -> tuple[Sector, ...]:
    """Sectors of the observable-shift program's J: the copy cycle's, split by
    charge when the noise is phase covariant (H_k is both by construction)."""
    n1 = _charges(1, noise.in_dim)
    q = (n1[:, None] - n1).reshape(-1)  # charge of each basis state of the Choi matrix
    covariant = np.abs(noise.choi().entries[q[:, None] != q]).max(initial=0.0) <= SYMMETRY_TOL
    return copy_sectors(k, noise.in_dim, covariant)


def build_fmin(noise: Channel, k: int) -> SdpProblem:
    """Primal observable-shift program for H_k; optimum is f_min(noise, k)."""
    if noise.in_dim != noise.out_dim:
        raise ValueError("observable-shift synthesis needs a square channel")
    d = noise.in_dim ** k
    name = f"fmin[{noise.label},k={k}]"
    blocks = [BlockVar("J", d * d, psd=True, sectors=_fmin_sectors(noise, k))]
    scalars = [ScalarVar("f", lower=F_LOWER_BOUND), ScalarVar("t")]
    check_program_memory(name, blocks, scalars, (d, d))
    nk = tensor_power(noise, k)
    h = moment_observable(k, noise.in_dim).entries
    ts = _trace_scaling("J", "f", d, d, "trace_scaling")
    shift = Constraint(
        terms=(
            ConstraintTerm(var="J", block_map=_retriever_pullback(nk, h, d)),
            ConstraintTerm(var="t", scalar_coeff_op=-np.eye(d)),
        ),
        target=h,
        name="observable_shift",
    )
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"f": 1.0},
                      constraints=[ts, shift], name=name)


def _noise_pushforward(kraus: tuple[np.ndarray, ...], h: np.ndarray, d: int):
    """Batched K -> (NK(K))^T (x) H, the contracted dual coupling term."""
    estack = np.stack(kraus)

    def mapper(batch: np.ndarray) -> np.ndarray:
        nk_k = np.einsum("kab,nbc,kdc->nad", estack, batch, estack.conj())
        nk_k_t = np.transpose(nk_k, (0, 2, 1))
        return np.einsum("nab,cd->nacbd", nk_k_t, h).reshape(
            batch.shape[0], d * d, d * d)
    return mapper


def _kron_identity_right(d: int):
    """Batched M -> M (x) I_d."""
    eye_d = np.eye(d)

    def mapper(batch: np.ndarray) -> np.ndarray:
        return np.einsum("nab,cd->nacbd", batch, eye_d).reshape(
            batch.shape[0], d * d, d * d)
    return mapper


def check_certificate(cert: DualCertificate, noise: Channel, k: int) -> tuple[bool, float]:
    """Evaluate dual feasibility analytically and return (feasible, -tr[K H_k]).

    The dual operator ``M (x) I + (N^(x k)(K))^T (x) H_k`` is built by two
    batched maps applied to a batch of one."""
    d = noise.in_dim ** k
    h = moment_observable(k, noise.in_dim).entries
    dual_op = (_kron_identity_right(d)(cert.M.entries[None])
               + _noise_pushforward(tensor_power(noise, k).kraus, h, d)(cert.K.entries[None]))
    feasible = (cert.M.trace().real <= 1.0 + 1e-9 and abs(cert.K.trace()) <= 1e-9
                and Operator(dual_op[0]).min_eigenvalue() >= -1e-9)
    t = cycle_traces(cert.K.entries, k, noise.in_dim)  # tr[K H_k] = (t_1 + t_{k-1})/2
    return feasible, float(-(t[1] + t[-1]).real / 2)


def _channel_difference(name: str, d1: int, d2: int, target_dim: int, coupling,
                        constraint: str) -> SdpProblem:
    """min c1 + c2 over PSD J1, J2 on d1 (x) d2 with tr_2[J_i] = c_i I and
    L(J1) - L(J2) = target, where ``coupling()`` returns (L, target); it is
    called only once the program has passed the memory gate."""
    blocks = [BlockVar("J1", d1 * d2, psd=True), BlockVar("J2", d1 * d2, psd=True)]
    scalars = [ScalarVar("c1", lower=0.0), ScalarVar("c2", lower=0.0)]
    check_program_memory(name, blocks, scalars, (d1, d1, target_dim))
    block_map, target = coupling()
    cons = [
        _trace_scaling("J1", "c1", d1, d2, "ts_J1"),
        _trace_scaling("J2", "c2", d1, d2, "ts_J2"),
        Constraint(terms=(ConstraintTerm(var="J1", block_map=block_map),
                          ConstraintTerm(var="J2", block_map=_negated(block_map))),
                   target=target, name=constraint),
    ]
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"c1": 1.0, "c2": 1.0},
                      constraints=cons, name=name)


def build_gmin(noise: Channel) -> SdpProblem:
    """Quasi-probability overhead of the exact channel inverse of ``noise``.

    The decomposed map runs from the noise output back to its input; its link
    with the noise is pinned to the identity Choi matrix.
    """
    da, db = noise.in_dim, noise.out_dim

    def coupling():
        j_noise = noise.choi()
        omega = np.eye(da, dtype=complex).reshape(-1)
        return (lambda batch: link_product(j_noise, batch, (da, db, da)),
                np.outer(omega, omega))
    return _channel_difference(f"gmin[{noise.label}]", db, da, da * da, coupling,
                               "inverse_composition")


def gmin_power(g1: float, k: int) -> float:
    """k-copy inverse overhead via multiplicativity of the diamond norm."""
    return float(g1) ** k


def build_info_recover(noise: Channel, obs: Operator) -> SdpProblem:
    """Overhead of recovering one observable's expectation through ``noise``."""
    d = noise.in_dim
    if noise.out_dim != d:
        raise ValueError("information recovery assumes a square channel")
    if obs.dim != d:
        raise ValueError(f"observable dim {obs.dim} != channel dim {d}")
    return _channel_difference(
        f"info_recover[{noise.label}]", d, d, d,
        lambda: (_retriever_pullback(noise, obs.entries, d), obs.entries),
        "observable_recovery")
