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
  map recovering the expectation of one fixed observable on k noisy copies.

The first and last optima are spectral (``protocols.optimal_shift``,
``protocols.recover_overhead``); those programs are the reference the spectral
optima are checked against, and ``build_gmin`` is the one program the CLI solves.

Every program takes one copy's noise; none builds a k-fold channel.  The last
two are one program from one builder: PSD J1, J2 with tr_C J_i = c_i I, one
coupling ``L(J1) - L(J2) = target`` and objective c1 + c2; L is the link with
the noise (inverse) or the observable pullback (recover).

Every constraint term is stated by its adjoint map, from the constraint's
target space back to the Choi block, which is what the solver compiles A's
rows from and what the dual operator of ``check_certificate`` is made of:

* the trace scaling tr_2[J] = c I has the adjoint Y -> Y (x) I;
* the observable pullback J -> N^dag(x k)(tr_C[(I (x) H^T) J^T]) has the
  pushforward Y -> (N^(x k)(Y))^T (x) H (``_noise_pushforward``);
* the link with the noise has the adjoint ``noise_link_adjoint``, the package's one
  statement of the link convention.

No dual program is built: each solve records its dual objective in its
diagnostics, and ``check_certificate`` tests an (M, K) of the shift dual exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..channels import Channel, apply_copywise, channel_matrix
from ..moments import cycle_orbits, cycle_traces, cyclic_shift_index, moment_observable
from ..operators import Operator, check_memory
from .problem import (
    BlockVar,
    Constraint,
    ConstraintTerm,
    DualCertificate,
    ScalarVar,
    SdpProblem,
    Sector,
)
from .solver import check_program_memory, program_bytes

F_LOWER_BOUND = 1e-9
SYMMETRY_TOL = 1e-12


def _kron_identity(d2: int):
    """Batched Y -> Y (x) I_d2: the adjoint of the partial trace over a second factor."""
    def adjoint(batch: np.ndarray) -> np.ndarray:
        n, d1 = batch.shape[:2]
        return (batch[:, :, None, :, None] * np.eye(d2)[:, None]).reshape(n, d1 * d2, d1 * d2)
    return adjoint


def _trace_scaling(block: str, scale: str, d1: int, d2: int, name: str) -> Constraint:
    """tr_2[block] = scale * I: the Choi ``block`` is ``scale`` times trace preserving."""
    return Constraint(
        terms=(ConstraintTerm(var=block, adjoint=_kron_identity(d2)),
               ConstraintTerm(var=scale, scalar_coeff_op=-np.eye(d1))),
        target=np.zeros((d1, d1)), name=name)


def _noise_pushforward(noise: Channel, k: int, h: np.ndarray):
    """Batched Y -> (N^(x k)(Y))^T (x) H, the adjoint of the retriever pullback
    J -> N^dag(x k)(tr_C[(I (x) H^T) J^T]) and the dual coupling term.

    The noise acts copy by copy through its channel matrix (``apply_copywise``), as in
    ``protocols.contract_residual``: no k-fold Kraus set is built."""
    m = channel_matrix(noise)

    def pushforward(batch: np.ndarray) -> np.ndarray:
        n, dim = batch.shape[0], noise.in_dim ** k
        y = np.ascontiguousarray(apply_copywise(m, batch, k).transpose(0, 2, 1))
        return (y[:, :, None, :, None] * h[:, None]).reshape(n, dim * dim, dim * dim)
    return pushforward


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


def _phase_covariant(noise: Channel) -> bool:
    """Whether the noise conserves the excitation charge, so H_k's charge sectors
    are the program's too (H_k has the copy cycle's by construction)."""
    n1 = _charges(1, noise.in_dim)
    q = (n1[:, None] - n1).reshape(-1)  # charge of each basis state of the Choi matrix
    return bool(np.abs(noise.choi().entries[q[:, None] != q]).max(initial=0.0) <= SYMMETRY_TOL)


def build_fmin(noise: Channel, k: int) -> SdpProblem:
    """Primal observable-shift program for H_k; optimum is f_min(noise, k).  J's sectors, at
    most k per charge value, have sizes summing to d^2, so by Cauchy-Schwarz J has at least
    d^4 / labels coordinates: the program is gated on that before its sectors are built."""
    if noise.in_dim != noise.out_dim:
        raise ValueError("observable-shift synthesis needs a square channel")
    d = noise.in_dim ** k
    name = f"fmin[{noise.label},k={k}]"
    scalars = [ScalarVar("f", lower=F_LOWER_BOUND), ScalarVar("t")]
    covariant = _phase_covariant(noise)
    labels = k * (2 * k * int(_charges(1, noise.in_dim).max()) + 1) if covariant else k
    check_memory(program_bytes(-(-d ** 4 // labels) + len(scalars), d * d, (d, d)),
                 f"program {name}")
    blocks = [BlockVar("J", d * d, psd=True, sectors=copy_sectors(k, noise.in_dim, covariant))]
    check_program_memory(name, blocks, scalars, (d, d))
    h = moment_observable(k, noise.in_dim).entries
    ts = _trace_scaling("J", "f", d, d, "trace_scaling")
    shift = Constraint(
        terms=(
            ConstraintTerm(var="J", adjoint=_noise_pushforward(noise, k, h)),
            ConstraintTerm(var="t", scalar_coeff_op=-np.eye(d)),
        ),
        target=h,
        name="observable_shift",
    )
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"f": 1.0},
                      constraints=[ts, shift], name=name)


def check_certificate(cert: DualCertificate, noise: Channel, k: int) -> tuple[bool, float]:
    """Evaluate dual feasibility analytically and return (feasible, -tr[K H_k]).

    The dual operator ``M (x) I + (N^(x k)(K))^T (x) H_k`` is A^T of the shift
    program: its two adjoint maps applied to a batch of one."""
    d = noise.in_dim ** k
    h = moment_observable(k, noise.in_dim).entries
    dual_op = (_kron_identity(d)(cert.M.entries[None])
               + _noise_pushforward(noise, k, h)(cert.K.entries[None]))
    feasible = (cert.M.trace().real <= 1.0 + 1e-9 and abs(cert.K.trace()) <= 1e-9
                and Operator(dual_op[0]).min_eigenvalue() >= -1e-9)
    t = cycle_traces(cert.K.entries, k, noise.in_dim)  # tr[K H_k] = (t_1 + t_{k-1})/2
    return feasible, float(-(t[1] + t[-1]).real / 2)


def _channel_difference(name: str, d1: int, d2: int, target_dim: int, coupling,
                        constraint: str) -> SdpProblem:
    """min c1 + c2 over PSD J1, J2 on d1 (x) d2 with tr_2[J_i] = c_i I and
    L(J1) - L(J2) = target, where ``coupling()`` returns (L^dag, target); it is
    called only once the program has passed the memory gate."""
    blocks = [BlockVar("J1", d1 * d2, psd=True), BlockVar("J2", d1 * d2, psd=True)]
    scalars = [ScalarVar("c1", lower=0.0), ScalarVar("c2", lower=0.0)]
    check_program_memory(name, blocks, scalars, (d1, d1, target_dim))
    adjoint, target = coupling()
    cons = [
        _trace_scaling("J1", "c1", d1, d2, "ts_J1"),
        _trace_scaling("J2", "c2", d1, d2, "ts_J2"),
        Constraint(terms=(ConstraintTerm(var="J1", adjoint=adjoint),
                          ConstraintTerm(var="J2", adjoint=lambda y: -adjoint(y))),
                   target=target, name=constraint),
    ]
    return SdpProblem(blocks=blocks, scalars=scalars, objective={"c1": 1.0, "c2": 1.0},
                      constraints=cons, name=name)


def noise_link_adjoint(noise: Channel):
    """Batched adjoint of the link L(J) = tr_B[(J_N^{T_B} (x) I_A)(I_A (x) J)], the Choi on
    A (x) A of (the map B -> A of Choi J on B (x) A) o noise: L^dag takes Y on A (x) A to
    ``[(q c), (b e)] -> sum_ap conj(J_N)[(a q), (p b)] Y[(a c), (p e)]`` on B (x) A."""
    da, db = noise.in_dim, noise.out_dim
    j_conj = noise.choi().entries.conj().reshape(da, db, da, db)

    def adjoint(batch: np.ndarray) -> np.ndarray:
        y = batch.reshape(-1, da, da, da, da)
        return np.einsum("aqpb,nacpe->nqcbe", j_conj, y).reshape(-1, db * da, db * da)
    return adjoint


def build_gmin(noise: Channel) -> SdpProblem:
    """Quasi-probability overhead of the exact channel inverse of ``noise``: the
    decomposed map runs from the noise output back to its input, and its link
    with the noise (``noise_link_adjoint``) is pinned to the identity Choi matrix."""
    da, db = noise.in_dim, noise.out_dim
    omega = np.eye(da, dtype=complex).reshape(-1)
    return _channel_difference(f"gmin[{noise.label}]", db, da, da * da,
                               lambda: (noise_link_adjoint(noise), np.outer(omega, omega)),
                               "inverse_composition")


def gmin_power(g1: float, k: int) -> float:
    """k-copy inverse overhead via multiplicativity of the diamond norm."""
    return float(g1) ** k


def build_info_recover(noise: Channel, obs: Operator) -> SdpProblem:
    """Overhead of recovering one observable's expectation on k copies, each through
    ``noise``; k is read off ``obs.dim == noise.in_dim ** k``."""
    d = noise.in_dim
    k = next((k for k in range(1, obs.dim.bit_length() + 1) if d ** k == obs.dim), None)
    if noise.out_dim != d or k is None:
        raise ValueError(f"information recovery needs a square channel and an observable on "
                         f"copies of its input, got {noise!r} and dimension {obs.dim}")
    return _channel_difference(
        f"info_recover[{noise.label},k={k}]", obs.dim, obs.dim, obs.dim,
        lambda: (_noise_pushforward(noise, k, obs.entries), obs.entries),
        "observable_recovery")
