"""Dense and composed reference objects the tests check the package against.

The package builds H_k from an index permutation, states the Choi link only
as its adjoint, keeps the transfer and recovery maps as the coefficient
matrices of the recursion, builds the recursion's stages once, evaluates copy-cycle
retrievers from the moments of one noisy copy, applies depolarizing noise in
closed form, tallies its shots and rebuilds their records from the seed, builds
the Weyl basis by index arithmetic, reads the dual objective off the primal
solve and compiles conic programs by rows through adjoint maps; these are the
literal objects those forms replace.  ``check_certificate`` tests a point of
the observable-shift dual exactly.
"""

import csv
import dataclasses
import io
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from momentshift.channels import Channel, _weyl_operators, channel_matrix, tensor_power
from momentshift.estimator import EstimationRun, _h_distribution, _h_spectrum, shot_uniforms
from momentshift.moments import cycle_traces, cyclic_shift_index, moment_observable
from momentshift.operators import Operator, check_memory, partial_trace
from momentshift.protocols import (SAMPLING_TP_TOL, CycleMap, MeasurePrepare,
                                  RetrievalProtocol, _gram, _transfer_matrix, q_matrices)
from momentshift.sdp.problem import (BlockVar, Constraint, ConstraintTerm, HermitianBasis,
                                     ScalarVar, SdpProblem, SdpSolution)
from momentshift.sdp.programs import _kron_identity, _noise_pushforward
from momentshift.sdp.solver import compile_problem
from conftest import noisy_copies


def cyclic_permutation(k: int, d: int = 2) -> Operator:
    """Unitary S_k with S_k |x1 x2 ... xk> = |x2 ... xk x1>."""
    shift = cyclic_shift_index(k, d)
    dim = shift.size
    check_memory(2 * 16 * dim * dim, f"cyclic permutation for k={k}, d={d}")  # S_k, copy
    s = np.zeros((dim, dim), dtype=complex)
    s[shift, np.arange(dim)] = 1.0
    return Operator(s, (d,) * k)


MASK64, GOLDEN = 2 ** 64 - 1, 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix_mix(z: int) -> int:
    """SplitMix64's output mix of one 64-bit word, with Python ints."""
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix_unmix(z: int) -> int:
    """The inverse of ``splitmix_mix``: an xorshift y = x ^ (x >> k) is undone by
    repeating x = y ^ (x >> k), an odd multiplier by its inverse mod 2^64."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x
    z = unshift(z, 31)
    z = unshift((z * pow(MIX2, -1, 2 ** 64)) & MASK64, 27)
    return unshift((z * pow(MIX1, -1, 2 ** 64)) & MASK64, 30)


def splitmix_words(seed: int, shots, draw: int) -> list[int]:
    """Raw SplitMix64 words of the given shots of one draw (1, 2, ...) in counter mode:
    mix(scramble(seed) + shot + draw golden), scramble(s) = mix(s + golden), mod 2^64."""
    base = splitmix_mix((seed + GOLDEN) & MASK64)
    return [splitmix_mix((base + i + draw * GOLDEN) & MASK64) for i in shots]


def seed_with_counter(counter: int, draw: int = 1) -> int:
    """A seed whose shot 0 of draw ``draw`` mixes the counter ``counter`` mod 2^64."""
    return (splitmix_unmix((counter - draw * GOLDEN) & MASK64) - GOLDEN) & MASK64


def threshold_counts(words, thresholds) -> np.ndarray:
    """Per word, the number of integer thresholds t with (word >> 11) >= t."""
    ts = [int(t) for t in np.ravel(thresholds)]
    return np.array([sum((w >> 11) >= t for t in ts) for w in words], dtype=np.intp)


def searchsorted_index(cumulative, u):
    return np.searchsorted(cumulative, u, side="right").clip(0, cumulative.size - 1)


def reference_run(p, rho, noise, shots, seed):
    """Per-shot values and outcome indices of a sampled run, from whole arrays of
    shot_uniforms and searchsorted."""
    sigma = noisy_copies(rho, noise, p.k).entries
    values = _h_spectrum(p.k)[0]
    r = p.realization
    if isinstance(r, MeasurePrepare) and r.values is not None:
        probs = np.clip(r.outcome_probabilities(sigma), 0.0, None)
        cumulative, values = np.cumsum(probs / probs.sum()), np.asarray(r.values, dtype=float)
    else:
        cumulative = np.cumsum(_h_distribution(cycle_traces(r.apply(sigma), p.k, p.copy_dim), p.k))
    idx = searchsorted_index(cumulative, shot_uniforms(seed, shots, 1)[:, 0])
    return values[idx], idx


def run_to_json(run: EstimationRun, per_shot, indices) -> dict:
    """The run record as one dict, with whole per-shot lists; ``estimator.save_run``
    writes its ``json.dumps``."""
    return {"schema_version": 1, "seed": run.seed, "shots": run.shots,
            "zeta_bar": run.zeta_bar, "estimate": run.estimate, "protocol_ref": run.protocol_ref,
            "per_shot": [float(x) for x in per_shot],
            "outcome_indices": [int(i) for i in indices]}


def run_csv_text(per_shot, indices) -> str:
    """The CSV record, one ``csv.writer`` row per shot; ``estimator.run_to_csv`` writes it."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["shot_index", "outcome_index", "value"])
    for i, (idx, val) in enumerate(zip(indices, per_shot)):
        w.writerow([i, int(idx), f"{val:.12g}"])
    return out.getvalue()


def weyl_operators(d: int) -> list[np.ndarray]:
    """Shift/clock unitaries X^a Z^b, a, b = 0 .. d-1, as products of matrix powers."""
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for x in range(d):
        shift[(x + 1) % d, x] = 1.0
    clock = np.diag([omega ** x for x in range(d)])
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(d) for b in range(d)]


def identity_channel(d: int) -> Channel:
    return Channel(d, d, kraus=[np.eye(d, dtype=complex)], label=f"id_{d}")


def is_cptp(c: Channel) -> bool:
    """Choi matrix PSD and input marginal I, both to within 1e-9."""
    j = c.choi()
    marg = partial_trace(Operator(j.entries, (c.in_dim, c.out_dim)), [0])
    return bool(j.min_eigenvalue() >= -1e-9
                and np.max(np.abs(marg.entries - np.eye(c.in_dim))) <= 1e-9)


def compose(after: Channel, before: Channel, label: str = "") -> Channel:
    """Channel ``after . before`` by multiplying Kraus sets."""
    if before.out_dim != after.in_dim:
        raise ValueError("cannot compose: dimension mismatch")
    if before.kraus is None or after.kraus is None:
        raise ValueError("compose requires Kraus form on both channels")
    kraus = [a @ b for a in after.kraus for b in before.kraus]
    return Channel(before.in_dim, after.out_dim, kraus=kraus,
                   label=label or f"{after.label}.{before.label}")


def _to_copy_cycle(k: int, l: int, d: int, a: np.ndarray) -> CycleMap:
    """The map X -> sum_pj a[p, j] tr[S_k^j X] S_l^p (x) I on k copies."""
    return CycleMap(k, d, outputs=[(l, -p) for p in range(l)],
                    inputs=[(k, j) for j in range(k)], matrix=a)


@dataclass(frozen=True)
class TransferMapPair:
    forward: CycleMap        # T_k:  H_k -> H_{k-1} (x) I/d
    forward_neg: CycleMap    # T~_k: H_k -> -H_{k-1} (x) I/d


@lru_cache(maxsize=None)
def transfer_maps(k: int, d: int = 2) -> TransferMapPair:
    q, q_tilde = q_matrices(k)
    return TransferMapPair(forward=_to_copy_cycle(k, k - 1, d, _transfer_matrix(q, k, d)),
                           forward_neg=_to_copy_cycle(k, k - 1, d,
                                                      _transfer_matrix(q_tilde, k, d)))


@lru_cache(maxsize=None)
def recovery_map(k: int, l: int, d: int = 2) -> CycleMap:
    """CP map R_l with R_l(H_k) = -H_l (x) I/d^{k-l}.

    Composition (T_{l+1} (x) id) o ... o (T_{k-1} (x) id) o T~_k; the first
    stage carries the sign flip so that the later stages accumulate only
    positive transfers.
    """
    if not 2 <= l < k:
        raise ValueError(f"recovery map needs 2 <= l < k, got l={l}, k={k}")
    a = _transfer_matrix(q_matrices(k)[1], k, d)
    for s in range(k - 1, l, -1):
        a = _transfer_matrix(q_matrices(s)[0], s, d) @ _gram(s, d) @ a
    return _to_copy_cycle(k, l, d, a)


def _trace_out_second(d1: int, d2: int):
    """Map on Herm(d1*d2): partial trace over the second factor, batched."""
    def mapper(batch: np.ndarray) -> np.ndarray:
        n = batch.shape[0]
        t = batch.reshape(n, d1, d2, d1, d2)
        return np.einsum("nbcac->nba", t)
    return mapper


def _negated(block_map):
    """Batched X -> -block_map(X)."""
    return lambda batch: -block_map(batch)


def _retriever_pullback(noise: Channel, h: np.ndarray, d: int):
    """Batched J -> NK^dag( tr_C[(I (x) H^T) J^T] ) for J on B (x) C: the adjoint
    of the map with Choi J applied to H, pulled back through the noise."""
    madj = channel_matrix(noise).T

    def mapper(batch: np.ndarray) -> np.ndarray:
        n = batch.shape[0]
        t = batch.reshape(n, d, d, d, d)
        y = np.einsum("cd,npdqc->nqp", h, t, optimize=True)
        return (madj @ y.reshape(n, d * d).T).T.reshape(n, d, d)
    return mapper


def fmin_forward(noise: Channel, k: int) -> dict:
    """Forward block maps of ``build_fmin``, by (constraint name, variable)."""
    d = noise.in_dim ** k
    h = moment_observable(k, noise.in_dim).entries
    return {("trace_scaling", "J"): _trace_out_second(d, d),
            ("observable_shift", "J"): _retriever_pullback(tensor_power(noise, k), h, d)}


def _difference_forward(d1: int, d2: int, coupling, constraint: str) -> dict:
    """Forward maps of a channel-difference program: two trace scalings, +/- the coupling."""
    return {("ts_J1", "J1"): _trace_out_second(d1, d2), ("ts_J2", "J2"): _trace_out_second(d1, d2),
            (constraint, "J1"): coupling, (constraint, "J2"): _negated(coupling)}


def link_product(j_first: Operator, j_second: np.ndarray,
                 dims: tuple[int, int, int]) -> np.ndarray:
    """Chois of compositions from the Chois of their parts, batched.

    ``j_first`` is J of a map A -> B and ``j_second`` a stack (n, B C, B C) of
    Chois of maps B -> C; the result stacks the (n, A C, A C) Chois of the
    composed maps A -> C, each ``tr_B[(J_first^{T_B} (x) I_C)(I_A (x) J_second)]``.
    """
    da, db, dc = dims
    jt4 = np.ascontiguousarray(j_first.entries.reshape(da, db, da, db).transpose(0, 3, 2, 1))
    n = j_second.shape[0]
    x4 = j_second.reshape(n, db, dc, db, dc)
    return np.einsum("abpq,nqcbe->nacpe", jt4, x4).reshape(n, da * dc, da * dc)


def gmin_forward(noise: Channel) -> dict:
    """Forward block maps of ``build_gmin``: the link with the noise."""
    da, db = noise.in_dim, noise.out_dim
    return _difference_forward(
        db, da, lambda batch: link_product(noise.choi(), batch, (da, db, da)),
        "inverse_composition")


def recover_forward(noise: Channel, obs: Operator) -> dict:
    """Forward block maps of ``build_info_recover``: the observable pullback."""
    d = noise.in_dim
    return _difference_forward(d, d, _retriever_pullback(noise, obs.entries, d),
                               "observable_recovery")


def column_compile(p: SdpProblem, forward: dict, chunk: int = 32) -> np.ndarray:
    """A of ``p`` built column by column: each block basis matrix pushed through the
    forward map ``forward[(constraint, var)]``."""
    layout = compile_problem(dataclasses.replace(p, constraints=[])).layout
    rows = []
    for con in p.constraints:
        basis_out = HermitianBasis(np.atleast_2d(con.target).shape[0])
        block_rows = np.zeros((basis_out.size, sum(b.size for b in p.blocks) + len(p.scalars)))
        for term in con.terms:
            off, blk = layout[term.var]
            if blk is None:
                block_rows[:, off] += basis_out.to_coords(term.scalar_coeff_op)
                continue
            basis_in = HermitianBasis(blk.dim)
            for start in range(0, basis_in.size, chunk):
                stop = min(start + chunk, basis_in.size)
                out = forward[con.name, term.var](basis_in.basis_batch(start, stop)).reshape(
                    stop - start, basis_out.d, basis_out.d)
                block_rows[:, off + start:off + stop] += basis_out.to_coords(out).T
        rows.append(block_rows)
    return np.vstack(rows)


def dual_fmin(noise: Channel, k: int) -> SdpProblem:
    """The observable-shift dual as its own program: minimize v = tr[K H_k] over
    PSD T = M (x) I + (N^(x k)(K))^T (x) H_k with tr M + s = 1, s >= 0, tr K = 0,
    so that -v is the dual optimum, max -tr[K H_k].  Its terms' adjoints are the
    primal's forward maps: the partial trace and the retriever pullback."""
    d = noise.in_dim ** k
    h = moment_observable(k, noise.in_dim).entries

    psd = Constraint(terms=(
        ConstraintTerm("T", adjoint=lambda batch: batch),
        ConstraintTerm("M", adjoint=_negated(_trace_out_second(d, d))),
        ConstraintTerm("K", adjoint=_negated(_retriever_pullback(tensor_power(noise, k), h, d)))),
        target=np.zeros((d * d, d * d)), name="dual_psd")
    return SdpProblem(
        blocks=[BlockVar("M", d, psd=False), BlockVar("K", d, psd=False),
                BlockVar("T", d * d, psd=True)],
        scalars=[ScalarVar("s", lower=0.0), ScalarVar("v")],
        objective={"v": 1.0},
        constraints=[psd,
                     Constraint(terms=(ConstraintTerm("M", adjoint=lambda y: y * np.eye(d)),
                                       ConstraintTerm("s", scalar_coeff_op=np.eye(1))),
                                target=1.0, name="trace_M_bound"),
                     Constraint(terms=(ConstraintTerm("K", adjoint=lambda y: y * np.eye(d)),),
                                target=0.0, name="trace_K_zero"),
                     Constraint(terms=(ConstraintTerm("K", adjoint=lambda y: y * h),
                                       ConstraintTerm("v", scalar_coeff_op=-np.eye(1))),
                                target=0.0, name="objective_value")],
        name=f"dual_fmin[{noise.label},k={k}]")


@dataclass(frozen=True)
class DualCertificate:
    """Feasible point (M, K) of the observable-shift dual; objective is -tr[K H_k]."""

    M: Operator
    K: Operator


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


def from_sdp_solution(sol: SdpSolution, k: int) -> RetrievalProtocol:
    """Turn an optimal observable-shift solution into a protocol with a Choi realization."""
    if sol.status != "optimal":
        raise ValueError(f"cannot extract a protocol from a {sol.status} solution")
    f, j_scaled = sol.scalar("f"), sol.block("J")
    d = int(round(np.sqrt(j_scaled.dim)))
    return RetrievalProtocol(
        k=k, copy_dim=int(round(d ** (1.0 / k))), f=f, t=sol.scalar("t"),
        realization=Channel(d, d, choi=Operator(j_scaled.entries / f, (d, d))),
        label=sol.name or "sdp_protocol")


def dense_output_traces(p, noisy_state: Operator) -> np.ndarray:
    """t_j = tr[S_k^j C(X)] of the realization applied to a whole k-copy matrix X."""
    if noisy_state.dim != p.copy_dim ** p.k:
        raise ValueError("noisy state dimension does not match protocol")
    return cycle_traces(p.realization.apply(noisy_state.entries), p.k, p.copy_dim)


def dense_exact_expectation(p, noisy_state: Operator) -> float:
    """tr[H_k C(X)] = Re(t_1 + t_{k-1})/2 of ``dense_output_traces``."""
    t = dense_output_traces(p, noisy_state)
    return float((t[1 % p.k] + t[-1]).real / 2)


def dense_is_trace_preserving(r) -> bool:
    """Every entry of C^dag(I) - I, built as a d^k x d^k matrix, within SAMPLING_TP_TOL."""
    unit = r.adjoint_apply(np.eye(r.out_dim))
    return bool(np.max(np.abs(unit - np.eye(r.in_dim))) <= SAMPLING_TP_TOL)


def weyl_depolarizing(eps: float, d: int) -> Channel:
    """The depolarizing channel as its d^2 Weyl Kraus operators, sqrt(1 - eps + eps/d^2) I
    and sqrt(eps)/d X^a Z^b otherwise."""
    kraus = [np.sqrt(1.0 - eps + eps / d ** 2) * np.eye(d, dtype=complex)]
    scale = np.sqrt(eps) / d
    for w in _weyl_operators(d)[1:]:
        kraus.append(scale * w)
    return Channel(d, d, kraus=kraus, label=f"DE(eps={eps:g},d={d})")


def recursion_matrix_per_order(eps: float, k: int, d: int):
    """U_k and its labels, every transfer stage and V_l rebuilt for each order kk."""
    u = {2: np.array([[1.0, -1.0 / d], [-1.0 / d, 1.0]]) / (d * d - 1)}
    for kk in range(3, k + 1):
        a = {kk - 1: _transfer_matrix(q_matrices(kk)[1], kk, d)}
        for s in range(kk - 1, 2, -1):
            a[s - 1] = _transfer_matrix(q_matrices(s)[0], s, d) @ _gram(s, d) @ a[s]
        u[kk] = np.zeros((kk * (kk - 1) // 2 - 1, kk), dtype=complex)
        for l in range(2, kk):
            v = u[l] @ _gram(l, d)
            if l > 2:
                v = np.vstack([v, np.eye(l)])
            c = comb(kk, l) * eps ** (kk - l)
            u[kk][:len(v)] += c * v @ a[l]
    return u[k], [(m, b) for m in range(2, max(k, 3)) for b in range(m)]
