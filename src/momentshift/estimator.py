"""Finite-shot Monte Carlo simulation of protocol execution.

Shot randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit
mix/increment generator) used in counter mode: the stream for shot ``i`` of a
run seeded ``s`` starts from state ``scramble(s) + i`` and emits uniforms by
stepping the golden-ratio increment.  Streams are therefore a pure function
of ``(seed, shot_index)``, the same bits in any blocking.  Sampling compares
each word's ``w >> 11`` with the integer thresholds ``ceil(c 2^53)`` of the
cumulative probabilities c: ``u = (w >> 11) 2^-53 >= c`` iff ``w >> 11 >= ceil(c 2^53)``.

The sampling mode follows from the protocol's realization, and each mode
has its own stream layout:

* a Kraus-form channel draws a Kraus index, then an H_k eigenvalue from the
  Born distribution of that branch (two uniforms per shot);
* a projective measure-and-prepare map draws an outcome m from tr[E_m sigma]
  and records its stored value (one uniform);
* any other trace-preserving realization is applied, then H_k is measured
  (one uniform);
* a realization that is not trace preserving, such as the recursive
  retriever for k >= 3, fails the trace-preservation gate: evaluate it exactly.

H_k's outcomes cos(2 pi m/k) and their Born probabilities come from the k
traces tr[S_k^j X] (``moments.cycle_traces``); no eigendecomposition is computed.

The measurement and the apply-then-measure modes run in two steps.  The
distribution step runs the sampling gates (trace preservation, the state
dimension and the memory budget of the noisy k-copy state) and returns the
outcome values with the integer thresholds of their cumulative probabilities;
it depends only on the protocol, the state and the noise, and refuses a
distribution whose probabilities are all 0, or an H_k probability below
-``SAMPLING_TP_TOL``.  The draw step turns it, a shot count and a seed into an
``EstimationRun``.  A caller that repeats runs of one fixed set-up, such as
``hubbard.fig4_experiment``, builds the distribution once and reads every
trial's ``zeta_bar`` off ``_run_means``.

Per-shot outcomes are eigenvalues of the moment observable or stored
per-outcome values, all in [-1, 1], which fixes the range constant in the
Hoeffding plan.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import Channel, noisy_copies
from .moments import cycle_traces
from .operators import Operator, check_memory
from .protocols import SAMPLING_TP_TOL, MeasurePrepare, RetrievalProtocol, is_trace_preserving

_MASK = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 1 << 14  # shots per sampling block: a uint64 scratch buffer is 128 KB


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64's output mix of every entry of a uint64 array, in place."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= np.uint64(mix)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _scrambled(x) -> np.ndarray:
    """mix(x + golden) of every integer in x, taken mod 2^64: anything NumPy holds as
    an integer dtype is cast directly, anything else passes through Python ints,
    which may exceed 64 bits."""
    z = (np.atleast_1d(x) if np.asarray(x).dtype.kind in "iu"
         else np.array(x, dtype=object, ndmin=1) & _MASK)
    return _mix(z.astype(np.uint64) + np.uint64(_GOLDEN))


def _word_blocks(seeds, shots: int, draws: int):
    """Yield ``(r, cs, words)`` per block of at most ``_BLOCK`` shots, whole runs or one
    run's shots, in reused buffers: ``words[n][i, j]`` is the SplitMix64 output of
    ``scramble(seed) + shot + (n + 1) golden``, >> 11, for shot cs.start + j of run r + i."""
    bases = _scrambled(seeds)
    cols = min(shots, _BLOCK)
    rows = min(_BLOCK // cols, bases.size)
    ramp = np.arange(cols, dtype=np.uint64)
    bufs = [np.empty(rows * cols, dtype=np.uint64) for _ in range(draws + 1)]
    for r in range(0, bases.size, rows):
        for c in range(0, shots, cols):
            nr, nc = min(rows, bases.size - r), min(cols, shots - c)
            words = [b[:nr * nc].reshape(nr, nc) for b in bufs]
            for n, z in enumerate(words[:-1], 1):
                np.add(bases[r:r + nr, None] + np.uint64((c + n * _GOLDEN) & _MASK),
                       ramp[:nc], out=z)
                _mix(z, words[-1])
                z >>= 11
            yield r, slice(c, c + nc), words[:-1]


def shot_uniforms(seed: int, shots: int, draws: int) -> np.ndarray:
    """(shots, draws) array of uniforms; row i depends only on (seed, i)."""
    out = np.empty((shots, draws))
    for _, cs, words in _word_blocks([seed], shots, draws):
        for n, w in enumerate(words):
            np.multiply(w[0], 2.0 ** -53, out=out[cs, n])
    return out


def derive_seed(seed: int, *indices):
    """Deterministic sub-seed for independent trials/streams: an int for integer
    indices; index arrays broadcast to an array of sub-seeds, made in one pass."""
    s = _scrambled(seed)
    for ix in indices:
        s = _mix(s ^ (_scrambled(ix) + np.uint64(_GOLDEN)))
    return s if any(np.ndim(ix) for ix in indices) else s.item()


@dataclass(frozen=True)
class SamplingPlan:
    delta: float
    fail_prob: float
    f: float
    shots: int


def plan_shots(delta: float, fail_prob: float, f: float) -> SamplingPlan:
    """Minimal shot count with |estimate - truth| <= delta at confidence 1 - fail_prob.

    Hoeffding bound for outcomes in [-1, 1], scaled by the overhead f:
    shots >= f^2 * (2/delta^2) * ln(2/fail_prob), natural logarithm.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("failure probability must be in (0, 1)")
    if not f > 0:
        raise ValueError("overhead must be positive")
    try:
        shots = math.ceil(f * f * (2.0 / delta ** 2) * math.log(2.0 / fail_prob))
    except (ZeroDivisionError, OverflowError):  # delta^2 underflows to 0 or the count to inf
        raise ValueError(f"delta={delta:g} at overhead f={f:g} needs more shots than a "
                         "float can count") from None
    return SamplingPlan(delta=delta, fail_prob=fail_prob, f=f, shots=shots)


@dataclass(frozen=True)
class EstimationRun:
    seed: int
    shots: int
    per_shot: np.ndarray         # outcome values, each in [-1, 1]
    outcome_indices: np.ndarray  # Kraus, measurement or H-eigenvalue index per shot
    zeta_bar: float
    estimate: float              # f * zeta_bar - t
    protocol_ref: str


def _finish_run(p: RetrievalProtocol, seed: int, values: np.ndarray,
                indices: np.ndarray) -> EstimationRun:
    zeta_bar = float(values.mean())
    return EstimationRun(seed=seed, shots=values.size, per_shot=values,
                         outcome_indices=indices, zeta_bar=zeta_bar,
                         estimate=p.f * zeta_bar - p.t,
                         protocol_ref=p.label or p.kind)


def _noisy_state(p: RetrievalProtocol, rho: Operator, noise: Channel) -> Operator:
    """The k-copy noisy input of a sampled protocol, after the sampling gates."""
    if not is_trace_preserving(p.realization):
        raise ValueError("finite-shot simulation needs a trace-preserving retriever; "
                         "evaluate this one exactly (--exact)")
    if rho.dim != p.copy_dim:
        raise ValueError(f"state dim {rho.dim} != protocol copy dim {p.copy_dim}")
    return noisy_copies(rho, noise, p.k)


@lru_cache(maxsize=None)
def _h_spectrum(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of H_k, ascending, and the weights reading their probabilities off S_k.

    H_k is cos(2 pi m/k), m = floor(k/2) .. 0, on the S_k eigenprojectors P_m + P_{k-m},
    P_m = (1/k) sum_j w^(jm) S_k^j, so outcome m has probability
    sum_j c_m cos(2 pi jm/k)/k tr[S_k^j X], c_m = 1 if m = k - m mod k, else 2.
    Cached per k; the arrays are read-only.
    """
    m = np.arange(k // 2, -1, -1)
    mult = np.where((m == 0) | (2 * m == k), 1.0, 2.0)
    weights = mult[:, None] * np.cos(2 * np.pi * np.outer(m, np.arange(k)) / k) / k
    out = (np.cos(2 * np.pi * m / k), weights)
    for a in out:
        a.flags.writeable = False
    return out


def _h_distribution(traces: np.ndarray, k: int) -> np.ndarray:
    """Born probabilities of H_k's outcomes from each state's traces tr[S_k^j X], rounding
    below 0 clipped; a row whose probabilities are all 0 is NaN."""
    probs = traces.real @ _h_spectrum(k)[1].T
    if probs.min() < -SAMPLING_TP_TOL:  # the retriever's output is no state
        raise ValueError(f"H_{k} outcome probability {probs.min():.3g} < 0: the retriever is "
                         "not positive, so it cannot be sampled; evaluate it exactly (--exact)")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1, keepdims=True)
    return probs / np.where(total > 0, total, np.nan)  # 0 / NaN is NaN, with no 0/0 warning


def _thresholds(cumulative: np.ndarray) -> np.ndarray:
    """Integer thresholds ceil(c 2^53), outcome axis first, of each row's cumulative
    probabilities c but the last; a NaN row, all of whose probabilities were 0, is refused."""
    if np.isnan(cumulative).any():
        raise ValueError("degenerate outcome distribution: every outcome has probability 0")
    return np.ceil(cumulative[..., :-1].T * 2.0 ** 53).clip(0).astype(np.uint64)


def _outcome_index(words: np.ndarray, thresholds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The comparison step: out = number of thresholds ``t`` (one, or one per word) with
    ``words >= t``, i.e. ``searchsorted(c, words 2^-53, side="right")`` below m."""
    out[...] = words >= thresholds[0] if len(thresholds) else 0
    for t in thresholds[1:]:
        out += words >= t
    return out


def _is_kraus(r) -> bool:
    return isinstance(r, Channel) and r.kraus is not None


def _is_measurement(r) -> bool:
    return isinstance(r, MeasurePrepare) and r.values is not None


def _draw(p: RetrievalProtocol, values: np.ndarray, thresholds: np.ndarray,
          shots: int, seed: int) -> EstimationRun:
    """One run of ``shots`` draws from a fixed outcome distribution."""
    check_memory(16 * shots, f"{shots} shots")  # outcome indices and values
    outcome = np.empty((1, shots), dtype=np.intp)
    for _, cs, (w,) in _word_blocks([seed], shots, 1):
        _outcome_index(w, thresholds, outcome[:, cs])
    return _finish_run(p, seed, values[outcome[0]], outcome[0])


def _run_means(values: np.ndarray, thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """``zeta_bar`` of one ``shots``-shot run per seed, bit-equal to ``_draw``'s."""
    zeta = np.empty(len(seeds))
    outcome = np.empty((max(1, _BLOCK // shots), shots), dtype=np.intp)
    per_shot = np.empty(outcome.shape)
    for r, cs, (w,) in _word_blocks(seeds, shots, 1):
        nr = len(w)
        _outcome_index(w, thresholds, outcome[:nr, cs])
        if cs.stop == shots:  # the block ends runs r .. r + nr - 1
            # indices are in range; take's default mode "raise" copies through a buffer
            np.take(values, outcome[:nr], out=per_shot[:nr], mode="clip")
            zeta[r:r + nr] = per_shot[:nr].mean(axis=1)
    return zeta


def run_mixed_unitary(p: RetrievalProtocol, rho: Operator, noise: Channel,
                      shots: int, seed: int) -> EstimationRun:
    """Sample a Kraus operator per shot, then an H-eigenvalue by Born probabilities."""
    check_memory(24 * shots, f"{shots} shots")  # Kraus and outcome indices, values
    r = p.realization
    if not _is_kraus(r):
        raise TypeError("protocol realization is not a Kraus-form channel")
    sigma = _noisy_state(p, rho, noise).entries
    values = _h_spectrum(p.k)[0]
    traces = cycle_traces(np.stack([e @ sigma @ e.conj().T for e in r.kraus]), p.k, p.copy_dim)
    weights = traces[:, 0].real  # tr[S_k^0 X] = tr X
    branch = _thresholds(np.cumsum(weights / weights.sum()))
    # a branch of weight 0, never drawn, has a NaN row: no word reaches 1, so outcome 0
    rows = _thresholds(np.nan_to_num(np.cumsum(_h_distribution(traces, p.k), axis=1), nan=1.0))
    j, outcome = np.empty((2, 1, shots), dtype=np.intp)
    for _, cs, (w1, w2) in _word_blocks([seed], shots, 2):
        _outcome_index(w2, rows[:, _outcome_index(w1, branch, j[:, cs])], outcome[:, cs])
    return _finish_run(p, seed, values[outcome[0]], j[0])


def _measurement_distribution(p: RetrievalProtocol, rho: Operator,
                              noise: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Stored values and thresholds of the measurement outcomes."""
    r = p.realization
    if not _is_measurement(r):
        raise TypeError("protocol realization is not a projective measurement")
    sigma = _noisy_state(p, rho, noise).entries
    probs = np.clip(r.outcome_probabilities(sigma), 0.0, None)
    return np.asarray(r.values, dtype=float), _thresholds(np.cumsum(probs / probs.sum()))


def run_measurement_based(p: RetrievalProtocol, rho: Operator, noise: Channel,
                          shots: int, seed: int) -> EstimationRun:
    """Sample a measurement outcome per shot; record its stored value."""
    return _draw(p, *_measurement_distribution(p, rho, noise), shots, seed)


def _choi_distribution(p: RetrievalProtocol, rho: Operator,
                       noise: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of H_k and the thresholds of their Born probabilities after the retriever."""
    out = p.realization.apply(_noisy_state(p, rho, noise).entries)
    traces = cycle_traces(out, p.k, p.copy_dim)
    return _h_spectrum(p.k)[0], _thresholds(np.cumsum(_h_distribution(traces, p.k)))


def run_choi_map(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Apply the (trace-preserving) retriever, then measure H."""
    return _draw(p, *_choi_distribution(p, rho, noise), shots, seed)


def run_protocol(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Sample in the mode the realization selects; trace-preserving realizations only."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if _is_kraus(p.realization):
        return run_mixed_unitary(p, rho, noise, shots, seed)
    if _is_measurement(p.realization):
        return run_measurement_based(p, rho, noise, shots, seed)
    return run_choi_map(p, rho, noise, shots, seed)


def renyi_entropy(moment_value: float, alpha: int) -> float:
    """Renyi entropy (1/(1-alpha)) log tr[rho^alpha] from a moment value."""
    if alpha < 2:
        raise ValueError("integer-order Renyi entropy needs alpha >= 2")
    if moment_value <= 0:
        raise ValueError("moment value must be positive")
    return math.log(moment_value) / (1.0 - alpha)


def run_to_csv(run: EstimationRun, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shot_index", "outcome_index", "value"])
        for i, (idx, val) in enumerate(zip(run.outcome_indices, run.per_shot)):
            w.writerow([i, int(idx), f"{val:.12g}"])


def save_run(run: EstimationRun, path) -> None:
    """The run as one JSON object, its per-shot lists written ``_BLOCK`` shots at a time."""
    head = {"schema_version": 1, "seed": run.seed, "shots": run.shots, "zeta_bar": run.zeta_bar,
            "estimate": run.estimate, "protocol_ref": run.protocol_ref}
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1])  # without its closing brace
        for name, a in (("per_shot", run.per_shot), ("outcome_indices", run.outcome_indices)):
            fh.write(f', "{name}": [')
            for i in range(0, a.size, _BLOCK):
                fh.write((", " if i else "") + ", ".join(map(repr, a[i:i + _BLOCK].tolist())))
            fh.write("]")
        fh.write("}")
