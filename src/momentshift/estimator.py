"""Finite-shot Monte Carlo simulation of protocol execution.

Shot randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit
mix/increment generator) used in counter mode: the stream for shot ``i`` of a
run seeded ``s`` starts from state ``scramble(s) + i`` and emits uniforms by
stepping the golden-ratio increment.  Streams are therefore a pure function
of ``(seed, shot_index)``, the same bits in any blocking.  A uniform is
``u = (w >> 11) 2^-53`` of a 64-bit word w, and ``u >= c`` iff
``w >> 11 >= t = ceil(c 2^53)``, the integer threshold of a cumulative
probability c.  For 1 <= t < 2^53 that holds iff ``w > t 2^11 - 1``, so
sampling compares raw words and shifts none; every word meets t = 0, and none
meets t >= 2^53 (a cumulative probability at or above 1 before the last
outcome).

Words are made a block at a time: at most ``_BLOCK`` (16,384) shots of one
run, or whole runs up to ``_BLOCK_WORDS`` (32,768) words, the shapes measured
fastest on one long run and on many 4,096-shot runs.

Every mode draws one outcome per shot from the first uniform of its stream,
and the realization picks the outcome law:

* a projective measure-and-prepare map with stored values draws an outcome m
  from tr[E_m sigma] and records its stored value;
* any other trace-preserving realization, a Kraus-form channel included, is
  applied, then H_k is measured.  The outcome law is linear in the map, so a
  Kraus channel's output gives the mixture over its branches of each
  branch's law, and no branch is drawn;
* a realization that is not trace preserving, such as the recursive
  retriever for k >= 3, fails the trace-preservation gate: evaluate it exactly.

H_k's outcomes cos(2 pi m/k) and their Born probabilities come from the k
traces tr[S_k^j X] (``protocols.output_traces``); no eigendecomposition of H_k
is computed.  A copy-cycle retriever reads them off the moments of one noisy
copy, so sampling it builds no k-copy state.

A run checks its shot count and the sampling gates (trace preservation, then
the state dimension), then takes its distribution: the outcome values and the
integer thresholds of their cumulative probabilities.  ``_distribution`` is
the one place that picks the mode; ``run_choi_map`` takes the H_k-of-output
distribution of its generic mode whatever the realization.  Building the
noisy k-copy state checks the memory budget, and a distribution whose
probabilities are all 0, or an H_k probability below -``SAMPLING_TP_TOL``, is
refused.  ``_run`` then counts the shots and builds the ``EstimationRun``.  A
caller that repeats runs of one fixed set-up, such as
``hubbard.fig4_experiment``, builds the distribution once and reads every
trial's ``zeta_bar`` off ``_run_means``.

A run keeps only its outcome counts, a sufficient statistic of ``zeta_bar``:
each block of shots is tallied (its words above each raw threshold, counted a
row at a time) and dropped, so any shot count needs one block of memory.  The
JSON and CSV records rebuild every shot's outcome from the seed, a block at a
time, with the comparison step ``_outcome_index``.

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
from .operators import Operator
from .protocols import (SAMPLING_TP_TOL, MeasurePrepare, RetrievalProtocol, is_trace_preserving,
                        output_traces)

_MASK = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_BLOCK = 1 << 14        # shots of one run per sampling block
_BLOCK_WORDS = 1 << 15  # words per block of whole runs: a uint64 buffer of 256 KB
_NEVER = np.uint64(_MASK)  # a raw-word threshold that no word exceeds


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64's output mix of every entry of a uint64 array, in place."""
    tmp = np.empty_like(z) if tmp is None else tmp
    z ^= np.right_shift(z, 30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _scrambled(x) -> np.ndarray:
    """mix(x + golden) of every integer in x, taken mod 2^64: anything NumPy holds as
    an integer dtype is cast directly, anything else passes through Python ints,
    which may exceed 64 bits."""
    z = (np.atleast_1d(x) if np.asarray(x).dtype.kind in "iu"
         else np.array(x, dtype=object, ndmin=1) & _MASK)
    return _mix(z.astype(np.uint64) + np.uint64(_GOLDEN))


def _word_blocks(seeds, shots: int, draws: int):
    """Yield ``(r, cs, words)`` per block, whole runs of at most ``_BLOCK_WORDS`` words or
    at most ``_BLOCK`` shots of one run, in reused buffers: ``words[n][i, j]`` is the raw
    SplitMix64 output mix(scramble(seed) + shot + (n + 1) golden) of shot cs.start + j
    of run r + i."""
    cols = min(shots, _BLOCK)
    steps = np.arange(1, draws + 1, dtype=np.uint64) * np.uint64(_GOLDEN)  # mod 2^64
    bases = np.add.outer(steps, _scrambled(seeds))[..., None]  # [draw, run, 1]
    runs = bases.shape[1]
    rows = min(max(1, _BLOCK_WORDS // cols), runs)
    ramp = np.arange(cols, dtype=np.uint64)
    bufs = [np.empty(rows * cols, dtype=np.uint64) for _ in range(draws + 1)]
    shape = None
    for r in range(0, runs, rows):
        for start in range(0, shots, cols):
            nr, nc = min(rows, runs - r), min(cols, shots - start)
            if shape != (nr, nc):
                shape = (nr, nc)
                *words, tmp = (buf[:nr * nc].reshape(shape) for buf in bufs)
            first = bases[:, r:r + nr] + np.uint64(start)
            for n, z in enumerate(words):
                _mix(np.add(first[n], ramp[:nc], out=z), tmp)
            yield r, slice(start, start + nc), words


def shot_uniforms(seed: int, shots: int, draws: int) -> np.ndarray:
    """(shots, draws) array of uniforms; row i depends only on (seed, i)."""
    out = np.empty((shots, draws))
    for _, cs, words in _word_blocks([seed], shots, draws):
        for n, w in enumerate(words):
            w >>= 11
            np.multiply(w[0], 2.0 ** -53, out=out[cs, n])
    return out


def derive_seed(seed: int, *indices):
    """Deterministic sub-seed for independent trials/streams: an int for integer
    indices; index arrays broadcast to an array of sub-seeds, made in one pass."""
    s = _scrambled(seed)
    for ix in indices:
        s = _mix(s ^ (_scrambled(ix) + np.uint64(_GOLDEN)))
    return s if any(np.ndim(ix) for ix in indices) else s.item()


def plan_shots(delta: float, fail_prob: float, f: float) -> int:
    """Minimal shot count with |estimate - truth| <= delta at confidence 1 - fail_prob.

    Hoeffding bound for outcomes in [-1, 1], scaled by the overhead f:
    shots >= f^2 * (2/delta^2) * ln(2/fail_prob), natural logarithm.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta:g}")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("failure probability must be in (0, 1)")
    if not f > 0:
        raise ValueError("overhead must be positive")
    try:
        return math.ceil(f * f * (2.0 / delta ** 2) * math.log(2.0 / fail_prob))
    except (ZeroDivisionError, OverflowError):  # delta^2 underflows to 0 or the count to inf
        raise ValueError(f"delta={delta:g} at overhead f={f:g} needs more shots than a "
                         "float can count") from None


@dataclass(frozen=True)
class EstimationRun:
    """A run's outcome counts and what it drew them with; no per-shot array is kept,
    the record writers rebuild each shot from ``seed`` and ``thresholds``."""
    seed: int
    shots: int
    counts: np.ndarray           # shots per outcome
    values: np.ndarray           # outcome values, each in [-1, 1]
    thresholds: np.ndarray       # uint64 ceil(c 2^53) of each cumulative probability c but the last
    zeta_bar: float
    estimate: float              # f * zeta_bar - t
    protocol_ref: str


def _zeta_bar(counts: np.ndarray, values: np.ndarray, shots: int) -> np.ndarray:
    """Mean outcome value of each run from its outcome counts (the last axis)."""
    return (counts * values).sum(-1) / shots


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
    return _normalized(np.clip(probs, 0.0, None))


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Each row of weights over its sum; a row whose weights are all 0 is NaN."""
    total = weights.sum(axis=-1, keepdims=True)
    return weights / np.where(total > 0, total, np.nan)  # 0 / NaN is NaN, with no 0/0 warning


def _thresholds(cumulative: np.ndarray) -> np.ndarray:
    """Integer thresholds ceil(c 2^53) of the cumulative probabilities c but the last;
    NaN ones, from probabilities that were all 0, are refused."""
    if np.isnan(cumulative).any():
        raise ValueError("degenerate outcome distribution: every outcome has probability 0")
    return np.ceil(cumulative[:-1] * 2.0 ** 53).clip(0).astype(np.uint64)


def _strict(thresholds: np.ndarray) -> np.ndarray:
    """Raw-word forms s of integer thresholds t, so that no word is shifted: for
    1 <= t < 2^53, ``w >> 11 >= t`` iff ``w > s = t 2^11 - 1``.  A t >= 2^53 (a cumulative
    probability at or above 1 before the last outcome), which no word meets, and a t = 0,
    which every word meets and callers count apart, both give 2^64 - 1, which no word
    exceeds."""
    return (np.minimum(thresholds, np.uint64(2 ** 53)) << np.uint64(11)) - np.uint64(1)


def _comparisons(thresholds: np.ndarray) -> tuple:
    """What ``_outcome_index`` compares for integer thresholds: the count of thresholds 0
    and the ``_strict`` forms that some word can exceed."""
    return int((thresholds == 0).sum()), [s for s in _strict(thresholds) if s != _NEVER]


def _outcome_index(words: np.ndarray, comparisons: tuple, out: np.ndarray,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """The comparison step: out = number of thresholds ``t`` with ``words >> 11 >= t``,
    i.e. ``searchsorted(c, (words >> 11) 2^-53, side="right")`` below m, from raw words and
    the thresholds' ``_comparisons``.  Each pass compares into the boolean ``mask`` and
    adds it to ``out``."""
    mask = np.empty(words.shape, bool) if mask is None else mask
    at_zero, strict = comparisons
    out[...] = at_zero
    for s in strict:
        np.greater(words, s, out=mask)
        np.add(out, mask, out=out)
    return out


def _tally(thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Shots per outcome of one ``shots``-shot run per seed, a row each.  Each block's
    words are counted a row at a time, then dropped: column n counts the words at or above
    the n-th threshold; thresholds ascend, so a difference of columns counts an outcome."""
    counts = np.empty((len(seeds), len(thresholds) + 1), np.int64)
    counts[:, 0], counts[:, 1:] = shots, np.where(thresholds == 0, shots, 0)  # 0: every word
    passes = [(n, s) for n, s in enumerate(_strict(thresholds), 1) if s != _NEVER]
    buf = np.empty(_BLOCK_WORDS, bool)  # no block has more words
    for r, _, (w,) in _word_blocks(seeds, shots, 1):
        mask = buf[:w.size].reshape(w.shape)
        for n, s in passes:
            np.greater(w, s, out=mask)
            for i, row in enumerate(mask, r):
                counts[i, n] += np.count_nonzero(row)
    counts[:, :-1] -= counts[:, 1:]
    return counts


def _shot_blocks(thresholds: np.ndarray, shots: int, seed: int):
    """Yield ``(cs, outcome)``, the outcome indices of one run's shots ``cs``, a block at a
    time, rebuilt from its seed."""
    n = min(shots, _BLOCK)
    comparisons = _comparisons(thresholds)
    out, mask = np.empty((1, n), np.intp), np.empty((1, n), bool)
    for _, cs, (w,) in _word_blocks([seed], shots, 1):
        m = cs.stop - cs.start  # the last block is shorter
        yield cs, _outcome_index(w, comparisons, out[:, :m], mask[:, :m])[0]


def _run_means(values: np.ndarray, thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """``zeta_bar`` of a ``shots``-shot run per seed, bit-equal to ``_run``'s."""
    return _zeta_bar(_tally(thresholds, shots, seeds), values, shots)


def _output_distribution(p: RetrievalProtocol, rho: Operator, noise: Channel) -> tuple:
    """H_k's outcome values and the thresholds of their Born probabilities on the output of
    the realization, applied whatever its form."""
    traces = output_traces(p, rho, noise)
    return _h_spectrum(p.k)[0], _thresholds(np.cumsum(_h_distribution(traces, p.k)))


def _distribution(p: RetrievalProtocol, rho: Operator, noise: Channel) -> tuple:
    """The law the realization selects, as (values, thresholds): a measure-and-prepare map
    with stored values draws over them, any other realization over the H_k outcomes of its
    output."""
    r = p.realization
    if not (isinstance(r, MeasurePrepare) and r.values is not None):
        return _output_distribution(p, rho, noise)
    probs = np.clip(r.outcome_probabilities(noisy_copies(rho, noise, p.k).entries), 0.0, None)
    return np.asarray(r.values, dtype=float), _thresholds(np.cumsum(_normalized(probs)))


def _run(p: RetrievalProtocol, rho: Operator, noise: Channel, shots: int, seed: int,
         distribution) -> EstimationRun:
    """The shot count and sampling gates, then one run of ``shots`` draws from
    ``distribution(p, rho, noise)``."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if not is_trace_preserving(p.realization):
        raise ValueError("finite-shot simulation needs a trace-preserving retriever; "
                         "evaluate this one exactly (--exact)")
    if rho.dim != p.copy_dim:
        raise ValueError(f"state dim {rho.dim} != protocol copy dim {p.copy_dim}")
    values, thresholds = distribution(p, rho, noise)
    counts = _tally(thresholds, shots, [seed])[0]
    zeta_bar = float(_zeta_bar(counts, values, shots))
    return EstimationRun(seed=seed, shots=shots, counts=counts, values=values,
                         thresholds=thresholds, zeta_bar=zeta_bar,
                         estimate=p.f * zeta_bar - p.t, protocol_ref=p.label or p.kind)


def run_choi_map(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Apply the (trace-preserving) retriever, then measure H_k, whatever its realization."""
    return _run(p, rho, noise, shots, seed, _output_distribution)


def run_protocol(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Sample in the mode the realization selects; trace-preserving realizations only."""
    return _run(p, rho, noise, shots, seed, _distribution)


def renyi_entropy(moment_value: float, alpha: int) -> float:
    """Renyi entropy (1/(1-alpha)) log tr[rho^alpha] from a moment value."""
    if alpha < 2:
        raise ValueError("integer-order Renyi entropy needs alpha >= 2")
    if moment_value <= 0:
        raise ValueError("moment value must be positive")
    return math.log(moment_value) / (1.0 - alpha)


def run_to_csv(run: EstimationRun, path) -> None:
    """The run as CSV, one row per shot, rebuilt and written a block at a time."""
    table = np.array([f"{v:.12g}" for v in run.values], dtype=object)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shot_index", "outcome_index", "value"])
        for cs, outcome in _shot_blocks(run.thresholds, run.shots, run.seed):
            w.writerows(zip(range(cs.start, cs.stop), outcome.tolist(), table[outcome]))


def save_run(run: EstimationRun, path) -> None:
    """The run as one JSON object, its per-shot lists rebuilt and written a block at a time."""
    head = {"schema_version": 1, "seed": run.seed, "shots": run.shots, "zeta_bar": run.zeta_bar,
            "estimate": run.estimate, "protocol_ref": run.protocol_ref}
    tables = (("per_shot", map(repr, run.values.tolist())),
              ("outcome_indices", map(str, range(run.values.size))))
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1])  # without its closing brace
        for name, strings in tables:
            table = np.array(list(strings), dtype=object)
            fh.write(f', "{name}": [')
            for cs, outcome in _shot_blocks(run.thresholds, run.shots, run.seed):
                fh.write((", " if cs.start else "") + ", ".join(table[outcome]))
            fh.write("]")
        fh.write("}")
