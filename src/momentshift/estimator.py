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

The sampling mode follows from the protocol's realization, and each mode
has its own stream layout:

* a Kraus-form channel draws a Kraus index, then an H_k eigenvalue from the
  Born distribution of that branch (two uniforms per shot); a run makes a
  shot's branch uniform only where the branch can change its outcome;
* a projective measure-and-prepare map draws an outcome m from tr[E_m sigma]
  and records its stored value (one uniform);
* any other trace-preserving realization is applied, then H_k is measured
  (one uniform);
* a realization that is not trace preserving, such as the recursive
  retriever for k >= 3, fails the trace-preservation gate: evaluate it exactly.

H_k's outcomes cos(2 pi m/k) and their Born probabilities come from the k
traces tr[S_k^j X] (``protocols.output_traces``); no eigendecomposition of H_k
is computed.  A copy-cycle retriever reads them off the moments of one noisy
copy, so sampling it builds no k-copy state.

Every run takes two steps.  The distribution step (``_distribution``) is the one
place that picks the mode: it runs the sampling gates (trace preservation, then
the state dimension; building the noisy k-copy state checks the memory budget)
and returns the outcome values with the integer thresholds of their cumulative
probabilities, one array, or a Kraus channel's branch thresholds and its H_k
outcome rows.  It depends only on the protocol, the state and the noise, and
refuses a distribution whose probabilities are all 0, or an H_k probability
below -``SAMPLING_TP_TOL``.  The draw step (``run_protocol``) turns it, a shot
count and a seed into an ``EstimationRun``.  A caller that repeats runs of one
fixed set-up, such as ``hubbard.fig4_experiment``, builds the distribution
once and reads every trial's ``zeta_bar`` off ``_run_means``.

A run keeps only its outcome counts, a sufficient statistic of ``zeta_bar``:
each block of shots is tallied (its words above each raw threshold, counted a
row at a time) and dropped, so any shot count needs one block of memory.  A
Kraus run tallies its outcome words against each outcome threshold's largest
value over the branches, and draws the branch of a shot only when its word
lies between that threshold's smallest and largest value (``_kraus_tally``).
The JSON and CSV records rebuild every shot, branch included, from the seed,
a block at a time.

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


def _word_blocks(seeds, shots: int, draws: int, first: int = 1):
    """Yield ``(r, cs, words)`` per block, whole runs of at most ``_BLOCK_WORDS`` words or
    at most ``_BLOCK`` shots of one run, in reused buffers: ``words[n][i, j]`` is the raw
    SplitMix64 output mix(scramble(seed) + shot + (first + n) golden) of shot cs.start + j
    of run r + i."""
    cols = min(shots, _BLOCK)
    steps = np.arange(first, first + draws, dtype=np.uint64) * np.uint64(_GOLDEN)  # mod 2^64
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


def _shot_words(shots: np.ndarray, base: np.ndarray, tmp: np.ndarray | None = None):
    """The raw words mix(base + shot) of the given ``uint64`` shot indices alone, made in
    place; ``base`` = scramble(seed) + draw golden picks the run and the draw."""
    shots += base  # wraps mod 2^64
    return _mix(shots, tmp)


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
    thresholds: tuple            # per uniform a shot draws: outcome, or branch then outcome rows
    zeta_bar: float
    estimate: float              # f * zeta_bar - t
    protocol_ref: str


def _zeta_bar(counts: np.ndarray, values: np.ndarray, shots: int) -> np.ndarray:
    """Mean outcome value of each run from its outcome counts (the last axis)."""
    return (counts * values).sum(-1) / shots


def _finish_run(p: RetrievalProtocol, seed: int, shots: int, counts: np.ndarray,
                values: np.ndarray, thresholds: tuple) -> EstimationRun:
    zeta_bar = float(_zeta_bar(counts, values, shots))
    return EstimationRun(seed=seed, shots=shots, counts=counts, values=values,
                         thresholds=thresholds, zeta_bar=zeta_bar,
                         estimate=p.f * zeta_bar - p.t, protocol_ref=p.label or p.kind)


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
    """Integer thresholds ceil(c 2^53), outcome axis first, of each row's cumulative
    probabilities c but the last; a NaN row, all of whose probabilities were 0, is refused."""
    if np.isnan(cumulative).any():
        raise ValueError("degenerate outcome distribution: every outcome has probability 0")
    return np.ceil(cumulative[..., :-1].T * 2.0 ** 53).clip(0).astype(np.uint64)


def _strict(thresholds: np.ndarray) -> np.ndarray:
    """Raw-word forms s of integer thresholds t, so that no word is shifted: for
    1 <= t < 2^53, ``w >> 11 >= t`` iff ``w > s = t 2^11 - 1``.  A t >= 2^53 (a cumulative
    probability at or above 1 before the last outcome), which no word meets, and a t = 0,
    which every word meets and callers count apart, both give 2^64 - 1, which no word
    exceeds."""
    return (np.minimum(thresholds, np.uint64(2 ** 53)) << np.uint64(11)) - np.uint64(1)


def _comparisons(thresholds: np.ndarray, dtype) -> tuple:
    """What ``_outcome_index`` compares for integer thresholds (one array, or one row over
    the branches per threshold): the count of thresholds 0, per branch for rows, as
    ``dtype``, and the ``_strict`` forms that some word can exceed."""
    return ((thresholds == 0).sum(axis=0).astype(dtype),
            [s for s in _strict(thresholds) if (s != _NEVER).any()])


def _outcome_index(words: np.ndarray, comparisons: tuple, out: np.ndarray,
                   branch: np.ndarray | None = None, scratch: tuple | None = None) -> np.ndarray:
    """The comparison step: out = number of thresholds ``t`` (one, or one per word) with
    ``words >> 11 >= t``, i.e. ``searchsorted(c, (words >> 11) 2^-53, side="right")`` below
    m, from raw words and the thresholds' ``_comparisons``.  With ``branch``, each threshold
    is a row read at every word's branch index.  Each pass compares into a boolean mask and
    adds it to ``out``, which may be ``uint8`` for at most 255 thresholds; ``scratch`` holds
    the mask and gathered-threshold buffers."""
    mask, per_word = scratch or (np.empty(words.shape, bool), np.empty(words.shape, np.uint64))
    at_zero, strict = comparisons
    if branch is None:
        out[...] = at_zero
    else:
        np.take(at_zero, branch, out=out, mode="clip")
    for s in strict:
        if branch is not None:
            s = np.take(s, branch, out=per_word, mode="clip")
        np.greater(words, s, out=mask)
        np.add(out, mask, out=out)
    return out


def _tally(thresholds: np.ndarray, shots: int, seeds, draw: int = 1,
           recount=None) -> np.ndarray:
    """Shots per outcome of one ``shots``-shot run per seed, a row each, from the words of
    draw ``draw``.  Each block's words are counted a row at a time, then dropped: column n
    counts the words at or above the n-th threshold; thresholds ascend, so a difference of
    columns counts an outcome.  ``recount(cs, words)``, if given, sees each block's words
    (of a one-run tally) before they are dropped."""
    counts = np.empty((len(seeds), len(thresholds) + 1), np.int64)
    counts[:, 0], counts[:, 1:] = shots, np.where(thresholds == 0, shots, 0)  # 0: every word
    passes = [(n, s) for n, s in enumerate(_strict(thresholds), 1) if s != _NEVER]
    buf = np.empty(_BLOCK_WORDS, bool)  # no block has more words
    for r, cs, (w,) in _word_blocks(seeds, shots, 1, draw):
        mask = buf[:w.size].reshape(w.shape)
        for n, s in passes:
            np.greater(w, s, out=mask)
            for i, row in enumerate(mask, r):
                counts[i, n] += np.count_nonzero(row)
        if recount is not None:
            recount(cs, w[0])
    counts[:, :-1] -= counts[:, 1:]
    return counts


def _index_dtype(thresholds: np.ndarray):
    """The dtype an outcome index over ``thresholds`` is counted in: ``uint8`` up to 255."""
    return np.uint8 if len(thresholds) <= 255 else np.intp


def _kraus_tally(thresholds: tuple, shots: int, seed: int) -> np.ndarray:
    """Shots per outcome of one Kraus run, the outcomes ``_shot_blocks`` reads, without
    drawing the branch of a shot whose branch cannot change its outcome.

    Over the branches some word draws, the n-th outcome threshold lies in [lo_n, hi_n]: an
    outcome word that meets hi_n meets it whatever the branch, one that misses lo_n misses
    it for every branch.  So the outcome words alone are tallied against hi (``_tally`` on
    draw 2), and only the shots in a window, whose word meets lo_n but not hi_n, get their
    branch word (draw 1): those that meet their branch's threshold move up one outcome.  A
    run whose rows coincide has no window and makes no branch word."""
    branch, rows = thresholds
    top = np.uint64(2 ** 53)  # thresholds at or above it are met by no word
    cut = np.minimum(np.append(branch, top), top)  # branch j: the words in [cut[j-1], cut[j])
    drawn = np.minimum(rows[:, cut > np.append(np.uint64(0), cut[:-1])], top)
    lo, hi = drawn.min(axis=1), drawn.max(axis=1)
    # window n holds the words w with lo_n 2^11 <= w < hi_n 2^11, i.e. w - lo_n 2^11 <= span;
    # such a w meets a threshold t in [lo_n, hi_n] iff w >> 1 >= t 2^10, which is below 2^64
    windows = [(n, np.uint64(a << 11), np.uint64(((b - a) << 11) - 1),
                np.minimum(rows[n], top) << np.uint64(10))
               for n, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())) if a < b]
    if not windows:
        return _tally(hi, shots, [seed], 2)[0]
    picks = _comparisons(branch, _index_dtype(branch))
    size = min(shots, _BLOCK)
    fix, ramp = np.zeros(len(hi), np.int64), np.arange(size, dtype=np.uint64)
    base = _scrambled(seed) + np.uint64(_GOLDEN)  # branch words are draw 1
    bufs = [np.empty(size, d) for d in (bool, bool, np.uint64, np.uint64, np.uint64,
                                        _index_dtype(branch))]

    def recount(cs: slice, w: np.ndarray) -> None:
        inside, mask, off, halves, tmp, j = (b[:w.size] for b in bufs)
        for i, (_, low, span, _) in enumerate(windows):
            np.subtract(w, low, out=off)  # wraps below low
            if i:
                inside |= np.less_equal(off, span, out=mask)
            else:
                np.less_equal(off, span, out=inside)
        k = np.count_nonzero(inside)
        if k < w.size:  # gather the window's shots, unless it holds them all
            if not k:
                return
            at = np.flatnonzero(inside)
            inside, mask, off, halves, tmp, j = (b[:k] for b in bufs)
            off[...] = at
            w = np.take(w, at, out=halves, mode="clip")
        else:
            off[...] = ramp[:k]
        np.right_shift(w, np.uint64(1), out=halves)
        _shot_words(off, base + np.uint64(cs.start), tmp)
        _outcome_index(off, picks, j, scratch=(mask, tmp))
        for n, low, span, met_at in windows:
            met = np.greater_equal(halves, np.take(met_at, j, out=tmp, mode="clip"), out=mask)
            if len(windows) > 1:  # only this window's shots, the others' are clear here
                np.subtract(halves, low >> np.uint64(1), out=tmp)
                met &= np.less_equal(tmp, span >> np.uint64(1), out=inside)
            fix[n] += np.count_nonzero(met)

    counts = _tally(hi, shots, [seed], 2, recount)[0]
    counts[:-1] -= fix  # a window shot that meets its branch's threshold moves up one outcome
    counts[1:] += fix
    return counts


def _shot_blocks(thresholds: tuple, shots: int, seed: int):
    """Yield ``(cs, recorded, outcome)`` index arrays of one run's shots ``cs``, a block at a
    time, rebuilt from its seed; ``recorded`` is a Kraus run's branch, else the outcome."""
    n = min(shots, _BLOCK)
    dtypes = [_index_dtype(t) for t in thresholds]
    comparisons = [_comparisons(t, d) for t, d in zip(thresholds, dtypes)]
    bufs = [np.empty((1, n), dtype=d) for d in dtypes] + [np.empty((1, n), bool),
                                                          np.empty((1, n), np.uint64)]
    for _, cs, words in _word_blocks([seed], shots, len(thresholds)):
        if cs.stop - cs.start < n:  # the last block is shorter
            bufs = [b[:, :cs.stop - cs.start] for b in bufs]
        *out, mask, per_word = bufs
        _outcome_index(words[0], comparisons[0], out[0], scratch=(mask, per_word))
        if len(words) > 1:  # a Kraus run: the outcome row of each shot's branch
            _outcome_index(words[1], comparisons[1], out[1], out[0], (mask, per_word))
        yield cs, out[0][0], out[-1][0]


def _draw(p: RetrievalProtocol, values: np.ndarray, thresholds: np.ndarray,
          shots: int, seed: int) -> EstimationRun:
    """One run of ``shots`` draws from a fixed outcome distribution."""
    counts = _tally(thresholds, shots, [seed])[0]
    return _finish_run(p, seed, shots, counts, values, (thresholds,))


def _run_means(values: np.ndarray, thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """``zeta_bar`` of one ``shots``-shot run per seed, bit-equal to ``_draw``'s."""
    return _zeta_bar(_tally(thresholds, shots, seeds), values, shots)


def _distribution(p: RetrievalProtocol, rho: Operator, noise: Channel,
                  h_of_output: bool = False) -> tuple[np.ndarray, np.ndarray | tuple]:
    """The sampling gates, then the draw the realization selects, as (values, thresholds):
    a measure-and-prepare map with stored values gives one threshold array over them, a
    Kraus channel the pair (branch thresholds, one H_k outcome row per branch), and any
    other realization, or any with ``h_of_output``, one threshold array over the H_k
    outcomes of its output."""
    r = p.realization
    if not is_trace_preserving(r):
        raise ValueError("finite-shot simulation needs a trace-preserving retriever; "
                         "evaluate this one exactly (--exact)")
    if rho.dim != p.copy_dim:
        raise ValueError(f"state dim {rho.dim} != protocol copy dim {p.copy_dim}")
    kraus = isinstance(r, Channel) and r.kraus is not None
    measured = isinstance(r, MeasurePrepare) and r.values is not None
    values = _h_spectrum(p.k)[0]
    if h_of_output or not (kraus or measured):
        return values, _thresholds(np.cumsum(_h_distribution(output_traces(p, rho, noise), p.k)))
    sigma = noisy_copies(rho, noise, p.k).entries
    if measured:
        probs = np.clip(r.outcome_probabilities(sigma), 0.0, None)
        return np.asarray(r.values, dtype=float), _thresholds(np.cumsum(_normalized(probs)))
    traces = cycle_traces(np.stack([e @ sigma @ e.conj().T for e in r.kraus]), p.k, p.copy_dim)
    # a branch of weight 0, never drawn, has a NaN row: no word reaches 1, so outcome 0
    rows = _thresholds(np.nan_to_num(np.cumsum(_h_distribution(traces, p.k), axis=1), nan=1.0))
    return values, (_thresholds(np.cumsum(_normalized(traces[:, 0].real))), rows)  # weight tr X


def run_choi_map(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Apply the (trace-preserving) retriever, then measure H_k, whatever its realization."""
    return _draw(p, *_distribution(p, rho, noise, h_of_output=True), shots, seed)


def run_protocol(p: RetrievalProtocol, rho: Operator, noise: Channel,
                 shots: int, seed: int) -> EstimationRun:
    """Sample in the mode the realization selects; trace-preserving realizations only.
    A Kraus run draws a branch, then an H_k outcome from that branch's row."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    values, thresholds = _distribution(p, rho, noise)
    if not isinstance(thresholds, tuple):
        return _draw(p, values, thresholds, shots, seed)
    return _finish_run(p, seed, shots, _kraus_tally(thresholds, shots, seed), values,
                       thresholds)


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
        for cs, recorded, outcome in _shot_blocks(run.thresholds, run.shots, run.seed):
            w.writerows(zip(range(cs.start, cs.stop), recorded.tolist(), table[outcome]))


def save_run(run: EstimationRun, path) -> None:
    """The run as one JSON object, its per-shot lists rebuilt and written a block at a time."""
    head = {"schema_version": 1, "seed": run.seed, "shots": run.shots, "zeta_bar": run.zeta_bar,
            "estimate": run.estimate, "protocol_ref": run.protocol_ref}
    tables = (("per_shot", 2, map(repr, run.values.tolist())),
              ("outcome_indices", 1, map(str, range(len(run.thresholds[0]) + 1))))
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1])  # without its closing brace
        for name, pick, strings in tables:
            table = np.array(list(strings), dtype=object)
            fh.write(f', "{name}": [')
            for block in _shot_blocks(run.thresholds, run.shots, run.seed):
                fh.write((", " if block[0].start else "") + ", ".join(table[block[pick]]))
            fh.write("]")
        fh.write("}")
