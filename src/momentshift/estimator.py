"""Finite-shot Monte Carlo simulation of protocol execution.

Shot randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit
mix/increment generator) in counter mode, sliced so that one mixed word serves
eight shots.  Shot i of a run seeded s draws the 53-bit integer
``U = top 2^45 + tail``: ``top`` is byte i mod 8 (little-endian) of the
top-stream word ``mix(scramble(s) + golden + floor(i/8))``, and ``tail`` is
``mix(scramble(s) + 2 golden + i) >> 19``.  Its uniform is ``U 2^-53``, and
``U 2^-53 >= c`` iff ``U >= t = ceil(c 2^53)``, the integer threshold of a
cumulative probability c.  A shot whose top byte is above ``t >> 45`` meets
t, and one below it does not; only a shot whose top byte ties it, about one
in 256 per threshold, mixes its tail, and a t whose low 45 bits are 0 has no
tie.  Every shot meets t = 0, and none meets t >= 2^53 (a cumulative
probability at or above 1 before the last outcome).  So each shot's outcome
is a pure function of ``(seed, shot_index)``: the same in any blocking, and a
run's first shots are those of any longer run.

Top bytes are made a block at a time: at most ``_BLOCK`` (262,144) shots, of
one run or of whole runs.  Median ``_tally`` time in microseconds by block
size, in-process, on 2 cores with numpy 2.4.6:

    runs x shots                        2^16   2^17   2^18   2^19
    1 x 112,449                          193    152    154    152
    1 x 170,000                          273    247    207    207
    60 x 4,096 (hubbard-demo)            374    306    271    272
    60 x 4,096, three thresholds         702    597    521    524

2^18 is the smallest size that holds each of these in one block; 2^19 does
the same work on them with buffers twice as large.

Every mode draws one outcome per shot from its uniform, and the realization
picks the outcome law:

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
``hubbard.fig4_experiment``, builds each distribution once and reads every
trial's ``zeta_bar`` off ``_run_means``.  ``_distributions`` builds several
protocols' distributions on one state and noise: it applies the noise and
takes the noisy copy's moments once for all the copy-cycle protocols, and
hands every other realization to ``_distribution``.

A run keeps only its outcome counts, a sufficient statistic of ``zeta_bar``:
each block of shots is tallied (its top bytes above each threshold's, counted
a row at a time, then its ties' tails) and dropped, so any shot count needs
one block of memory.  The JSON and CSV records rebuild every shot's outcome
from the seed, a block at a time, with the comparison step ``_outcome_index``.

Per-shot outcomes are eigenvalues of the moment observable or stored
per-outcome values, all in [-1, 1], which fixes the range constant in the
Hoeffding plan.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .channels import Channel, apply, noisy_copies
from .moments import power_traces
from .operators import Operator
from .protocols import (SAMPLING_TP_TOL, CycleMap, MeasurePrepare, RetrievalProtocol,
                        is_trace_preserving, output_traces)

_MASK = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SLICES = 8       # shots per top-stream word, a byte each
_TAIL = 45        # bits of a shot's uniform below its top byte
_BLOCK = 1 << 18  # shots per sampling block, of one run or of whole runs
_MAX_SHOTS = 2 ** 63 - 1  # the largest count an int64 holds


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


def _tails(first: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The 45-bit tails mix(c + j) >> 19 of the shots at rows i, columns j of a block whose
    rows' first tail-stream counters are ``first``."""
    return _mix(first[i] + j.astype(np.uint64)) >> np.uint64(64 - _TAIL)


def _top_blocks(seeds, shots: int):
    """Yield ``(r, cs, top, tails, masks)`` per block of at most ``_BLOCK`` shots, whole
    runs or part of one, in reused buffers: ``top[i, j]`` is the top byte of shot
    cs.start + j of run r + i, ``tails(i, j)`` the tails of the shots at index arrays i, j,
    and ``masks`` two boolean scratch arrays of top's shape.  Rows of ``top`` hold whole
    top-stream words, so columns from ``cs.stop - cs.start`` on are past the block's
    shots."""
    cols = min(shots, _BLOCK)  # a multiple of 8 where a run spans blocks
    scrambled = _scrambled(seeds)[:, None]
    runs = scrambled.size
    span = -(-cols // _SLICES)  # top-stream words per row
    rows = min(max(1, _BLOCK // (span * _SLICES)), runs)
    ramp = np.arange(span, dtype=np.uint64)
    words, tmp = np.empty(rows * span, np.uint64), np.empty(rows * span, np.uint64)
    flags = np.empty(2 * rows * span * _SLICES, bool)
    for r in range(0, runs, rows):
        nr = min(rows, runs - r)
        for start in range(0, shots, cols):
            nw = -(-min(cols, shots - start) // _SLICES)
            first = scrambled[r:r + nr]
            w = np.add(first + np.uint64(_GOLDEN + start // _SLICES), ramp[:nw],
                       out=words[:nr * nw].reshape(nr, nw))
            _mix(w, tmp[:nr * nw].reshape(nr, nw))
            top = w.astype("<u8", copy=False).view(np.uint8)  # byte i mod 8 of word i/8
            yield (r, slice(start, min(start + cols, shots)), top,
                   partial(_tails, first[:, 0] + np.uint64((2 * _GOLDEN + start) & _MASK)),
                   flags[:2 * top.size].reshape(2, *top.shape))


def shot_uniforms(seed: int, shots: int) -> np.ndarray:
    """Every shot's uniform U 2^-53; entry i depends only on (seed, i)."""
    out = np.empty(shots)
    for _, cs, top, tails, _ in _top_blocks([seed], shots):
        j = np.arange(cs.stop - cs.start)
        u = top[0, j].astype(np.uint64) << np.uint64(_TAIL) | tails(np.zeros_like(j), j)
        np.multiply(u, 2.0 ** -53, out=out[cs])
    return out


def _check_shots(shots: int) -> None:
    """Refuse a shot count below 1 or above 2^63 - 1, the largest that a count holds."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most 2^63 - 1 = {_MAX_SHOTS}, got {shots}")


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


def _passes(thresholds: np.ndarray) -> tuple:
    """How shots meet integer thresholds t, ``U >= t``: the count of thresholds 0, which
    every shot meets, and a pass ``(n, g, low)`` per n-th threshold 1 <= t < 2^53.  A shot
    meets t if its top byte is above g = t >> 45, or, when t's low 45 bits ``low`` are not
    0, if its top byte ties g and its tail is at least ``low``; with ``low`` 0, g is
    (t >> 45) - 1 and there is no tie.  No shot meets a t >= 2^53 (a cumulative probability
    at or above 1 before the last outcome), which gets no pass."""
    ts = thresholds.tolist()
    passes = []
    for n, t in enumerate(ts, 1):
        if 0 < t < 2 ** 53:
            g, low = t >> _TAIL, t & (2 ** _TAIL - 1)
            passes.append((n, g, low) if low else (n, g - 1, 0))
    return ts.count(0), passes


def _tie_hits(top: np.ndarray, end: int, tails, masks: np.ndarray, passes: list) -> list:
    """``(n, i, j)`` per pass with a tie: the rows i and columns j below ``end`` of the
    block's shots whose top byte ties the pass and whose tail meets it.  The ties of every
    pass are found in one search of the first of ``masks``, and only their tails are
    mixed."""
    tied = [(n, g, low) for n, g, low in passes if low]
    if not tied:
        return []
    mask, eq = masks
    np.equal(top, tied[0][1], out=mask)
    for _, g, _ in tied[1:]:
        mask |= np.equal(top, g, out=eq)
    mask[:, end:] = False
    if not mask.any():  # far cheaper than the search
        return []
    i, j = np.divmod(np.flatnonzero(mask), top.shape[1])
    byte, tail = top[i, j], tails(i, j)
    return [(n, i[hit], j[hit]) for n, g, low in tied
            for hit in [(byte == g) & (tail >= np.uint64(low))]]


def _outcome_index(top: np.ndarray, tails, masks: np.ndarray, comparisons: tuple,
                   out: np.ndarray) -> np.ndarray:
    """The comparison step: out = number of thresholds ``t`` with ``U >= t``, i.e.
    ``searchsorted(c, U 2^-53, side="right")`` below m, from the block's top bytes, the
    tails of its ties and the thresholds' ``_passes``."""
    at_zero, passes = comparisons
    out[...] = at_zero
    for _, g, _ in passes:
        out += np.greater(top, g, out=masks[0])
    for _, i, j in _tie_hits(top, top.shape[1], tails, masks, passes):
        out[i, j] += 1
    return out


def _tally(thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Shots per outcome of one ``shots``-shot run per seed, a row each.  Each block is
    counted a row at a time, then dropped: column n counts the shots at or above the n-th
    threshold; thresholds ascend, so a difference of columns counts an outcome."""
    counts = np.empty((len(seeds), len(thresholds) + 1), np.int64)
    counts[:, 0], counts[:, 1:] = shots, np.where(thresholds == 0, shots, 0)  # 0: every shot
    passes = _passes(thresholds)[1]
    for r, cs, top, tails, masks in _top_blocks(seeds, shots):
        end, rows, mask = cs.stop - cs.start, slice(r, r + top.shape[0]), masks[0]
        for n, g, _ in passes:
            np.greater(top, g, out=mask)[:, end:] = False
            # a row's True bytes are the set bits of its words
            counts[rows, n] += np.bitwise_count(mask.view(np.uint64)).sum(1, np.int64)
        for n, i, _ in _tie_hits(top, end, tails, masks, passes):
            counts[rows, n] += np.bincount(i, minlength=top.shape[0])
    counts[:, :-1] -= counts[:, 1:]
    return counts


def _shot_blocks(thresholds: np.ndarray, shots: int, seed: int):
    """Yield ``(cs, outcome)``, the outcome indices of one run's shots ``cs``, a block at a
    time, rebuilt from its seed."""
    comparisons = _passes(thresholds)
    out = np.empty((1, min(shots, _BLOCK) + 7), np.intp)
    for _, cs, top, tails, masks in _top_blocks([seed], shots):
        outcome = _outcome_index(top, tails, masks, comparisons, out[:, :top.shape[1]])
        yield cs, outcome[0, :cs.stop - cs.start]


def _run_means(values: np.ndarray, thresholds: np.ndarray, shots: int, seeds) -> np.ndarray:
    """``zeta_bar`` of a ``shots``-shot run per seed, bit-equal to ``_run``'s."""
    return _zeta_bar(_tally(thresholds, shots, seeds), values, shots)


def _h_law(traces: np.ndarray, k: int) -> tuple:
    """H_k's outcome values and the thresholds of their Born probabilities, from the traces
    tr[S_k^j X] of the output X."""
    return _h_spectrum(k)[0], _thresholds(np.cumsum(_h_distribution(traces, k)))


def _output_distribution(p: RetrievalProtocol, rho: Operator, noise: Channel) -> tuple:
    """H_k's law on the output of the realization, applied whatever its form."""
    return _h_law(output_traces(p, rho, noise), p.k)


def _distribution(p: RetrievalProtocol, rho: Operator, noise: Channel) -> tuple:
    """The law the realization selects, as (values, thresholds): a measure-and-prepare map
    with stored values draws over them, any other realization over the H_k outcomes of its
    output."""
    r = p.realization
    if not (isinstance(r, MeasurePrepare) and r.values is not None):
        return _output_distribution(p, rho, noise)
    probs = np.clip(r.outcome_probabilities(noisy_copies(rho, noise, p.k).entries), 0.0, None)
    return np.asarray(r.values, dtype=float), _thresholds(np.cumsum(_normalized(probs)))


def _distributions(protocols, rho: Operator, noise: Channel) -> list[tuple]:
    """``_distribution`` of each protocol on one state and noise, bit for bit.  The noise is
    applied to the state once, and its moments taken once per k, for every copy-cycle
    protocol; any other realization goes to ``_distribution``."""
    noisy, moments, laws = None, {}, []
    for p in protocols:
        if not isinstance(p.realization, CycleMap):
            laws.append(_distribution(p, rho, noise))
            continue
        _check_state(p, rho)
        if p.k not in moments:
            noisy = apply(noise, rho) if noisy is None else noisy
            moments[p.k] = power_traces(noisy.entries, p.k)
        laws.append(_h_law(p.realization.product_traces(moments[p.k]), p.k))
    return laws


def _check_state(p: RetrievalProtocol, rho: Operator) -> None:
    """Refuse a state whose dimension is not the protocol's copy dimension."""
    if rho.dim != p.copy_dim:
        raise ValueError(f"state dim {rho.dim} != protocol copy dim {p.copy_dim}")


def _run(p: RetrievalProtocol, rho: Operator, noise: Channel, shots: int, seed: int,
         distribution) -> EstimationRun:
    """The shot count and sampling gates, then one run of ``shots`` draws from
    ``distribution(p, rho, noise)``."""
    _check_shots(shots)
    if not is_trace_preserving(p.realization):
        raise ValueError("finite-shot simulation needs a trace-preserving retriever; "
                         "evaluate this one exactly (--exact)")
    _check_state(p, rho)
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
