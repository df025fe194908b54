"""Finite-shot Monte Carlo simulation of protocol execution.

Shot randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit
mix/increment generator) used in counter mode: the stream for shot ``i`` of a
run seeded ``s`` starts from state ``scramble(s) + i`` and emits uniforms by
stepping the golden-ratio increment.  Streams are therefore a pure function
of ``(seed, shot_index)``: shots can be generated vectorized, in any order,
or in parallel with bitwise-identical results.

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
outcome values with their cumulative probabilities;
it depends only on the protocol, the state and the noise.  The draw step
turns that pair, a shot count and a seed into an ``EstimationRun``.  A
caller that repeats runs of one fixed set-up, such as
``hubbard.fig4_experiment``, builds the distribution once and draws every
trial from it.

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
from .protocols import MeasurePrepare, RetrievalProtocol, is_trace_preserving

_MASK = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _sm64_output(z: int) -> int:
    """SplitMix64's output mix of a 64-bit state."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _sm64_output_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """``_sm64_output`` on a uint64 array, overwriting ``z``; ``tmp`` is scratch."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= np.uint64(mix)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def _scramble(x: int) -> int:
    return _sm64_output((int(x) + _GOLDEN) & _MASK)


def shot_uniforms(seed: int, shots: int, draws: int) -> np.ndarray:
    """(shots, draws) array of uniforms; row i depends only on (seed, i)."""
    base = np.arange(shots, dtype=np.uint64)
    base += np.uint64(_scramble(seed))
    out = np.empty((shots, draws))
    z = np.empty(shots, dtype=np.uint64)
    tmp = np.empty(shots, dtype=np.uint64)
    for n in range(1, draws + 1):
        np.add(base, np.uint64((n * _GOLDEN) & _MASK), out=z)
        _sm64_output_inplace(z, tmp)
        z >>= 11
        np.multiply(z, 2.0 ** -53, out=out[:, n - 1])
    return out


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic sub-seed for independent trials/streams."""
    s = _scramble(seed)
    for ix in indices:
        s = _sm64_output((s ^ (_scramble(ix) + _GOLDEN)) & _MASK)
    return s


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
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("failure probability must be in (0, 1)")
    if f <= 0:
        raise ValueError("overhead must be positive")
    shots = math.ceil(f * f * (2.0 / delta ** 2) * math.log(2.0 / fail_prob))
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
    """Born probabilities of H_k's outcomes from each state's traces tr[S_k^j X]."""
    probs = np.clip(traces.real @ _h_spectrum(k)[1].T, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def _sample_categorical(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the first cumulative entry above u, the last index at most.

    ``cumulative`` is one row shared by every shot or one row per shot, shape
    (shots, m).  For a nondecreasing row this is
    ``searchsorted(row, u, side="right").clip(0, m - 1)``.
    """
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cumulative.T[:-1]:
        idx += u >= c
    return idx


def _is_kraus(r) -> bool:
    return isinstance(r, Channel) and r.kraus is not None


def _is_measurement(r) -> bool:
    return isinstance(r, MeasurePrepare) and r.values is not None


def _draw(p: RetrievalProtocol, values: np.ndarray, cumulative: np.ndarray,
          shots: int, seed: int) -> EstimationRun:
    """One run of ``shots`` draws from a fixed outcome distribution."""
    u = shot_uniforms(seed, shots, 1)[:, 0]
    outcome = _sample_categorical(cumulative, u)
    return _finish_run(p, seed, values[outcome], outcome)


def run_mixed_unitary(p: RetrievalProtocol, rho: Operator, noise: Channel,
                      shots: int, seed: int) -> EstimationRun:
    """Sample a Kraus operator per shot, then an H-eigenvalue by Born probabilities."""
    r = p.realization
    if not _is_kraus(r):
        raise TypeError("protocol realization is not a Kraus-form channel")
    sigma = _noisy_state(p, rho, noise).entries
    values = _h_spectrum(p.k)[0]
    traces = cycle_traces(np.stack([e @ sigma @ e.conj().T for e in r.kraus]), p.k, p.copy_dim)
    weights = traces[:, 0].real  # tr[S_k^0 X] = tr X
    dists = np.cumsum(_h_distribution(traces, p.k), axis=1)
    cum_pj = np.cumsum(weights / weights.sum())
    u12 = shot_uniforms(seed, shots, 2)
    j = _sample_categorical(cum_pj, u12[:, 0])
    outcome = _sample_categorical(dists[j], u12[:, 1])
    return _finish_run(p, seed, values[outcome], j)


def _measurement_distribution(p: RetrievalProtocol, rho: Operator,
                              noise: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Stored values and cumulative probabilities of the measurement outcomes."""
    r = p.realization
    if not _is_measurement(r):
        raise TypeError("protocol realization is not a projective measurement")
    sigma = _noisy_state(p, rho, noise).entries
    probs = r.outcome_probabilities(sigma)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return np.asarray(r.values, dtype=float), np.cumsum(probs)


def run_measurement_based(p: RetrievalProtocol, rho: Operator, noise: Channel,
                          shots: int, seed: int) -> EstimationRun:
    """Sample a measurement outcome per shot; record its stored value."""
    return _draw(p, *_measurement_distribution(p, rho, noise), shots, seed)


def _choi_distribution(p: RetrievalProtocol, rho: Operator,
                       noise: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of H_k and their cumulative Born probabilities after the retriever."""
    out = p.realization.apply(_noisy_state(p, rho, noise).entries)
    traces = cycle_traces(out, p.k, p.copy_dim)
    return _h_spectrum(p.k)[0], np.cumsum(_h_distribution(traces, p.k))


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


def renyi_entropy(moment_value: float, alpha: int, base2: bool = False) -> float:
    """Renyi entropy (1/(1-alpha)) log tr[rho^alpha] from a moment value."""
    if alpha < 2:
        raise ValueError("integer-order Renyi entropy needs alpha >= 2")
    if moment_value <= 0:
        raise ValueError("moment value must be positive")
    h = math.log(moment_value) / (1.0 - alpha)
    return h / math.log(2.0) if base2 else h


def run_to_json(run: EstimationRun) -> dict:
    return {
        "schema_version": 1,
        "seed": run.seed,
        "shots": run.shots,
        "zeta_bar": run.zeta_bar,
        "estimate": run.estimate,
        "protocol_ref": run.protocol_ref,
        "per_shot": [float(x) for x in run.per_shot],
        "outcome_indices": [int(i) for i in run.outcome_indices],
    }


def run_to_csv(run: EstimationRun, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shot_index", "outcome_index", "value"])
        for i, (idx, val) in enumerate(zip(run.outcome_indices, run.per_shot)):
            w.writerow([i, int(idx), f"{val:.12g}"])


def save_run(run: EstimationRun, path) -> None:
    with open(path, "w") as fh:
        json.dump(run_to_json(run), fh)
