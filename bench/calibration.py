"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared 2-core VM the speed of identical work drifts by up to 1.5x in
phases of tens of seconds (a fixed loop measured 13 ms in one phase and
19.6 ms in the next).  A run of tens of seconds can sit wholly inside one
phase, so raw op times of two runs differ by that much on any statistic.  The
benchmark therefore runs this loop, which depends on nothing in the package
under test, right after every timed op, and rescales each op's wall time to
the speed at which the loop takes ``REFERENCE_S``:

    ref_time = wall_time * REFERENCE_S / (loop time around the op)

The loop mixes what the ops spend time on: interpreted Python, JSON
parsing, numpy vector arithmetic and small dense LAPACK calls.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

# Median loop time on the 2-core reference box (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) in a fast phase.
REFERENCE_S = 8.0e-4
MIN_CALLS = 3
BURST_SHARE = 0.02   # a burst lasts about this share of the op before it

_rng = np.random.default_rng(20230920)
_HERM = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_HERM = _HERM + _HERM.conj().T
_MAT = _rng.normal(size=(32, 32)) + 1j * _rng.normal(size=(32, 32))
_WORDS = np.arange(20_000, dtype=np.uint64)
_EDGES = np.sort(_rng.random(256))
_TEXT = json.dumps([[float(x), -float(x)] for x in range(400)])


def _loop() -> float:
    t = perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += i * 0.5
    json.loads(_TEXT)
    z = (_WORDS ^ (_WORDS >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    np.searchsorted(_EDGES, (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
    np.linalg.eigh(_HERM)
    _MAT @ _MAT
    return perf_counter() - t


def burst(op_s: float = 0.0) -> float:
    """Median time of calibration loops run for about ``BURST_SHARE * op_s``.

    Long ops get more loops, so the speed measured around them is as
    precise as the op time it rescales.
    """
    calls = max(MIN_CALLS, math.ceil(BURST_SHARE * op_s / REFERENCE_S))
    return statistics.median(_loop() for _ in range(calls))
