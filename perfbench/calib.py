"""Calibrated timing for a machine whose speed drifts while it runs.

On a shared host the same sweep can take 20% longer one minute than the
next. A fixed reference workload, timed right next to each measured piece
of work, tracks that drift: the benchmark scales each measured time by
``REF_NOMINAL_S / reference time``. The result is in calibrated seconds,
which equal wall seconds on a machine where the reference takes exactly
``REF_NOMINAL_S``. The reference mixes what a sweep does (scalar math,
gathering dict values into small arrays, numpy reductions, random draws)
and uses no sparseclust code, so a change to the program does not move it.
"""

import collections
import math
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.003

_TABLE = {i: [i, float(i)] for i in range(80)}
_COLUMN = np.linspace(0.1, 1.0, 1000)


def reference_work():
    """Fixed work shaped like a sweep's inner loops: gather values from a
    dict into an array, a log-sum-exp, a random draw, scalar math."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(120):
        w = np.fromiter((c[1] for c in _TABLE.values()), dtype=float, count=80)
        lw = np.log(w + 1.0) - 0.5 * w * w
        m = lw.max()
        acc += m + math.log(np.exp(lw - m).sum()) + rng.random()
        for i in range(12):
            acc += math.exp(-i * 1e-3) + math.log(i + 1.0)
    return acc + float((_COLUMN * _COLUMN).sum())


class Calibrator:
    """Scales wall times by the median of the latest reference timings."""

    def __init__(self, window=3, clock=time.perf_counter, work=reference_work):
        self.recent = collections.deque(maxlen=window)
        self.clock = clock
        self.work = work

    def probe(self, times=1):
        for _ in range(times):
            t0 = self.clock()
            self.work()
            self.recent.append(self.clock() - t0)

    def scale(self):
        """Calibrated seconds per wall second, from the recent probes."""
        return REF_NOMINAL_S / statistics.median(self.recent)

    def timed(self, fn, *args, probes_before=1, probes_after=0):
        """Call ``fn(*args)``; returns (result, wall seconds, calibrated seconds).

        Probes are taken outside the timed interval: before it, and for long
        calls also after it, so that the scale covers drift during the call.
        """
        self.probe(probes_before)
        t0 = self.clock()
        result = fn(*args)
        wall = self.clock() - t0
        self.probe(probes_after)
        return result, wall, wall * self.scale()
