"""Machine-speed reference for timings on a shared, drifting host.

On the 2-vCPU virtual machine where this benchmark was defined the same
request runs up to 1.5x slower for stretches of seconds to minutes, as
other tenants load the host: 20-second medians of one fixed request
differed by up to 44%, in CPU time as much as in wall time.  A fixed
reference task, interleaved with the requests, slows down with them: the
ratio of request time to reference time varied 3-10x less than the raw
time (interquartile range over 10-second windows 0.02-0.07 against
0.19-0.24).

So every time the benchmark reports is a wall-clock time rescaled to a
nominal machine speed: multiplied by ``NOMINAL_S / r``, where ``r`` is
the reference task's time measured around that request.  The reference
depends only on the interpreter and numpy, never on ``bmlandau``, so a
change to the program moves the rescaled time exactly as it moves the
raw one.  ``run.py`` prints the raw figures and the speed factor beside
the rescaled ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# about the median of reference_seconds() on the machine that defined the benchmark
NOMINAL_S = 0.010
MIN_GAP_S = 0.1  # one sample per 0.1 s of requests: ~10% of the loop's time
MAX_BURST = 5  # samples after one long request
WINDOW_S = 1.0  # samples this close to a request set its speed


def reference_seconds() -> float:
    """Time one fixed round of interpreter, numpy-scalar, long-double and string work.

    The mix follows the program's own hot paths: scalar Python arithmetic
    with 17-digit formatting, numpy calls on 0-d values, extended-precision
    array series, and joining a large text block.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(2500):
        acc += math.sin(i * 1e-3)
        format(acc, ".17g")
    for i in range(300):
        a = np.asarray(i * 1e-3, dtype=float)
        b = np.sin(2.0 * a) + 1.5
        np.any(np.abs(b) < 1e-12)
        float(8.0 / b)
    x = np.linspace(0.0, 1.0, 10000).astype(np.longdouble)
    for _ in range(12):
        x = x * 0.999 + 0.001
    "\n".join([format(i * 0.37, ".17g") for i in range(2500)]).count("\n")
    return perf_counter() - t0


class SpeedTrace:
    """Reference samples taken between requests, as (midpoint, seconds)."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last_end = -math.inf
        reference_seconds()  # the first round in a process pays one-time costs

    def sample(self):
        start = perf_counter()
        d = reference_seconds()
        self.times.append(start + d / 2)
        self.seconds.append(d)
        self._last_end = perf_counter()

    def maybe_sample(self):
        """One sample per MIN_GAP_S since the last one, at most MAX_BURST."""
        for _ in range(min(int((perf_counter() - self._last_end) / MIN_GAP_S), MAX_BURST)):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time around a request.

        The samples within WINDOW_S of the request, or the three nearest
        its midpoint when fewer than three lie that close.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            t = 0.5 * (start + end)
            i = bisect.bisect_left(self.times, t)
            lo, hi = max(0, i - 3), min(len(self.times), i + 3)
            near = sorted(range(lo, hi), key=lambda k: abs(self.times[k] - t))[:3]
            return NOMINAL_S / statistics.median(self.seconds[k] for k in near)
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
