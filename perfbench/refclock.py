"""A fixed reference loop that tracks the host's current speed.

The sandbox's speed changes by up to a half within seconds, so whole
runs land in fast or slow spells, which no median inside one run can
remove.  The benchmark therefore times this loop between its passes and
set-ups, and scales each pass's wall time by
``(REF_NOMINAL_S / median(reference near the pass)) ** HOST_EXPONENT``:
roughly, seconds on the host at its usual speed.  The loop uses only
numpy and Python, never the package, so no change to the program can
move it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# median duration of ``reference()`` on the 2-core x86_64 sandbox VM
# (Python 3.11, numpy 2.4) at its usual speed
REF_NOMINAL_S = 0.0100
# In a fast spell the package's passes speed up less than this loop.
# On recordings of 2-3 minutes per workload on that sandbox, cut into
# 15 s runs, each pass scaled by the samples around it gave a spread of
# the run medians (quartile distance over median) of 3-7% per workload
# with the factor raised to 0.7, against 9-21% unscaled, 3-12% at 1.0
# and 5-11% at 0.5.  Scaling the run's median pass by the median of all
# its samples instead gave 5-10%.
HOST_EXPONENT = 0.7


def reference() -> float:
    """Small matrix-vector steps plus float arithmetic, like the package's inner loops."""
    c, s = 0.99 * np.cos(0.1), 0.99 * np.sin(0.1)
    A = np.array([[c, -s], [s, c]])  # slow decay: no subnormal numbers in 4000 steps
    x = np.array([1.0, -1.0])
    acc = 0.0
    t0 = perf_counter()
    for i in range(4000):
        x = A @ x + 0.01 * np.sin(x)
        acc += float(x[0]) * 0.5 + i % 7
    return perf_counter() - t0


class RefClock:
    """Samples ``reference()`` in proportion to the time that passed.

    ``tick`` takes one sample per ``every_s`` seconds elapsed since the
    last tick (at least one when forced), so a long call is followed by
    as many samples as the short calls it stands for would have had.
    """

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.times: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self._last = perf_counter()

    def tick(self, force: bool = False) -> None:
        n = int((perf_counter() - self._last) / self.every_s)
        for _ in range(max(n, int(force))):
            self.times.append(perf_counter())
            self.samples.append(reference())
        if n or force:
            self._last = perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Multiplier from seconds measured over ``[start, end]`` to seconds
        at the usual host speed, from the samples taken inside that
        interval and the nearest one on each side of it."""
        lo = max(bisect_left(self.times, start) - 1, 0)
        hi = bisect_right(self.times, end) + 1
        return (REF_NOMINAL_S / statistics.median(self.samples[lo:hi])) ** HOST_EXPONENT

    def scaled(self, runs) -> list[float]:
        """Each ``(seconds, start, end)`` run's seconds times its factor."""
        return [dt * self.factor(start, end) for dt, start, end in runs]


class NullClock:
    def tick(self, force: bool = False) -> None:
        pass
