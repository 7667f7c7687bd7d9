"""Host speed, sampled with a fixed pure-Python yardstick.

On a small shared host the vCPU switches between speed states that last
seconds: the same cohomkit call was measured at 0.30 s in one state and
0.51 s in the other, and a pure-Python yardstick moved with it. So while
the benchmark measures, an interval timer runs the yardstick every
``GAP_S`` in the main thread, inside long tasks too. Each measured time,
less the yardstick time spent inside it, is scaled by ``YARDSTICK_REF_S``
over the median yardstick time within ``WINDOW_S`` of it. The reported
times are therefore seconds at the reference speed, the speed at which
the yardstick takes ``YARDSTICK_REF_S``. The raw times are printed in the
details.

The yardstick is the benchmark's own code (``refs.coboundary_values`` on a
fixed cochain), so a change to cohomkit never moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import refs

YARDSTICK_REF_S = 3.0e-3
GAP_S = 0.25
WINDOW_S = 1.0

_TABLE = tuple(tuple((i + j) % 8 for j in range(8)) for i in range(8))
_VALUES = tuple(((i * 7) % 2, (i * 3) % 2) for i in range(64))


def yardstick() -> float:
    """Seconds for the fixed computation, the best of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        refs.coboundary_values(_TABLE, _VALUES, 2, (2, 2))
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """A timeline of yardstick samples, taken by SIGALRM while started."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, to take out of task times

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        value = yardstick()
        end = time.perf_counter()
        self.times.append(end)
        self.values.append(value)
        self.spent += end - start

    def start(self) -> None:
        self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._handler(None, None)

    def factor(self, start: float, end: float) -> float:
        """Reference yardstick time over the median yardstick time of the
        samples within ``WINDOW_S`` of [start, end], and at least the last
        one before it and the first one after it."""
        lo = min(bisect.bisect_left(self.times, start - WINDOW_S),
                 bisect.bisect_right(self.times, start) - 1)
        hi = max(bisect.bisect_right(self.times, end + WINDOW_S),
                 bisect.bisect_left(self.times, end) + 1)
        return YARDSTICK_REF_S / statistics.median(self.values[max(lo, 0):hi])
