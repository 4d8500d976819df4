"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core x86_64 VM (Python 3.11.7), the speed of the same
work drifted by 20% or more over tens of seconds.  Runs minutes apart
then differ more than the changes the benchmark must resolve.  So while
an untraced run measures, a timer signal runs a fixed piece of the
benchmark's own Python code (`reference_work`, no spheremcg code) every
INTERVAL seconds and records how long it took.  Each operation's time, minus the time spent in
the handler, is scaled by REFERENCE_NS / (mean duration of the reference
samples taken during and right around it).  The result is in seconds at
the speed where `reference_work` takes REFERENCE_NS, which is about its
median there, so the scaled figures read close to wall seconds.  There
the spread of a 3 s operation across two minutes fell from 8% raw to
under 4% scaled.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from array import array

INTERVAL = 0.05
REFERENCE_NS = 1_250_000

_rng = random.Random(0)
_WORDS = [tuple(_rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(500)) for _ in range(8)]
_TABLE = array("i", [0]) * 3000


def reference_work() -> int:
    """Free reduction of fixed words and a pass over an int array: the two
    kinds of work the certifier does (word calculus, coset tables)."""
    total = 0
    for word in _WORDS:
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        total += len(out)
    table = _TABLE
    for i in range(len(table)):
        table[i] = (table[i - 1] + i) & 1023
    return total


def reference_ns() -> int:
    """Duration of one reference_work call, with the cyclic collector off so
    the program's heap does not change the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples reference_ns every INTERVAL seconds from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[int] = []
        self.overhead_ns = 0  # total time spent inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(reference_ns())
        self.overhead_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        # a sample before the first operation and one after the last, so
        # that every operation has a sample on each side
        self.samples.append(reference_ns())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_ns())
        return False

    def mark(self) -> tuple[int, int]:
        return len(self.samples), self.overhead_ns

    def scale(self, first: int, last: int) -> float:
        """REFERENCE_NS over the mean sample from the one before `first` to
        the one after `last` (sample indices as returned by mark)."""
        window = self.samples[max(first - 1, 0):last + 1]
        return REFERENCE_NS / statistics.fmean(window)
