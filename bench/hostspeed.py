"""Host speed, measured on a fixed reference loop while the program runs.

The benchmark runs on a share of a host whose speed changes by up to 2x
from one second to the next, for the program and for any other
interpreter-bound code alike: one `fixtures` pass took 0.25-0.48 s within
five minutes, and the reference loop below took 1.2-2.4 ms, flipping
between the two ends within a second.  Process CPU time changes with wall
time, so it is no steadier.

A `SpeedMeter` times the reference loop, which uses only the standard
library (Fraction arithmetic and dict stores, as the program does), every
INTERVAL_S seconds: an interval timer's SIGALRM handler runs it in the main
thread, inside operations as well as between them.  An operation's time
is its wall time less the measurements made inside it, times REF_S times
the host's mean speed over the operation: the mean of 1 / (loop time) over
the measurements made inside it and the one just before and just after.
That is the time it would take at the host speed at which the loop takes
REF_S.  Over a 60 s `transport` run, the per-pass median operation spread
0.34 (IQR / median) unscaled and 0.05 so scaled, and the pass time 0.22
and 0.02.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_S = 0.002  # the loop's time at the nominal speed
INTERVAL_S = 0.05


def speed(times) -> float:
    """REF_S times the mean of 1 / (loop time) over measured loop times."""
    return REF_S * statistics.mean(1 / t for t in times)


def reference_loop() -> Fraction:
    x, seen = Fraction(1, 3), {}
    for i in range(300):
        x = (x * 7 + Fraction(i, 11)) % 13
        seen[i % 97] = x
    return x


class SpeedMeter:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        self.busy = False

    def measure(self, _signum=None, _frame=None) -> None:
        if self.busy:  # a signal during a measurement: skip it, keep them ordered
            return
        self.busy = True
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.busy = False

    def __enter__(self):
        """Measure now and then every INTERVAL_S until the block ends."""
        self.measure()
        signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.measure()  # brackets the last operation

    def scaled(self, start: float, end: float) -> float:
        """The seconds from `start` to `end`, less the measurements made
        in between, at the nominal host speed: at the mean speed of those
        measurements and of the one just before and just after."""
        i, j = bisect_left(self.starts, start), bisect_right(self.ends, end)
        return (end - start - sum(self.times[i:j])) * speed(self.times[max(0, i - 1) : j + 1])
