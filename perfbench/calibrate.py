"""Reference seconds: wall time scaled by the machine's speed at that moment.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, with the load of other tenants (on the reference 2-CPU machine,
the median of a fixed kernel over 5-second windows ranged from 65 to
133 ms).  A run of the benchmark is too short to average that out.  So
while a workload runs, `Calibrator` times a fixed pure-Python kernel every
0.2 s from SIGALRM, in the same thread, between the program's bytecodes.
The kernel is a sparse product of polynomials over Fraction, the kind of
work convbialg does, written here and sharing no code with convbialg, so a
change to the program does not change it.

`scaled(a, b)` is the time spent in [a, b] outside the kernel, with each
stretch between two kernel runs multiplied by REF_KERNEL_S / (mean time of
those two runs): the seconds the interval would have taken with the kernel
running at its reference speed.  The machine's speed changes within a
second, so the two runs that bound a stretch follow it best.  Re-scaled
from the same recorded runs (10 of `suites`, 8 of `eval`), the spread of
the round time across runs was 2.7% and 2.8% this way, against 8.7% and
5.7% with the median of the kernel runs within 1 s of each stretch.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The reference time of one kernel(): a round figure within the range of its
# per-run medians on the reference machine (2 CPUs, Python 3.11.7), 4.8 to
# 10.4 ms, so that reference seconds stay close to that machine's wall seconds.
REF_KERNEL_S = 0.009
INTERVAL_S = 0.2

_FACTOR = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}


def kernel():
    for _ in range(2):
        out = {}
        for ea, ca in _FACTOR.items():
            for eb, cb in _FACTOR.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
        {e: c for e, c in out.items() if c}


def kernel_seconds(repeats=3):
    """Median time of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Context manager that times the kernel every INTERVAL_S seconds."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def scaled(self, a, b):
        """Reference seconds spent in [a, b], kernel runs excluded."""
        starts, ends = self.starts, self.ends
        total = 0.0
        i = max(bisect.bisect_right(ends, a) - 1, 0)
        while i + 1 < len(starts) and ends[i] < b:
            lo, hi = max(a, ends[i]), min(b, starts[i + 1])
            if hi > lo:
                kernel_s = (ends[i] - starts[i] + ends[i + 1] - starts[i + 1]) / 2
                total += (hi - lo) * REF_KERNEL_S / kernel_s
            i += 1
        return total
