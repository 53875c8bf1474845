"""Timing corrected for the speed of a shared host.

The benchmark runs on a few cores of a shared host whose speed moves by up
to a third over seconds: the same query takes 55 ms in one stretch and
90 ms in the next, in CPU time as well as in wall time, so neither clock
alone gives medians that repeat from run to run.  RefClock measures the
host's speed alongside the workload and reports every interval at one fixed
reference speed.

Intervals are read with `now()`, the CPU time of this (single-threaded)
process, so that time the process spends descheduled by a busy host does
not count.  While a RefClock runs, a SIGALRM timer interrupts the workload
every PERIOD seconds of wall time, and the handler times a fixed reference
task: exact rational arithmetic and dict stores, the kind of work
curveform's own inner loops do.  An interval [t0, t1] of now() readings is
then converted by `seconds(t0, t1)`:

- the reference tasks that ran inside it are taken out;
- each stretch between two reference tasks is scaled by
  REFERENCE_S / (median cost of the SMOOTH reference tasks around it).

The result is the interval's length on a host where the reference task
takes REFERENCE_S, which is close to its typical cost on a 2-CPU shared
host running Python 3.11; code that gets faster or slower changes it in
proportion, host speed does not.  The raw length t1 - t0 is still
available to whoever records (t0, t1).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import process_time as now

PERIOD = 0.1            # seconds of wall time between two reference tasks
REFERENCE_S = 0.0025    # cost of one reference task at the reference speed
SMOOTH = 7              # reference tasks in the median that sets a stretch's speed
_STEPS = 400


def reference_task():
    """A fixed piece of work: about 2.5 ms of Fraction arithmetic and dict stores."""
    x, s, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(_STEPS):
        s = s * x + Fraction(i, 7)
        seen[i] = s
    return s


class RefClock:
    """Use as a context manager around the timed part of a run."""

    def __init__(self):
        self.starts = []   # now() when each reference task began
        self.ends = []
        self._costs = None

    def _sample(self, *_):
        start = now()
        reference_task()
        self.starts.append(start)
        self.ends.append(now())

    def __enter__(self):
        self._costs = None
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def costs(self):
        """Smoothed cost of each reference task: the median of the SMOOTH
        tasks centred on it."""
        if self._costs is None:
            raw = [e - s for s, e in zip(self.starts, self.ends)]
            half = SMOOTH // 2
            self._costs = [statistics.median(raw[max(0, i - half):i + half + 1])
                           for i in range(len(raw))]
        return self._costs

    def seconds(self, t0, t1):
        """The interval [t0, t1] without the reference tasks inside it, at
        the reference speed.  Call after the clock stopped."""
        costs, starts, ends = self.costs(), self.starts, self.ends
        i = max(bisect.bisect_right(starts, t0) - 1, 0)  # the task at or before t0
        total, t = 0.0, t0
        while True:
            nxt = i + 1
            stop = t1 if nxt >= len(starts) else min(t1, starts[nxt])
            total += max(stop - t, 0.0) * REFERENCE_S / costs[i]
            if stop >= t1:
                return total
            t, i = max(ends[nxt], t), nxt

    def median_cost(self):
        """Median raw cost of the reference task over the run, in seconds."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
