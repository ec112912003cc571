"""Host-speed calibration for the weildec benchmark.

The benchmark runs on shared virtual machines whose speed changes by tens
of percent, in bursts of a second as well as over minutes, with CPU time
tracking wall time: the host, not the scheduler, runs slower.  A short
fixed probe measures that speed.  It does the kind of work weildec does
(Fraction arithmetic, tuple-keyed dicts, modular integer arithmetic,
small int64 numpy products) and calls no weildec code, so a change to the
library never changes it.

While a ``Sampler`` is active, an interval timer runs the probe every
``INTERVAL_S`` seconds, between two bytecodes of whatever code is
running, so the host's speed is known throughout a certificate and not
only around it.

A time in reference seconds is a measured time multiplied by
``REFERENCE_S / probe time``: what it would have taken on a host where
one probe takes ``REFERENCE_S``.  That is a round figure near the probe's
time on a quiet core of the 2-core 2000 MHz Xeon virtual machine the
bounds were set on.
"""

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001
INTERVAL_S = 0.05
# A span shorter than this many probes is judged by the probes nearest it.
MIN_PROBES = 9

_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8) % 13


def _reference_work():
    """One pass of the fixed probe work; returns its result."""
    checksum = 0
    table = {}
    acc = 1
    total = Fraction(0)
    for i in range(1, 200):
        if i % 8 == 0:  # restart the sum, so numbers stay word-sized
            checksum = (checksum + total.numerator) % 1000003
            total = Fraction(0)
        total += Fraction(i % 89 + 1, i % 97 + 7) * Fraction(3, i % 11 + 1)
        key = (i % 37, i % 41)
        table[key] = table.get(key, 0) + i
        acc = acc * (i | 1) % 1000003
    m = _MATRIX
    for _ in range(20):
        m = (m @ _MATRIX) % 1009
    return checksum, len(table), acc, int(m.sum())


_EXPECTED = _reference_work()


def probe():
    """Seconds one probe takes now, with the collector paused so that the
    heap a workload built up does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        result = _reference_work()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("probe gave a different result")
    return elapsed


def factor(probes):
    """Multiplier from measured seconds to reference seconds.

    It uses the mean probe time: a host that stalls one probe in three for
    a millisecond stalls a longer computation for a third of its time too,
    which the median probe time would not show."""
    return REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Runs the probe on a timer; records when each ran and how long."""

    def __init__(self):
        self.starts = []
        self.lengths = []
        self._previous = None

    def _tick(self, _signum, _frame):
        start = perf_counter()
        self.starts.append(start)
        self.lengths.append(probe())

    def __enter__(self):
        self.starts.clear()
        self.lengths.clear()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # so that even a short span has probes near it
        return False

    def probe_time(self, start, end):
        """Seconds the probes took that started within [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.lengths[lo:hi])

    def factor(self, start, end):
        """Reference seconds per measured second over [start, end): from the
        probes that ran within it, or the MIN_PROBES nearest it in time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts)
                           or start - self.starts[lo - 1] < self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return factor(self.lengths[lo:hi])
