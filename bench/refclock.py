"""Drift-cancelled timing.

A shared 2-vCPU machine changes speed while a run goes on: the same
pure-Python loop can take 28 ms and then 42 ms within one 40 s run, and
its per-second medians move by a sixth from one second to the next.
Process CPU time moves with wall time, so the slowdown is real lost speed,
not time stolen from the process.

Every timed call is therefore bracketed by a fixed reference loop, and an
interval timer runs one more reference unit every SAMPLE_INTERVAL_S while
the call runs, so a call of several seconds is scaled by the speed the
machine had during it and not only at its two ends.  The call's raw
seconds (less the time spent in those samples) are scaled by
NOMINAL_UNIT_S / (mean seconds of the reference units around and in it).
A scaled second is a second of the machine that runs one unit in
NOMINAL_UNIT_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List

# Seconds one reference_unit() takes on an idle 2-vCPU x86-64 virtual
# machine with CPython 3.11; the scaled figures are seconds of that machine.
NOMINAL_UNIT_S = 0.00008
# Reference units run back to back just before and just after a call.
BRACKET_UNITS = 32
# Seconds between reference units inside a call (under 2% of the call).
SAMPLE_INTERVAL_S = 0.005
_VECTORS = tuple((0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFFFF for i in range(48))


def reference_unit() -> int:
    """Fixed stdlib-only work shaped like the program's inner loops:
    tuple building, dict lookups, big-int shifts and xors, short calls."""
    acc = 0
    for rnd in range(2):
        basis = {}
        for v in _VECTORS:
            v ^= rnd
            while v:
                h = v.bit_length() - 1
                b = basis.get(h)
                if b is None:
                    basis[h] = v
                    break
                v ^= b
        row = tuple(x ^ (x >> 3) for x in basis.values())
        acc += len(row) + sum(divmod(x, 7)[1] for x in row)
    return acc


def time_unit() -> float:
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


def scale(raw_s: float, unit_s: float) -> float:
    """Raw seconds expressed in seconds of the nominal machine."""
    return raw_s * NOMINAL_UNIT_S / unit_s


@dataclass
class Timing:
    raw_s: float                      # samples excluded
    scaled_s: float
    samples: int                      # reference units run inside the call


@dataclass
class Clock:
    """Times calls and keeps every reference unit it measured."""

    units: List[float] = field(default_factory=list)
    _inside: List[float] = field(default_factory=list)
    _handler_s: float = 0.0

    def bracket(self) -> List[float]:
        units = [time_unit() for _ in range(BRACKET_UNITS)]
        self.units.extend(units)
        return units

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        self._inside.append(t1 - t0)
        self._handler_s += time.perf_counter() - t0

    def time(self, call: Callable[[], object]) -> Timing:
        """Run call() once, scaled by the reference units just before it,
        inside it and just after it."""
        gc.collect()
        before = self.bracket()
        self._inside, self._handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
            t0 = time.perf_counter()
            call()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        self.units.extend(inside)
        after = self.bracket()
        raw = t1 - t0 - self._handler_s
        return Timing(raw, scale(raw, statistics.fmean(before + inside
                                                       + after)),
                      len(inside))

    def median_unit(self) -> float:
        return statistics.median(self.units)
