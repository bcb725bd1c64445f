"""A fixed reference kernel that reads how fast the shared machine runs.

The benchmark's host is shared: for minutes at a time it runs the same
work 1.3-1.7x slower (no CPU steal shows in the guest, so the time goes
to contention below it, which also slows CPU time).  Taking each unit's
fastest repeat within a run removes bursts of a few seconds but not such
a phase, and ten runs in a row can straddle several.

So every run also times :func:`kernel` -- a few milliseconds of the
kinds of work the program does (dict updates, ``Fraction`` sums, small
numpy sorts), which no change to the program touches -- at the same
points of every pass and every set-up, estimates its time with the same
statistic as the program's time, and reports host times as *reference
seconds*: measured seconds x ``REF_S`` / the kernel's time measured
alongside them.  A change that makes the program slower or faster moves
reference seconds as it moves seconds; a slow phase of the machine moves
the kernel too, and cancels.

The garbage collector is off while the kernel runs, so its time does not
depend on how many objects the program holds.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

#: The kernel's time, in seconds, at the reference speed: about its
#: median on an idle 2-vCPU Xeon VM, where reference seconds and
#: seconds nearly agree.
REF_S = 0.004

_IDS = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    counts: dict = {}
    total = Fraction(0)
    for i in range(3000):
        key = (i * 40503) & 511
        counts[key] = counts.get(key, 0) + 1
        if i % 32 == 0:
            total += Fraction(key, 7)
    for k in range(8):
        counts[-k] = int(np.unique((_IDS * (7919 + k)) % 1531).size)
    return len(counts) + total.numerator


def timed() -> float:
    """Seconds one run of :func:`kernel` takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
