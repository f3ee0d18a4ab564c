"""Scaling of measured times to a reference CPU speed.

On hosts that share CPUs between machines, every process on this one can run
up to twice as slowly for seconds to minutes at a time.  Such slow spells
swamp the differences a benchmark must resolve.  A fixed exact-arithmetic
kernel, in the same interpreter and on the same Fraction arithmetic as
bimop, slows down by the same factor, so the benchmark times it every
``EVERY_S`` between jobs.  A job's time divided by the kernel's slowdown
around it (the median sample within ``WINDOW_S``, over ``REF_S``) is the time
the job would take on the reference machine.  The kernel never touches
bimop, so a change to bimop cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

EVERY_S = 0.05
WINDOW_S = 0.5
# Kernel time on the reference machine: an unloaded 2-CPU Intel Xeon
# virtual machine under Python 3.11.
REF_S = 0.001


def _kernel() -> Fraction:
    n = 9
    a = [[Fraction(1, i + 2 * j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            row, pivot = a[i], a[k]
            for j in range(k, n + 1):
                row[j] -= f * pivot[j]
    return a[n - 1][n]


class Speed:
    """Kernel samples over time and the slowdown they imply."""

    def __init__(self):
        self.times = []
        self.values = []

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            spent = time.perf_counter() - t0
        finally:
            gc.enable()
        self.times.append(t0)
        self.values.append(spent)
        return spent

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time within WINDOW_S of [t0, t1], over REF_S."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        return statistics.median(self.values[lo:hi]) / REF_S
