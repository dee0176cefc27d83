"""Machine-speed reference for scaling measured times.

On a shared virtual machine the speed of one core drifts: the same Selmer
query stream took between 6.1 and 11.8 s of wall time in back-to-back
processes.  A fixed pure-Python reference, timed in bursts between
operations, drifted the same way (the ratio of the two stayed within
±2.5 %).  The benchmark therefore reports every time scaled by
REFERENCE_S / (mean reference time measured in the same process or
run): seconds on a machine on which one reference call takes
REFERENCE_S.  Raw wall times are printed alongside.

The reference uses no tclab code, so a change to tclab moves the scaled
times exactly as it moves wall time at constant machine speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0012  # one reference() call on a 2-core x86-64 VM, Python 3.11, fast phase
BURST = 5


def reference():
    """Fixed work in the style of tclab: Fraction and big-int arithmetic,
    small dicts and lists."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        table[i % 97] = table.get(i % 97, 0) + i * i
    return acc, sum(table.values())


def probe() -> float:
    """Median time of one reference call over a short burst."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(probes: list[float]) -> float:
    """Factor turning wall seconds measured alongside probes into scaled seconds."""
    return REFERENCE_S / statistics.fmean(probes)
