"""Reference loop: the machine's speed, measured beside the ops it scales.

The benchmark shares a few cores of a host with other jobs.  A fixed pure
Python loop there runs up to ~1.7x slower while a neighbour is busy, in
spells of seconds to minutes, so a run's raw op times follow the
neighbours as much as the program.  ``run.py`` keeps the whole run on one
CPU, so every op is Python work on that CPU, times this loop there every
EVERY_S between ops, and reports op times scaled to the speed at which the
loop takes REFERENCE_NS: the ops of each window of the run's statistics
are scaled by REFERENCE_NS over the median time of the loops timed while
that window ran.  The loop is fixed exact-rational work in the planner's
style (rational approximation, big integer division, Fraction
comparisons), so it slows with the program when the machine slows, and no
change to the program under test moves it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 1_000_000  # scaled times are at the speed where the loop takes 1 ms
EVERY_S = 0.025

_TARGETS = (Fraction(6_504_321_987_123, 999_983),
            Fraction(9_876_543_210_987, 1_048_573))


def loop_ns() -> int:
    """Run the reference loop once; its duration in ns."""
    t0 = perf_counter_ns()
    for target in _TARGETS:
        target.limit_denominator(1 << 12)
        best = None
        for q in range(2, 100):
            error = abs(Fraction(target.numerator * q // target.denominator, q) - target)
            if best is None or error < best:
                best = error
    return perf_counter_ns() - t0


def factor(marks: list[tuple[int, int]], lo: int, hi: int) -> float:
    """REFERENCE_NS over the median time of the loops timed while ops
    ``lo`` to ``hi - 1`` ran, or of the last loop before them if none was.
    ``marks`` holds (ops done when the loop was timed, loop ns) and starts
    with a loop timed before op 0."""
    positions = [p for p, _ in marks]
    a, b = bisect_left(positions, lo), bisect_left(positions, hi)
    loops = [ns for _, ns in marks[a:b]] or [marks[a - 1][1]]
    return REFERENCE_NS / statistics.median(loops)
