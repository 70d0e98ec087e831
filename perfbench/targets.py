"""Seeded inputs for the workloads.

Frequency targets come from three classes in a fixed 2:1:1 rotation, the
mix of the test suite's band sweep: integer-Hz targets, reference ratios
``f_in * p / q``, and rough rationals whose denominators sit near 1e6.
The classes drive the planner down its three stages (integer, exact
fractional, approximate), so the rotation fixes the stage mix of every run.
Targets are drawn afresh for every operation and practically never repeat,
so a cache of plans would gain nothing from repetition.
"""

from __future__ import annotations

import random
from fractions import Fraction

ROTATION = ("int", "int", "ratio", "rough")
ROUGH_DENOMINATORS = (999983, 1048573, 2**20 - 3, 10**6 + 3)
# the command line takes decimal frequencies only, so its ratio and rough
# classes use denominators that give finite decimals
CLI_RATIO_DENOMINATORS = (1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 64)
CLI_ROUGH_DENOMINATOR = 10**6


class Targets:
    """Endless seeded stream of (class, target Hz, phase s, rail volts)."""

    def __init__(self, seed: int, constraints, decimal_only: bool = False):
        self._rng = random.Random(seed)
        self._cons = constraints
        self._decimal = decimal_only
        self._count = 0

    def frequency(self) -> tuple[str, Fraction]:
        rng, cons = self._rng, self._cons
        lo, hi = int(cons.f_out_min), int(cons.f_out_max)
        kind = ROTATION[self._count % len(ROTATION)]
        self._count += 1
        if kind == "int":
            return kind, Fraction(rng.randint(lo, hi))
        if kind == "ratio":
            while True:
                p = rng.randint(1, 64)
                q = (rng.choice(CLI_RATIO_DENOMINATORS) if self._decimal
                     else rng.randint(1, 64))
                target = cons.f_in * p / q
                if cons.f_out_min <= target <= cons.f_out_max:
                    return kind, target
        q = CLI_ROUGH_DENOMINATOR if self._decimal else rng.choice(ROUGH_DENOMINATORS)
        return kind, Fraction(rng.randint(lo * q, hi * q), q)

    def phase_seconds(self) -> Fraction:
        """1 ps to 40 ns: within the +/-127 VCO-period steps at any VCO."""
        return Fraction(self._rng.randint(1, 40_000), 10**12)

    def rail_volts(self) -> Fraction:
        """1.300 V to 3.700 V in millivolts: inside every default rail's band."""
        return Fraction(self._rng.randint(1300, 3700), 1000)


def decimal_text(value: Fraction) -> str:
    """Exact decimal spelling of a value whose denominator divides 10**12."""
    for digits in range(13):
        scaled = value * 10**digits
        if scaled.denominator == 1:
            whole, frac = divmod(scaled.numerator, 10**digits)
            return f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    raise ValueError(f"{value} has no short decimal spelling")
