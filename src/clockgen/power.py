"""Wiper-code planning for the five programmable supply rails.

Each rail is an adjustable regulator whose output is set by a digital
potentiometer in the upper feedback position::

    v_out(code) = v_ref * (1 + R_wb(code) / r_fixed)
    R_wb(code)  = code/256 * r_ab + r_wiper

Rail parameters are per-rail configuration with conventional defaults; the
arithmetic is exact rational so the planned code provably equals the
exhaustive argmin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleVoltageError
from .planner import FrequencyLike, as_fraction

WIPER_STEPS = 256


@dataclass(frozen=True)
class RailModel:
    """One supply rail: a pot channel feeding an adjustable regulator."""

    rail_id: int
    pot_address: int = 0x2C
    pot_channel: int = 0
    v_ref: Fraction = Fraction("1.25")
    r_fixed: Fraction = Fraction(10_000)
    r_ab: Fraction = Fraction(20_000)
    r_wiper: Fraction = Fraction(60)
    v_default: Fraction = Fraction("2.5")

    def __post_init__(self):
        for name in ("v_ref", "r_fixed", "r_ab", "r_wiper", "v_default"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if min(self.r_fixed, self.r_ab, self.r_wiper) <= 0 or self.v_ref <= 0:
            raise ValueError("rail resistances and reference must be positive")
        if not 0 <= self.pot_address <= 0x7F:
            raise ValueError("pot i2c address outside 7-bit range")
        if not 0 <= self.pot_channel <= 3:
            raise ValueError("pot channel must be 0..3")

    def wiper_resistance(self, code: int) -> Fraction:
        return Fraction(code, WIPER_STEPS) * self.r_ab + self.r_wiper

    def predict(self, code: int) -> Fraction:
        """Exact output voltage for one wiper code."""
        if not 0 <= code < WIPER_STEPS:
            raise ValueError(f"wiper code {code} outside 0..{WIPER_STEPS - 1}")
        return self.v_ref * (1 + self.wiper_resistance(code) / self.r_fixed)

    @property
    def volts_per_step(self) -> Fraction:
        return self.v_ref * self.r_ab / (WIPER_STEPS * self.r_fixed)


@dataclass(frozen=True)
class SupplySetting:
    """Planned wiper code with its predicted voltage and absolute error."""

    code: int
    v_predicted: Fraction
    v_error: Fraction


def plan_voltage(rail: RailModel, v_target: FrequencyLike) -> SupplySetting:
    """Pick the wiper code minimizing |predicted - target|, ties to the
    lower code.

    The predicted voltage is linear and strictly increasing in the code, so
    the argmin is the floor or ceiling of the exact inversion; both are
    evaluated exactly.  Targets more than half a step outside the reachable
    band are infeasible.
    """
    target = as_fraction(v_target)
    if target <= 0:
        raise ValueError("target voltage must be positive")
    half_step = rail.volts_per_step / 2
    v_lo, v_hi = rail.predict(0), rail.predict(WIPER_STEPS - 1)
    if not v_lo - half_step <= target <= v_hi + half_step:
        raise InfeasibleVoltageError(
            f"rail {rail.rail_id}: {float(target):.4g} V outside reachable band "
            f"[{float(v_lo):.6g}, {float(v_hi):.6g}] V"
        )
    exact_code = (rail.r_fixed * (target / rail.v_ref - 1) - rail.r_wiper) \
        * WIPER_STEPS / rail.r_ab
    floor_code = max(0, min(WIPER_STEPS - 1, math.floor(exact_code)))
    ceil_code = max(0, min(WIPER_STEPS - 1, math.ceil(exact_code)))
    best = floor_code
    if ceil_code != floor_code:
        if abs(rail.predict(ceil_code) - target) < abs(rail.predict(floor_code) - target):
            best = ceil_code
    predicted = rail.predict(best)
    return SupplySetting(code=best, v_predicted=predicted, v_error=abs(predicted - target))


def apply_supply(bridge, rail: RailModel, setting: SupplySetting, pot_map) -> None:
    """Store the planned code: exactly one wire write to the pot's channel
    register, as named in the pot register map."""
    bridge.write_register(rail.pot_address, wiper_register(rail, pot_map),
                          setting.code)


def wiper_register(rail: RailModel, pot_map) -> int:
    """Address of the pot register that holds ``rail``'s wiper code."""
    return pot_map.field(f"wiper{rail.pot_channel}").address
