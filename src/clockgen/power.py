"""Wiper-code planning for the five programmable supply rails.

Each rail is an adjustable regulator whose output is set by a digital
potentiometer in the upper feedback position::

    v_out(code) = v_ref * (1 + (code/256 * r_ab + r_wiper) / r_fixed)

which is one exact line in the code::

    v_out(code) = v_zero + code * volts_per_step
    v_zero = v_ref * (1 + r_wiper / r_fixed)
    volts_per_step = v_ref * r_ab / (256 * r_fixed)

kept per rail on integers, over the common denominator ``d`` of its two
coefficients, as ``v_out(code) = (z + code * s) / d``.  A target's exact
position on that line, ``(target - v_zero) / volts_per_step``, is feasible
within half a step of 0..255, and its nearest code (ties to the lower one)
is ``ceil(position - 1/2)``, clamped to 0.
Rail parameters are per-rail configuration with conventional defaults; the
arithmetic is exact rational so the planned code provably equals the
exhaustive argmin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import InfeasibleVoltageError
from .planner import FrequencyLike, as_fraction
from .value import Value, setfield

WIPER_STEPS = 256


class RailModel(Value):
    """One supply rail: a pot channel feeding an adjustable regulator."""

    def __init__(self, rail_id: int, pot_address: int = 0x2C, pot_channel: int = 0,
                 v_ref: FrequencyLike = Fraction("1.25"),
                 r_fixed: FrequencyLike = Fraction(10_000),
                 r_ab: FrequencyLike = Fraction(20_000),
                 r_wiper: FrequencyLike = Fraction(60),
                 v_default: FrequencyLike = Fraction("2.5")):
        setfield(self, "rail_id", rail_id)
        setfield(self, "pot_address", pot_address)
        setfield(self, "pot_channel", pot_channel)
        setfield(self, "v_ref", as_fraction(v_ref))
        setfield(self, "r_fixed", as_fraction(r_fixed))
        setfield(self, "r_ab", as_fraction(r_ab))
        setfield(self, "r_wiper", as_fraction(r_wiper))
        setfield(self, "v_default", as_fraction(v_default))
        if min(self.r_fixed, self.r_ab, self.r_wiper) <= 0 or self.v_ref <= 0:
            raise ValueError("rail resistances and reference must be positive")
        if not 0 <= self.pot_address <= 0x7F:
            raise ValueError("pot i2c address outside 7-bit range")
        if not 0 <= self.pot_channel <= 3:
            raise ValueError("pot channel must be 0..3")

    @cached_property
    def line(self) -> tuple[int, int, int]:
        """``(z, s, d)``: the volts at code ``c`` are ``(z + c*s) / d``,
        with ``z / d`` the volts at code 0 and ``s / d`` the volts per step."""
        v_zero = self.v_ref * (1 + self.r_wiper / self.r_fixed)
        volts_per_step = self.v_ref * self.r_ab / (WIPER_STEPS * self.r_fixed)
        d = math.lcm(v_zero.denominator, volts_per_step.denominator)
        return (v_zero.numerator * (d // v_zero.denominator),
                volts_per_step.numerator * (d // volts_per_step.denominator), d)

    def predict(self, code: int) -> Fraction:
        """Exact output voltage for one wiper code."""
        if not 0 <= code < WIPER_STEPS:
            raise ValueError(f"wiper code {code} outside 0..{WIPER_STEPS - 1}")
        z, s, d = self.line
        return Fraction(z + code * s, d)


class SupplySetting(Value):
    """Planned wiper code with its predicted voltage and absolute error."""

    def __init__(self, code: int, v_predicted: Fraction, v_error: Fraction):
        setfield(self, "code", code)
        setfield(self, "v_predicted", v_predicted)
        setfield(self, "v_error", v_error)


def plan_voltage(rail: RailModel, v_target: FrequencyLike) -> SupplySetting:
    """Pick the wiper code minimizing |predicted - target|, ties to the
    lower code.

    The predicted voltage is a strictly increasing line in the code, so the
    argmin is the code nearest the target's exact position on it.  Targets
    more than half a step outside the reachable band are infeasible.
    """
    target = as_fraction(v_target)
    if target <= 0:
        raise ValueError("target voltage must be positive")
    z, s, d = rail.line
    # position = offset / (s * td), with the target at tn / td
    tn, td = target.numerator, target.denominator
    offset = tn * d - z * td
    if not -s * td <= 2 * offset <= (2 * WIPER_STEPS - 1) * s * td:
        raise InfeasibleVoltageError(
            f"rail {rail.rail_id}: {float(target):.4g} V outside reachable band "
            f"[{float(rail.predict(0)):.6g}, {float(rail.predict(WIPER_STEPS - 1)):.6g}] V"
        )
    # code = ceil(position - 1/2); only position -1/2 itself rounds below 0
    code = max(0, -((s * td - 2 * offset) // (2 * s * td)))
    return SupplySetting(code=code, v_predicted=rail.predict(code),
                         v_error=Fraction(abs((z + code * s) * td - tn * d), d * td))


def apply_supply(bridge, rail: RailModel, setting: SupplySetting, pot_map) -> None:
    """Store the planned code: exactly one wire write to the pot's channel
    register, as named in the pot register map."""
    bridge.write_register(rail.pot_address, wiper_register(rail, pot_map),
                          setting.code)


def wiper_register(rail: RailModel, pot_map) -> int:
    """Address of the pot register that holds ``rail``'s wiper code."""
    return pot_map.field(f"wiper{rail.pot_channel}").address
