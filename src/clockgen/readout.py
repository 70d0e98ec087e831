"""Decode register state into output and rail status.

Shared by the simulator's query operations (reading its own register files)
and the host's readback (reading over the wire); both views therefore agree
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InconsistentEncodingError
from .planner import (
    CHANNEL_COUNT,
    PlannerConstraints,
    RationalDivider,
    decode_divider,
    phase_steps_from_byte,
)
from .power import RailModel, wiper_register
from .registers import RegisterMap

Read = Callable[[int], int]


@dataclass(frozen=True)
class ChannelStatus:
    """Observable state of one output channel.

    ``f_out`` and ``phase_offset`` are exact rationals, present only when
    the channel is enabled and its register configuration is decodable;
    ``problem`` names the misconfiguration otherwise.
    """

    channel: int
    enabled: bool
    f_out: Fraction | None
    phase_offset: Fraction | None
    problem: str | None


def _divider(read: Read, regmap: RegisterMap, prefix: str,
             int_range: tuple[int, int], problem: str) -> RationalDivider:
    try:
        return decode_divider(
            *(regmap.unpack(f"{prefix}_{p}", read) for p in ("p1", "p2", "p3")),
            int_range=int_range,
        )
    except InconsistentEncodingError:
        raise InconsistentEncodingError(problem) from None


def decode_feedback(read: Read, regmap: RegisterMap, cons: PlannerConstraints
                    ) -> tuple[RationalDivider, Fraction]:
    """The feedback divider and the VCO frequency it sets; raises
    :class:`InconsistentEncodingError` naming the problem."""
    feedback = _divider(read, regmap, "fb", (cons.fb_int_min, cons.fb_int_max),
                        "invalid feedback divider")
    f_vco = cons.f_in * feedback.value
    if not cons.vco_min <= f_vco <= cons.vco_max:
        raise InconsistentEncodingError("vco frequency outside window")
    return feedback, f_vco


def decode_output_divider(read: Read, regmap: RegisterMap,
                          cons: PlannerConstraints, channel: int) -> RationalDivider:
    """One channel's output divider; raises
    :class:`InconsistentEncodingError` naming the problem."""
    return _divider(read, regmap, f"ms{channel}", (cons.ms_int_min, cons.ms_int_max),
                    "invalid output divider")


def decode_outputs(
    read: Read,
    regmap: RegisterMap,
    constraints: PlannerConstraints,
) -> list[ChannelStatus]:
    """Compute per-channel status from synthesizer registers via ``read``."""
    feedback_problem = None
    try:
        _, f_vco = decode_feedback(read, regmap, constraints)
    except InconsistentEncodingError as exc:
        feedback_problem = str(exc)

    channels = []
    for k in range(CHANNEL_COUNT):
        enabled = (
            regmap.unpack(f"clk{k}_en", read) == 1
            and regmap.unpack(f"clk{k}_pdn", read) == 0
        )
        problem = feedback_problem
        f_out = phase_offset = None
        if problem is None:
            try:
                divider = decode_output_divider(read, regmap, constraints, k)
            except InconsistentEncodingError as exc:
                problem = str(exc)
            else:
                if enabled:
                    steps = phase_steps_from_byte(regmap.unpack(f"ms{k}_phstep", read))
                    f_out = f_vco / divider.value
                    phase_offset = steps * (1 / f_vco)
        channels.append(ChannelStatus(k, enabled, f_out, phase_offset, problem))
    return channels


def decode_rails(
    read: Callable[[int, int], int],
    rails: Sequence[RailModel],
    pot_map: RegisterMap,
) -> dict[int, Fraction]:
    """Predicted volts per rail from stored wiper codes.

    ``read(i2c_address, register)`` fetches one pot register.
    """
    volts = {}
    for rail in rails:
        code = read(rail.pot_address, wiper_register(rail, pot_map))
        volts[rail.rail_id] = rail.predict(code)
    return volts
