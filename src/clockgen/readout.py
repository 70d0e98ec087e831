"""Decode register state into output and rail status.

One channel decoder (:func:`decode_feedback`, then :func:`decode_plan`) turns
registers into the plan they hold: host status, the host's phase recovery and
the simulator's oracle views all read a channel through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InconsistentEncodingError
from .planner import (
    CHANNEL_COUNT,
    FrequencyPlan,
    PlannerConstraints,
    RationalDivider,
    build_plan,
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
            *[regmap.unpack(name, read) for name in divider_fields(prefix)],
            int_range=int_range,
        )
    except InconsistentEncodingError:
        raise InconsistentEncodingError(problem) from None


def decode_feedback(read: Read, regmap: RegisterMap, cons: PlannerConstraints
                    ) -> RationalDivider:
    """The feedback divider, whose VCO lies in the window; raises
    :class:`InconsistentEncodingError` naming the problem."""
    feedback = _divider(read, regmap, "fb", (cons.fb_int_min, cons.fb_int_max),
                        "invalid feedback divider")
    if not cons.vco_min <= cons.f_in * feedback.value <= cons.vco_max:
        raise InconsistentEncodingError("vco frequency outside window")
    return feedback


def decode_plan(read: Read, regmap: RegisterMap, cons: PlannerConstraints,
                feedback: RationalDivider, channel: int) -> FrequencyPlan:
    """The plan ``channel``'s output divider holds on the VCO of ``feedback``,
    aimed at the frequency it achieves; raises
    :class:`InconsistentEncodingError` naming the problem."""
    output = _divider(read, regmap, f"ms{channel}", (cons.ms_int_min, cons.ms_int_max),
                      "invalid output divider")
    fb, out = feedback.pair, output.pair
    fin = cons.f_in
    achieved = Fraction(fin.numerator * fb[0] * out[1], fin.denominator * fb[1] * out[0])
    return build_plan(fin, achieved, fb, out, channel)


def channel_enabled(read: Read, regmap: RegisterMap, channel: int) -> bool:
    """Whether the channel runs: its enable bit set, its power-down clear."""
    return (regmap.unpack(f"clk{channel}_en", read) == 1
            and regmap.unpack(f"clk{channel}_pdn", read) == 0)


def enable_fields() -> list[str]:
    """The fields :func:`channel_enabled` reads, for every channel."""
    return [f"clk{k}_{bit}" for k in range(CHANNEL_COUNT) for bit in ("en", "pdn")]


def field_registers(regmap: RegisterMap, names: Iterable[str]) -> list[int]:
    """Addresses holding the named fields or composites, each once, in
    address order: the registers to read before decoding them."""
    return sorted({f.address for name in names for f in regmap.group(name)})


def divider_fields(prefix: str) -> list[str]:
    """The P1/P2/P3 composites of the divider named ``prefix``."""
    return [f"{prefix}_{p}" for p in ("p1", "p2", "p3")]


def output_registers(regmap: RegisterMap) -> list[int]:
    """Every synthesizer register :func:`decode_outputs` may read.

    The host reads exactly these as one snapshot and the simulator's oracle
    decodes from the same set, so a register missing here fails both.
    """
    names = divider_fields("fb") + enable_fields()
    for k in range(CHANNEL_COUNT):
        names += [f"ms{k}_phstep", *divider_fields(f"ms{k}")]
    return field_registers(regmap, names)


def decode_outputs(
    read: Read,
    regmap: RegisterMap,
    constraints: PlannerConstraints,
) -> list[ChannelStatus]:
    """Compute per-channel status from synthesizer registers via ``read``."""
    try:
        feedback = decode_feedback(read, regmap, constraints)
    except InconsistentEncodingError as exc:
        return [ChannelStatus(k, channel_enabled(read, regmap, k), None, None, str(exc))
                for k in range(CHANNEL_COUNT)]
    channels = []
    for k in range(CHANNEL_COUNT):
        enabled = channel_enabled(read, regmap, k)
        try:
            plan = decode_plan(read, regmap, constraints, feedback, k)
        except InconsistentEncodingError as exc:
            channels.append(ChannelStatus(k, enabled, None, None, str(exc)))
            continue
        if enabled:
            steps = phase_steps_from_byte(regmap.unpack(f"ms{k}_phstep", read))
            phase = Fraction(steps * plan.f_vco.denominator, plan.f_vco.numerator)
            channels.append(ChannelStatus(k, True, plan.f_achieved, phase, None))
        else:
            channels.append(ChannelStatus(k, False, None, None, None))
    return channels


def rail_registers(rails: Sequence[RailModel], pot_map: RegisterMap
                   ) -> list[tuple[int, int]]:
    """``(i2c_address, register)`` of each rail's wiper code, in rail order."""
    return [(rail.pot_address, wiper_register(rail, pot_map)) for rail in rails]


def decode_rails(codes: Sequence[int], rails: Sequence[RailModel]
                 ) -> dict[int, Fraction]:
    """Predicted volts per rail from the wiper codes stored at
    :func:`rail_registers`, given in rail order."""
    return {rail.rail_id: rail.predict(code)
            for rail, code in zip(rails, codes, strict=True)}
