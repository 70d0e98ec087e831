"""The synthesizer register image, both ways, and rail readback.

Only this module names synthesizer register fields.  It holds the P1/P2/P3
codec, the phase-step byte, the one writer (:func:`channel_writes`), the
registers each operation reads, and the one channel decoder
(:func:`decode_feedback`, then :func:`decode_plan`) that every reader uses.
Every divider image is inverted by one pair decoder, :func:`divider_pair`,
onto an integer ``(numerator, denominator)`` pair; status
(:func:`decode_outputs`) stays on such pairs and builds a ``Fraction`` only
for the values a :class:`ChannelStatus` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import FieldOverflowError, InconsistentEncodingError
from .planner import (
    CHANNEL_COUNT,
    FrequencyPlan,
    PlannerConstraints,
    RationalDivider,
    build_plan,
)
from .power import RailModel, wiper_register
from .registers import RegisterMap

Read = Callable[[int], int]

# register field widths of the divider parameters
P1_BITS = 18
P2_BITS = 30
P3_BITS = 30


def encode_divider(divider: RationalDivider) -> tuple[int, int, int]:
    """Map ``a + b/c`` onto its three register parameters::

        P1 = floor(((a*c + b) * 128) / c) - 512
        P2 = (b * 128) mod c
        P3 = c
    """
    a, b, c = divider.a, divider.b, divider.c
    p1 = ((a * c + b) * 128) // c - 512
    p2 = (b * 128) % c
    p3 = c
    if p1 < 0 or p1 >= (1 << P1_BITS):
        raise FieldOverflowError(f"P1 = {p1} outside {P1_BITS}-bit field")
    if p2 >= (1 << P2_BITS) or p3 >= (1 << P3_BITS):
        raise FieldOverflowError("P2/P3 outside 30-bit field")
    return p1, p2, p3


def divider_pair(
    p1: int,
    p2: int,
    p3: int,
    int_range: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Invert :func:`encode_divider` onto the divider's value as an integer
    ``(numerator, denominator)`` pair in lowest terms.

    ``int_range`` optionally restricts the legal integer part (feedback and
    output dividers have different ranges).  Raises
    :class:`InconsistentEncodingError` when no legal divider maps to the
    given parameters.
    """
    if not (0 <= p1 < (1 << P1_BITS) and 0 <= p2 < (1 << P2_BITS)
            and 0 <= p3 < (1 << P3_BITS)):
        raise InconsistentEncodingError("parameter outside its field width")
    if p3 < 1:
        raise InconsistentEncodingError("P3 must be at least 1")
    if p2 >= p3:
        raise InconsistentEncodingError("P2 must be smaller than P3")
    total = p3 * (p1 + 512) + p2
    if total % 128:
        raise InconsistentEncodingError("parameters are not a divider image")
    numerator = total // 128
    a = numerator // p3
    if int_range is not None and not int_range[0] <= a <= int_range[1]:
        raise InconsistentEncodingError(
            f"integer part {a} outside legal range {int_range}"
        )
    g = math.gcd(numerator, p3)
    return numerator // g, p3 // g


def decode_divider(
    p1: int,
    p2: int,
    p3: int,
    int_range: tuple[int, int] | None = None,
) -> RationalDivider:
    """:func:`divider_pair` as a :class:`RationalDivider`."""
    return RationalDivider.from_pair(*divider_pair(p1, p2, p3, int_range))


def phase_step_byte(steps: int) -> int:
    """Two's-complement register image of a signed step count."""
    if not -128 <= steps <= 127:
        raise ValueError(f"steps {steps} outside signed 8-bit range")
    return steps & 0xFF


def phase_steps_from_byte(byte: int) -> int:
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"byte {byte} outside 0..255")
    return byte - 256 if byte >= 128 else byte


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


def channel_writes(regmap: RegisterMap, channel: int, *,
                   feedback: RationalDivider | None = None,
                   output: RationalDivider | None = None,
                   steps: int | None = None,
                   enable: bool | None = None) -> list[tuple[int, int, int]]:
    """The packed field writes that set what is given for ``channel``, in
    this order: the feedback divider (shared by every channel), the
    channel's output divider, its phase step (a signed count of VCO
    periods) and its enable bit."""
    writes: list[tuple[int, int, int]] = []
    for prefix, divider in (("fb", feedback), (f"ms{channel}", output)):
        if divider is not None:
            for name, value in zip(divider_fields(prefix), encode_divider(divider)):
                writes += regmap.pack(name, value)
    if steps is not None:
        writes += regmap.pack(f"ms{channel}_phstep", phase_step_byte(steps))
    if enable is not None:
        writes += regmap.pack(f"clk{channel}_en", int(enable))
    return writes


def _image(read: Read, regmap: RegisterMap, prefix: str) -> list[int]:
    """The P1/P2/P3 parameters of the divider named ``prefix``."""
    return [regmap.unpack(name, read) for name in divider_fields(prefix)]


def _output_pair(read: Read, regmap: RegisterMap, cons: PlannerConstraints,
                 channel: int) -> tuple[int, int]:
    """``channel``'s output divider as a lowest-terms pair."""
    try:
        return divider_pair(*_image(read, regmap, f"ms{channel}"),
                            int_range=(cons.ms_int_min, cons.ms_int_max))
    except InconsistentEncodingError:
        raise InconsistentEncodingError("invalid output divider") from None


def decode_feedback(read: Read, regmap: RegisterMap, cons: PlannerConstraints
                    ) -> RationalDivider:
    """The feedback divider, whose VCO lies in the window; raises
    :class:`InconsistentEncodingError` naming the problem.

    The window check cross-multiplies the VCO's integer pair with the
    window's edges (:attr:`PlannerConstraints.windows`), so it builds no
    ``Fraction``."""
    try:
        feedback = decode_divider(*_image(read, regmap, "fb"),
                                  int_range=(cons.fb_int_min, cons.fb_int_max))
    except InconsistentEncodingError:
        raise InconsistentEncodingError("invalid feedback divider") from None
    fb_n, fb_d = feedback.pair
    fin, (lo_n, lo_d, hi_n, hi_d) = cons.f_in, cons.windows[0]
    vco_n, vco_d = fin.numerator * fb_n, fin.denominator * fb_d
    if not (lo_n * vco_d <= vco_n * lo_d and vco_n * hi_d <= hi_n * vco_d):
        raise InconsistentEncodingError("vco frequency outside window")
    return feedback


def decode_plan(read: Read, regmap: RegisterMap, cons: PlannerConstraints,
                feedback: RationalDivider, channel: int) -> FrequencyPlan:
    """The plan ``channel``'s output divider holds on the VCO of ``feedback``,
    aimed at the frequency it achieves; raises
    :class:`InconsistentEncodingError` naming the problem."""
    fb, out = feedback.pair, _output_pair(read, regmap, cons, channel)
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


def partial_registers(writes: list[tuple[int, int, int]]) -> list[int]:
    """Registers that ``writes`` cover only in part, each once, in the
    order the fields first name them: their other bits must be read."""
    return list(dict.fromkeys(a for a, _bits, mask in writes if mask != 0xFF))


def plan_registers(regmap: RegisterMap, channel: int) -> list[int]:
    """The registers :func:`decode_feedback` and :func:`decode_plan` read
    for ``channel``, in address order."""
    return field_registers(regmap, divider_fields("fb") + divider_fields(f"ms{channel}"))


def retune_registers(regmap: RegisterMap) -> list[list[int]]:
    """Per channel, what a retune of it reads, in address order: the
    registers its field writes cover only in part, the feedback divider
    (the VCO to keep) and every channel's enable state (whether another
    one runs)."""
    state = set(field_registers(regmap, divider_fields("fb") + enable_fields()))
    reads = []
    for k in range(CHANNEL_COUNT):
        # the feedback and enable writes land in registers already in state
        names = divider_fields(f"ms{k}") + [f"ms{k}_phstep"]
        partial = partial_registers([w for name in names for w in regmap.pack(name, 0)])
        reads.append(sorted(state.union(partial)))
    return reads


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
    """Compute per-channel status from synthesizer registers via ``read``.

    Works on integer pairs: the feedback divider and the VCO are decoded
    once per snapshot, each output divider as a lowest-terms pair, and the
    only ``Fraction``s built are the two an enabled channel's status holds,
    ``f_out = f_vco / output`` and ``phase = steps / f_vco``."""
    try:
        fb_n, fb_d = decode_feedback(read, regmap, constraints).pair
    except InconsistentEncodingError as exc:
        return [ChannelStatus(k, channel_enabled(read, regmap, k), None, None, str(exc))
                for k in range(CHANNEL_COUNT)]
    fin = constraints.f_in
    vco_n, vco_d = fin.numerator * fb_n, fin.denominator * fb_d
    channels = []
    for k in range(CHANNEL_COUNT):
        enabled = channel_enabled(read, regmap, k)
        try:
            out_n, out_d = _output_pair(read, regmap, constraints, k)
        except InconsistentEncodingError as exc:
            channels.append(ChannelStatus(k, enabled, None, None, str(exc)))
            continue
        if enabled:
            steps = phase_steps_from_byte(regmap.unpack(f"ms{k}_phstep", read))
            channels.append(ChannelStatus(k, True, Fraction(vco_n * out_d, vco_d * out_n),
                                          Fraction(steps * vco_d, vco_n), None))
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
