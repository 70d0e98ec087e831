"""The synthesizer register image, both ways, and rail readback.

Only this module names synthesizer register fields.  It holds the P1/P2/P3
codec, the phase-step byte, the one writer (:class:`RegisterWrite`, built
per channel by :func:`channel_write`), the registers each operation reads,
and the decoders every reader uses.
Each fixed read set (the output snapshot, a channel's retune reads, a
channel's plan reads, a board's whole register list) has a
:class:`RegisterView`, compiled once per map, that says where each field it
decodes sits in the list of values the read returns.  The decoders
(:func:`decode_outputs`, :func:`enabled_channels`, :func:`decode_feedback`,
:func:`decode_plan`) take a view and that list, as
:meth:`BridgeClient.exchange` returns it.  Every divider image is inverted
by one pair decoder, :func:`divider_pair`, onto an integer ``(numerator,
denominator)`` pair; status (:func:`decode_outputs`) stays on such pairs
and builds a ``Fraction`` only for the values a :class:`ChannelStatus`
holds.  A :class:`RegisterWrite` is a view's twin: it places the values of
one field set, and the bits they leave alone, in the payload bytes of a
write frame the bridge encodes once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import FieldOverflowError, InconsistentEncodingError, RegisterMapError
from .planner import (
    CHANNEL_COUNT,
    FrequencyPlan,
    PlannerConstraints,
    RationalDivider,
    build_plan,
)
from .power import RailModel, wiper_register
from .registers import RegisterMap
from .value import Value, setfield

# register field widths of the divider parameters
P1_BITS = 18
P2_BITS = 30
P3_BITS = 30


def encode_divider(divider: RationalDivider) -> tuple[int, int, int]:
    """Map ``a + b/c`` onto its three register parameters::

        P1 = floor(((a*c + b) * 128) / c) - 512
        P2 = (b * 128) mod c
        P3 = c

    Only P1 can overflow its field: :class:`RationalDivider` holds
    ``P2 < P3 = c <= 2**30 - 1``.
    """
    a, b, c = divider.a, divider.b, divider.c
    p1 = ((a * c + b) * 128) // c - 512
    if p1 < 0 or p1 >= (1 << P1_BITS):
        raise FieldOverflowError(f"P1 = {p1} outside {P1_BITS}-bit field")
    return p1, (b * 128) % c, c


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


class ChannelStatus(Value):
    """Observable state of one output channel.

    ``f_out`` and ``phase_offset`` are exact rationals, present only when
    the channel is enabled and its register configuration is decodable;
    ``problem`` names the misconfiguration otherwise.
    """

    def __init__(self, channel: int, enabled: bool, f_out: Fraction | None,
                 phase_offset: Fraction | None, problem: str | None):
        setfield(self, "channel", channel)
        setfield(self, "enabled", enabled)
        setfield(self, "f_out", f_out)
        setfield(self, "phase_offset", phase_offset)
        setfield(self, "problem", problem)


def field_registers(regmap: RegisterMap, names: Iterable[str]) -> list[int]:
    """Addresses holding the named fields or composites, each once, in
    address order: the registers to read before decoding them."""
    return sorted({f.address for name in names for f in regmap.group(name)})


def divider_fields(prefix: str) -> list[str]:
    """The P1/P2/P3 composites of the divider named ``prefix``."""
    return [f"{prefix}_{p}" for p in ("p1", "p2", "p3")]


def _kept_bits(regmap: RegisterMap, names: Iterable[str]) -> dict[int, int]:
    """Per register the named fields or composites touch, in the order
    they first name it, the bits none of them covers: what a write of them
    must keep of the register's current value."""
    kept: dict[int, int] = {}
    for name in names:
        for part in regmap.group(name):
            kept[part.address] = kept.get(part.address, 0xFF) & ~part.mask
    return kept


# the fields the decoders read, by channel where they are per channel
_FEEDBACK = tuple(divider_fields("fb"))
_ENABLE = tuple((f"clk{k}_en", f"clk{k}_pdn") for k in range(CHANNEL_COUNT))
_OUTPUT = tuple(tuple(divider_fields(f"ms{k}")) for k in range(CHANNEL_COUNT))
_PHSTEP = tuple(f"ms{k}_phstep" for k in range(CHANNEL_COUNT))
_STATE_FIELDS = _FEEDBACK + sum(_ENABLE, ())
_OUTPUT_FIELDS = _STATE_FIELDS + sum(_OUTPUT, ()) + _PHSTEP


def _bit_runs(regmap: RegisterMap, name: str, first_bit: dict[int, int]
              ) -> list[list[int]]:
    """Where ``name``'s bits sit in the little-endian integer that a list
    of register values makes, a byte per register, each register's first
    bit at ``first_bit[address]``: runs of ``[position, width, offset]``,
    ``offset`` the run's first bit in the field.  A part's register and
    shift give its position, and parts adjacent there join one run.  A
    part whose register has no place raises :class:`RegisterMapError`
    naming the field."""
    runs: list[list[int]] = []
    offset = 0
    for part in regmap.group(name):
        try:
            position = first_bit[part.address] + part.lsb
        except KeyError:
            raise RegisterMapError(
                f"field {name} needs register 0x{part.address:02X}, "
                "which the read set lacks") from None
        width = part.msb - part.lsb + 1
        if runs and runs[-1][0] + runs[-1][1] == position:
            runs[-1][1] += width  # adjacent to the run below it
        else:
            runs.append([position, width, offset])
        offset += width
    return runs


class RegisterView:
    """The decode of one fixed read set, compiled once per map.

    ``registers`` are the addresses the set reads, in order; a decoder
    takes the list of their values, as :meth:`BridgeClient.exchange`
    returns it, with the view.  :meth:`fields` reads that list as one
    little-endian integer, a byte per register, and takes each field out
    of it by the bit runs compiled here from the field's parts: a part's
    register index, mask and shift become its position in that integer,
    and parts adjacent there join one run.  ``slot[name]`` is a field's
    place in the list :meth:`fields` returns.

    Building a view over ``registers`` that lack a register one of
    ``names`` needs raises :class:`RegisterMapError` naming the field.
    """

    __slots__ = ("registers", "slot", "_runs", "_more")

    def __init__(self, regmap: RegisterMap, names: Sequence[str],
                 registers: Iterable[int] | None = None):
        self.registers = (field_registers(regmap, names) if registers is None
                          else list(registers))
        # each register's first bit in the integer the values make
        first_bit = {address: 8 * i for i, address in enumerate(self.registers)}
        self.slot: dict[str, int] = {}
        runs: list[tuple[int, int]] = []  # each field's lowest run: (position, mask)
        more: list[tuple[int, int, int, int]] = []  # (slot, position, mask, offset)
        for name in names:
            (position, width, _), *field_runs = _bit_runs(regmap, name, first_bit)
            slot = self.slot[name] = len(runs)
            runs.append((position, (1 << width) - 1))
            for position, width, offset in field_runs:
                more.append((slot, position, (1 << width) - 1, offset))
        self._runs, self._more = tuple(runs), tuple(more)

    def fields(self, values: Sequence[int]) -> list[int]:
        """Every field's value, in slot order, from ``values``: the read
        set's register values in :attr:`registers` order."""
        image = int.from_bytes(values, "little")
        fields = [image >> position & mask for position, mask in self._runs]
        for slot, position, mask, offset in self._more:
            fields[slot] |= (image >> position & mask) << offset
        return fields


class RegisterWrite:
    """The write of one field set, compiled once per map: the twin of
    :class:`RegisterView`.

    ``registers`` are the addresses the fields touch, each once, in the
    order the fields first name them, which is their order on the wire.
    Each field's bit runs are compiled as a view's are, as positions in the
    little-endian integer the registers' new values make, a byte each, and
    each register keeps the bits no field covers.
    :meth:`place` checks every value against its field's width and places
    it; :meth:`payload` folds in the kept bits from the current values it
    is given and returns the registers' new values as bytes, in order: the
    payload bytes of the write frame :meth:`BridgeClient.write_fields`
    encodes once and fills.

    ``current`` are the registers the kept bits are taken from, in the
    order their values are given: by default the registers the fields
    cover only in part, in the order the fields name them.  A ``current``
    that lacks one of those raises :class:`RegisterMapError`.
    """

    __slots__ = ("registers", "current", "_fields", "_keep")

    def __init__(self, regmap: RegisterMap, names: Sequence[str],
                 current: Iterable[int] | None = None):
        kept = _kept_bits(regmap, names)
        self.registers = tuple(kept)
        self.current = ([address for address, bits in kept.items() if bits]
                        if current is None else list(current))
        first_bit = {address: 8 * i for i, address in enumerate(self.registers)}
        fields = []  # (name, 1 << width, ((position, mask, offset), ...))
        for name in names:
            runs = _bit_runs(regmap, name, first_bit)
            _, width, offset = runs[-1]
            fields.append((name, 1 << (offset + width),
                           tuple((p, (1 << w) - 1, o) for p, w, o in runs)))
        self._fields = tuple(fields)
        index = {address: i for i, address in enumerate(self.current)}
        keep = []  # (index in current, kept bits, position)
        for address, bits in kept.items():
            if bits:
                if address not in index:
                    raise RegisterMapError(
                        f"register 0x{address:02X} keeps bits 0x{bits:02X}, "
                        "which the current registers lack")
                keep.append((index[address], bits, first_bit[address]))
        self._keep = tuple(keep)

    def place(self, values: Sequence[int]) -> int:
        """``values``, one per field in order, placed in the integer the
        registers' new values make; one that does not fit its field raises
        ``ValueError``, as :meth:`RegisterMap.pack` does."""
        image = 0
        for value, (name, limit, runs) in zip(values, self._fields, strict=True):
            if not 0 <= value < limit:
                raise ValueError(f"value {value} does not fit "
                                 f"{limit.bit_length() - 1}-bit field {name}")
            for position, mask, offset in runs:
                image |= (value >> offset & mask) << position
        return image

    def payload(self, image: int, current: Sequence[int] = ()) -> bytes:
        """The registers' new values, in :attr:`registers` order: ``image``
        from :meth:`place` with the kept bits folded in from ``current``,
        the values of the :attr:`current` registers in order."""
        for index, bits, position in self._keep:
            image |= (current[index] & bits) << position
        return image.to_bytes(len(self.registers), "little")


# the parts a channel write may set, in the order it writes them, and the
# fields of each, by channel
_PARTS = {
    "feedback": (_FEEDBACK,) * CHANNEL_COUNT,
    "output": _OUTPUT,
    "steps": tuple((name,) for name in _PHSTEP),
    "enable": tuple((en,) for en, _pdn in _ENABLE),
}
# a retune that keeps the running VCO, and one that plans it afresh
RETUNE_KEPT = ("output", "steps", "enable")
RETUNE_FRESH = ("feedback", *RETUNE_KEPT)


def channel_write(regmap: RegisterMap, channel: int, parts: Sequence[str],
                  current: Iterable[int] | None = None) -> RegisterWrite:
    """The compiled write of ``parts`` of ``channel``, any of
    ``"feedback"`` (the divider every channel shares), ``"output"`` (the
    channel's divider), ``"steps"`` (its phase step, a signed count of VCO
    periods) and ``"enable"`` (its enable bit), written in that order.
    :func:`channel_values` gives the values it takes; ``current`` is as
    for :class:`RegisterWrite`."""
    names = [name for part, fields in _PARTS.items() if part in parts
             for name in fields[channel]]
    return RegisterWrite(regmap, names, current)


def channel_values(*, feedback: RationalDivider | None = None,
                   output: RationalDivider | None = None,
                   steps: int | None = None,
                   enable: bool | None = None) -> list[int]:
    """The field values of what is given, in the order the
    :func:`channel_write` of those parts takes them: P1/P2/P3 of each
    divider, the phase step's byte and the enable bit.  A divider whose P1
    overflows raises :class:`FieldOverflowError`, a step outside
    -128..127 ``ValueError``."""
    values: list[int] = []
    for divider in (feedback, output):
        if divider is not None:
            values += encode_divider(divider)
    if steps is not None:
        values.append(phase_step_byte(steps))
    if enable is not None:
        values.append(int(enable))
    return values


def output_view(regmap: RegisterMap, registers: Iterable[int] | None = None
                ) -> RegisterView:
    """The view :func:`decode_outputs` decodes: over the registers it
    reads, in address order, or over ``registers`` that hold them."""
    return RegisterView(regmap, _OUTPUT_FIELDS, registers)


def retune_views(regmap: RegisterMap) -> list[RegisterView]:
    """Per channel, the view of what a retune of it reads, in address
    order: the registers its field writes cover only in part, the
    feedback divider (the VCO to keep) and every channel's enable state
    (whether another one runs).  :func:`enabled_channels` and
    :func:`decode_feedback` decode it."""
    state = set(field_registers(regmap, _STATE_FIELDS))
    views = []
    for k in range(CHANNEL_COUNT):
        # the feedback and enable writes land in registers already in state
        names = _OUTPUT[k] + (_PHSTEP[k],)
        partial = [a for a, bits in _kept_bits(regmap, names).items() if bits]
        views.append(RegisterView(regmap, _STATE_FIELDS, sorted(state.union(partial))))
    return views


def plan_view(regmap: RegisterMap, channel: int) -> RegisterView:
    """The view :func:`decode_plan` decodes for ``channel``: the feedback
    divider and the channel's output divider, in address order."""
    return RegisterView(regmap, _FEEDBACK + _OUTPUT[channel])


def _divider(fields: list[int], slot: dict[str, int], names: tuple[str, ...],
             int_range: tuple[int, int], problem: str) -> tuple[int, int]:
    """The divider whose P1/P2/P3 are ``names``, as :func:`divider_pair`
    inverts it; raises :class:`InconsistentEncodingError` naming
    ``problem``."""
    p1, p2, p3 = names
    try:
        return divider_pair(fields[slot[p1]], fields[slot[p2]], fields[slot[p3]],
                            int_range)
    except InconsistentEncodingError:
        raise InconsistentEncodingError(problem) from None


def _feedback_pair(fields: list[int], slot: dict[str, int],
                   cons: PlannerConstraints) -> tuple[int, int]:
    """The feedback divider as a lowest-terms pair, its VCO in the window.

    The window check cross-multiplies the VCO's integer pair with the
    window's edges (:attr:`PlannerConstraints.windows`), so it builds no
    ``Fraction``."""
    fb_n, fb_d = _divider(fields, slot, _FEEDBACK, (cons.fb_int_min, cons.fb_int_max),
                          "invalid feedback divider")
    fin, (lo_n, lo_d, hi_n, hi_d) = cons.f_in, cons.windows[0]
    vco_n, vco_d = fin.numerator * fb_n, fin.denominator * fb_d
    if not (lo_n * vco_d <= vco_n * lo_d and vco_n * hi_d <= hi_n * vco_d):
        raise InconsistentEncodingError("vco frequency outside window")
    return fb_n, fb_d


def decode_feedback(view: RegisterView, values: Sequence[int],
                    cons: PlannerConstraints) -> RationalDivider:
    """The feedback divider ``values`` hold, whose VCO lies in the window;
    raises :class:`InconsistentEncodingError` naming the problem."""
    return RationalDivider.from_pair(*_feedback_pair(view.fields(values), view.slot, cons))


def _running(fields: list[int], slot: dict[str, int]) -> list[bool]:
    """Per channel, whether it runs: its enable bit set, its power-down
    clear."""
    return [fields[slot[en]] == 1 and fields[slot[pdn]] == 0 for en, pdn in _ENABLE]


def enabled_channels(view: RegisterView, values: Sequence[int]) -> list[bool]:
    """Per channel, whether it runs, from ``values`` read through ``view``."""
    return _running(view.fields(values), view.slot)


def decode_plan(view: RegisterView, values: Sequence[int], cons: PlannerConstraints,
                channel: int) -> FrequencyPlan:
    """The plan ``channel``'s output divider holds on the VCO of the
    feedback divider, aimed at the frequency it achieves; raises
    :class:`InconsistentEncodingError` naming the problem."""
    fields, slot = view.fields(values), view.slot
    fb = _feedback_pair(fields, slot, cons)
    out = _divider(fields, slot, _OUTPUT[channel], (cons.ms_int_min, cons.ms_int_max),
                   "invalid output divider")
    fin = cons.f_in
    achieved = Fraction(fin.numerator * fb[0] * out[1], fin.denominator * fb[1] * out[0])
    return build_plan(fin, achieved, fb, out, channel)


def decode_outputs(
    view: RegisterView,
    values: Sequence[int],
    constraints: PlannerConstraints,
) -> list[ChannelStatus]:
    """Per-channel status from ``values``, the registers an
    :func:`output_view` reads.

    Works on integer pairs: the feedback divider and the VCO are decoded
    once per snapshot, each output divider as a lowest-terms pair, and the
    only ``Fraction``s built are the two an enabled channel's status holds,
    ``f_out = f_vco / output`` and ``phase = steps / f_vco``."""
    fields, slot = view.fields(values), view.slot
    enabled = _running(fields, slot)
    try:
        fb_n, fb_d = _feedback_pair(fields, slot, constraints)
    except InconsistentEncodingError as exc:
        return [ChannelStatus(k, on, None, None, str(exc)) for k, on in enumerate(enabled)]
    fin = constraints.f_in
    vco_n, vco_d = fin.numerator * fb_n, fin.denominator * fb_d
    ms_range = (constraints.ms_int_min, constraints.ms_int_max)
    channels = []
    for k, on in enumerate(enabled):
        try:
            out_n, out_d = _divider(fields, slot, _OUTPUT[k], ms_range,
                                    "invalid output divider")
        except InconsistentEncodingError as exc:
            channels.append(ChannelStatus(k, on, None, None, str(exc)))
            continue
        if on:
            steps = phase_steps_from_byte(fields[slot[_PHSTEP[k]]])
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
