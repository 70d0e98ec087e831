"""Exact-rational frequency and phase planning.

The synthesizer multiplies its reference input into a VCO and divides the
VCO down per output channel.  Both dividers are rationals ``a + b/c``; the
output frequency is::

    f_out = f_in * feedback / output        with  vco_min <= f_in * feedback <= vco_max

All planning arithmetic is exact (:class:`fractions.Fraction` end-to-end);
floating point never enters a frequency or error computation.

Search order: exact integer/integer plans first, then exact plans where one
divider is fractional, then a minimal-error approximation built from
Stern-Brocot (Farey mediant) neighbors with the denominator capped.  Ties
are broken by lowest VCO frequency, then smallest feedback denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    FieldOverflowError,
    InconsistentEncodingError,
    PhaseRangeError,
    UnsatisfiableFrequencyError,
)
from .protocol import BridgeCommand

FrequencyLike = Union[int, str, Fraction]

# register field widths of the divider parameters
P1_BITS = 18
P2_BITS = 30
P3_BITS = 30

DENOMINATOR_HARD_CAP = (1 << P3_BITS) - 1

CHANNEL_COUNT = 4


def as_fraction(value: FrequencyLike) -> Fraction:
    """Exact conversion; floats are rejected to keep the rational contract."""
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted for exact values; "
            "pass an int, a decimal string, or a Fraction"
        )
    return Fraction(value)


@dataclass(frozen=True)
class PlannerConstraints:
    """Divider-range and VCO-window parameters, all configurable.

    The defaults model a four-output any-frequency synthesizer family:
    VCO window 2.2-2.84 GHz, feedback integer part 8..566, output divider
    integer part 5..2048, denominators up to 2**30 - 1, phase steps a
    signed 8-bit count of VCO periods.
    """

    f_in: Fraction = Fraction(25_000_000)
    vco_min: Fraction = Fraction(2_200_000_000)
    vco_max: Fraction = Fraction(2_840_000_000)
    fb_int_min: int = 8
    fb_int_max: int = 566
    ms_int_min: int = 5
    ms_int_max: int = 2048
    max_denominator: int = DENOMINATOR_HARD_CAP
    phase_step_limit: int = 127
    f_out_min: Fraction = Fraction(5_000_000)
    f_out_max: Fraction = Fraction(200_000_000)
    f_in_min: Fraction = Fraction(10_000_000)
    f_in_max: Fraction = Fraction(50_000_000)

    def __post_init__(self):
        if self.max_denominator > DENOMINATOR_HARD_CAP:
            raise ValueError(f"max_denominator cannot exceed {DENOMINATOR_HARD_CAP}")
        if not 1 <= self.phase_step_limit <= 127:
            raise ValueError("phase_step_limit must fit the signed 8-bit register")
        if self.vco_min > self.vco_max or self.f_out_min > self.f_out_max:
            raise ValueError("empty constraint window")


DEFAULT_CONSTRAINTS = PlannerConstraints()


@dataclass(frozen=True)
class RationalDivider:
    """Divider ratio ``a + b/c`` held exactly, with b/c in lowest terms."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("divider denominator must be >= 1")
        if not 0 <= self.b < self.c:
            raise ValueError("divider requires 0 <= b < c")
        if self.b and math.gcd(self.b, self.c) != 1:
            raise ValueError("divider fraction must be in lowest terms")
        if not self.b and self.c != 1:
            raise ValueError("integer divider must use c = 1")
        if self.c > DENOMINATOR_HARD_CAP:
            raise ValueError(f"divider denominator exceeds {DENOMINATOR_HARD_CAP}")
        if self.a < 0:
            raise ValueError("divider integer part must be nonnegative")

    @property
    def value(self) -> Fraction:
        return self.a + Fraction(self.b, self.c)

    @property
    def is_integer(self) -> bool:
        return self.b == 0

    @classmethod
    def from_fraction(cls, value: Fraction) -> "RationalDivider":
        a, rem = divmod(value.numerator, value.denominator)
        if rem == 0:
            return cls(a, 0, 1)
        frac = Fraction(rem, value.denominator)
        return cls(a, frac.numerator, frac.denominator)


@dataclass(frozen=True)
class FrequencyPlan:
    """One fully worked divider assignment for a requested output frequency."""

    f_in: Fraction
    f_target: Fraction
    feedback: RationalDivider
    output: RationalDivider
    f_vco: Fraction
    f_achieved: Fraction
    rel_error: Fraction
    channel: int = 0


@dataclass(frozen=True)
class PhasePlan:
    """Quantized phase offset: a signed count of VCO periods."""

    steps: int
    quantum: Fraction  # seconds, = 1 / f_vco
    offset_achieved: Fraction  # seconds
    residual: Fraction  # requested minus achieved, |residual| <= quantum/2


def farey_neighbors(value: Fraction, max_denominator: int) -> tuple[Fraction, Fraction]:
    """Tightest rationals ``lo <= value <= hi`` with denominators bounded.

    Stern-Brocot mediant descent with run-length compression (equivalently,
    the continued-fraction convergent/semiconvergent construction).  When
    ``value`` itself fits the bound both neighbors equal ``value``.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if value.denominator <= max_denominator:
        return value, value
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = value.numerator, value.denominator
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    semiconvergent = Fraction(p0 + k * p1, q0 + k * q1)
    convergent = Fraction(p1, q1)
    if convergent <= value:
        return convergent, semiconvergent
    return semiconvergent, convergent


def _round_half_away(x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _int_points(lo: Fraction, hi: Fraction, int_min: int, int_max: int) -> range:
    """Integers n with lo <= n <= hi intersected with [int_min, int_max]."""
    start = max(int_min, math.ceil(lo))
    stop = min(int_max, math.floor(hi))
    return range(start, stop + 1)


def _divider_value_ok(value: Fraction, int_min: int, int_max: int, cap: int) -> bool:
    return (
        int_min <= value < int_max + 1
        and value.denominator <= cap
        and value >= 1
    )


@dataclass(frozen=True)
class _Candidate:
    rel_error: Fraction
    f_vco: Fraction
    feedback: Fraction
    output: Fraction

    @property
    def sort_key(self):
        return (
            self.rel_error,
            self.f_vco,
            self.feedback.denominator,
            self.output.denominator,
            self.feedback,
            self.output,
        )


def plan_frequency(
    f_in: FrequencyLike,
    f_target: FrequencyLike,
    channel: int = 0,
    constraints: PlannerConstraints = DEFAULT_CONSTRAINTS,
) -> FrequencyPlan:
    """Find divider settings realizing ``f_target`` from reference ``f_in``.

    Returns an exact plan (``rel_error == 0``) whenever one exists in the
    searched family: integer/integer pairs, integer feedback with fractional
    output divider, or fractional feedback with integer output divider.
    Otherwise returns the minimal-error plan over that family, guaranteed
    within a relative error of 1e-9.  Deterministic: identical inputs always
    produce the identical plan.
    """
    fin = as_fraction(f_in)
    target = as_fraction(f_target)
    cons = constraints
    if not 0 <= channel < CHANNEL_COUNT:
        raise ValueError(f"channel must be 0..{CHANNEL_COUNT - 1}")
    if not cons.f_in_min <= fin <= cons.f_in_max:
        raise ValueError(
            f"reference input {fin} Hz outside supported window "
            f"[{cons.f_in_min}, {cons.f_in_max}] Hz"
        )
    if not cons.f_out_min <= target <= cons.f_out_max:
        raise UnsatisfiableFrequencyError(
            f"target {float(target):.6g} Hz outside the supported band "
            f"[{float(cons.f_out_min):.6g}, {float(cons.f_out_max):.6g}] Hz"
        )

    fb_ints = _int_points(cons.vco_min / fin, cons.vco_max / fin,
                          cons.fb_int_min, cons.fb_int_max)
    ms_ints = _int_points(cons.vco_min / target, cons.vco_max / target,
                          cons.ms_int_min, cons.ms_int_max)

    # stage 1: exact integer feedback + integer output; ascending f_vco
    for a in fb_ints:
        f_vco = fin * a
        out = f_vco / target
        if out.denominator == 1 and cons.ms_int_min <= out <= cons.ms_int_max:
            return _build_plan(fin, target, Fraction(a), out, channel)

    # stage 2: exact plans with one fractional divider
    exact: list[_Candidate] = []
    for a in fb_ints:
        f_vco = fin * a
        out = f_vco / target
        if _divider_value_ok(out, cons.ms_int_min, cons.ms_int_max, cons.max_denominator):
            exact.append(_Candidate(Fraction(0), f_vco, Fraction(a), out))
    for o in ms_ints:
        f_vco = target * o
        fb = f_vco / fin
        if fb.denominator == 1:
            continue  # integer/integer handled above
        if _divider_value_ok(fb, cons.fb_int_min, cons.fb_int_max, cons.max_denominator):
            exact.append(_Candidate(Fraction(0), f_vco, fb, Fraction(o)))
    if exact:
        best = min(exact, key=lambda c: c.sort_key)
        return _build_plan(fin, target, best.feedback, best.output, channel)

    # stage 3: minimal-error approximation via bounded-denominator neighbors
    approx: list[_Candidate] = []
    fb_window = (cons.vco_min / fin, cons.vco_max / fin)
    for o in ms_ints:
        wanted = target * o / fin
        for fb in _approximations(wanted, cons.max_denominator, fb_window):
            if not _divider_value_ok(fb, cons.fb_int_min, cons.fb_int_max,
                                     cons.max_denominator):
                continue
            achieved = fin * fb / o
            approx.append(
                _Candidate(abs(achieved - target) / target, fin * fb, fb, Fraction(o))
            )
    for a in fb_ints:
        f_vco = fin * a
        wanted = f_vco / target
        for out in _approximations(wanted, cons.max_denominator, None):
            if not _divider_value_ok(out, cons.ms_int_min, cons.ms_int_max,
                                     cons.max_denominator):
                continue
            achieved = f_vco / out
            approx.append(
                _Candidate(abs(achieved - target) / target, f_vco, Fraction(a), out)
            )
    if not approx:
        raise UnsatisfiableFrequencyError(
            f"no divider pair reaches {float(target):.6g} Hz inside the VCO window"
        )
    best = min(approx, key=lambda c: c.sort_key)
    if best.rel_error > Fraction(1, 10**9):
        raise UnsatisfiableFrequencyError(
            f"best achievable plan misses {float(target):.6g} Hz by "
            f"{float(best.rel_error):.3g} relative"
        )
    return _build_plan(fin, target, best.feedback, best.output, channel)


def _approximations(
    wanted: Fraction,
    cap: int,
    window: tuple[Fraction, Fraction] | None,
) -> list[Fraction]:
    lo, hi = farey_neighbors(wanted, cap)
    candidates = [lo] if lo == hi else [lo, hi]
    if window is not None:
        # window edges are valid fallbacks when both neighbors overshoot it
        inside = [c for c in candidates if window[0] <= c <= window[1]]
        if not inside:
            inside = [e for e in window if e.denominator <= cap]
        candidates = inside
    return candidates


def _build_plan(
    fin: Fraction,
    target: Fraction,
    feedback: Fraction,
    output: Fraction,
    channel: int,
) -> FrequencyPlan:
    f_vco = fin * feedback
    f_achieved = f_vco / output
    rel_error = abs(f_achieved - target) / target
    return FrequencyPlan(
        f_in=fin,
        f_target=target,
        feedback=RationalDivider.from_fraction(feedback),
        output=RationalDivider.from_fraction(output),
        f_vco=f_vco,
        f_achieved=f_achieved,
        rel_error=rel_error,
        channel=channel,
    )


def plan_phase(
    plan: FrequencyPlan,
    seconds: FrequencyLike | None = None,
    degrees: FrequencyLike | None = None,
    step_limit: int = DEFAULT_CONSTRAINTS.phase_step_limit,
) -> PhasePlan:
    """Quantize a requested offset to whole VCO periods.

    The offset may be given in seconds or in degrees of the achieved output
    period; exactly one must be supplied.  Rounds to the nearest step with
    ties away from zero, so the residual never exceeds half a quantum.
    """
    if (seconds is None) == (degrees is None):
        raise ValueError("supply exactly one of seconds= or degrees=")
    if seconds is not None:
        offset = as_fraction(seconds)
    else:
        offset = as_fraction(degrees) / 360 / plan.f_achieved
    quantum = 1 / plan.f_vco
    steps = _round_half_away(offset / quantum)
    if abs(steps) > step_limit:
        raise PhaseRangeError(
            f"offset needs {steps} steps of {float(quantum):.3g} s, "
            f"limit is +/-{step_limit}"
        )
    achieved = steps * quantum
    return PhasePlan(
        steps=steps,
        quantum=quantum,
        offset_achieved=achieved,
        residual=offset - achieved,
    )


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


def decode_divider(
    p1: int,
    p2: int,
    p3: int,
    int_range: tuple[int, int] | None = None,
) -> RationalDivider:
    """Invert :func:`encode_divider`.

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
    a, rem = divmod(numerator, p3)
    if int_range is not None and not int_range[0] <= a <= int_range[1]:
        raise InconsistentEncodingError(
            f"integer part {a} outside legal range {int_range}"
        )
    if rem == 0:
        return RationalDivider(a, 0, 1)
    frac = Fraction(rem, p3)  # normalizes unreduced b/c, value unchanged
    return RationalDivider(a, frac.numerator, frac.denominator)


def phase_step_byte(steps: int) -> int:
    """Two's-complement register image of a signed step count."""
    if not -128 <= steps <= 127:
        raise ValueError(f"steps {steps} outside signed 8-bit range")
    return steps & 0xFF


def phase_steps_from_byte(byte: int) -> int:
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"byte {byte} outside 0..255")
    return byte - 256 if byte >= 128 else byte


def apply_plan(
    bridge,
    regmap,
    plan: FrequencyPlan,
    phase: PhasePlan | None,
    channel: int,
    synth_address: int = 0x70,
) -> None:
    """Program one channel: feedback and channel dividers, phase step, and
    the channel enable bit.  Registers named for other channels are never
    touched; shared registers are updated read-modify-write so only this
    channel's bits change.
    """
    if not 0 <= channel < CHANNEL_COUNT:
        raise ValueError(f"channel must be 0..{CHANNEL_COUNT - 1}")
    steps = phase.steps if phase is not None else 0
    writes: list[tuple[int, int, int]] = []
    for prefix, divider in (("fb", plan.feedback), (f"ms{channel}", plan.output)):
        p1, p2, p3 = encode_divider(divider)
        writes += regmap.pack(f"{prefix}_p1", p1)
        writes += regmap.pack(f"{prefix}_p2", p2)
        writes += regmap.pack(f"{prefix}_p3", p3)
    writes += regmap.pack(f"ms{channel}_phstep", phase_step_byte(steps))
    writes += regmap.pack(f"clk{channel}_en", 1)
    write_fields(bridge, synth_address, writes)


def write_fields(bridge, device: int, writes: list[tuple[int, int, int]]) -> None:
    """Issue packed field writes in at most two bridge exchanges.

    Partial-byte fields go read-modify-write: the first exchange reads each
    register they live in, once.  Every field written to one register is
    then folded onto that value, and the second exchange writes each
    register once, in the order the fields first name it.
    """
    shared = list(dict.fromkeys(a for a, _bits, mask in writes if mask != 0xFF))
    current = dict(zip(shared, bridge.exchange(
        [BridgeCommand.read(device, a) for a in shared])))
    folded: dict[int, int] = {}
    for address, bits, mask in writes:
        value = folded.get(address, current.get(address, 0))
        folded[address] = (value & ~mask) | bits
    bridge.exchange([BridgeCommand.write(device, a, v) for a, v in folded.items()])
