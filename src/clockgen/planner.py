"""Exact-rational frequency and phase planning.

The synthesizer multiplies its reference input into a VCO and divides the
VCO down per output channel.  Both dividers are rationals ``a + b/c``; the
output frequency is::

    f_out = f_in * feedback / output        with  vco_min <= f_in * feedback <= vco_max

All planning arithmetic is exact; floating point never enters a frequency
or error computation.  The search and the plan's dividers run on exact
integer numerator and denominator pairs, and so does every window check,
against :attr:`PlannerConstraints.windows`; :class:`fractions.Fraction`
appears only where inputs are converted and in a built plan's ``f_vco`` and,
when the plan misses its target, ``f_achieved`` and ``rel_error`` (an exact
plan reuses the target and a shared zero).  Plans hold dividers, not
registers: :mod:`clockgen.readout` maps them onto register fields and back.

Search order: exact integer/integer plans first, then exact plans where one
divider is fractional (the lowest valid VCO wins, so each scan stops at its
first valid candidate), then a minimal-error approximation.  With
``f_in / target = kn / kd`` in lowest terms, an integer feedback ``a``
needs an output divider of denominator at least ``kd / a``, and an integer
output ``o`` a feedback of denominator at least ``kn / o``: stage 1 visits
only multiples of ``kd``, and stage 2 skips a family whose best case is
over the cap.  Ties are broken by lowest VCO frequency, then smallest
feedback denominator.

Stage 3 is one pass over both integer-divider families: for each integer
divider in range, one Euclidean descent gives the Stern-Brocot (Farey
mediant) neighbors of its exact partner divider, denominators capped.  The
descent alternates a half-step below the partner with one above, so no
step tracks its side, and its remainders are the neighbors' errors; the
pass keeps the legal neighbors as they come and the best by error.

Every output divides the one VCO, so while another output runs the VCO is
fixed: given its feedback divider, only the output divider is planned, as
the better of the two bounded-denominator neighbors of ``f_vco / target``
(stage ``pinned``).

Each plan logs one DEBUG record on the ``clockgen.planner`` logger naming
the stage, the chosen VCO frequency and the number of candidates examined.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import PhaseRangeError, UnsatisfiableFrequencyError
from .value import Value, setfield

FrequencyLike = int | str | Fraction

# a divider's denominator is its 30-bit P3 register parameter
DENOMINATOR_HARD_CAP = (1 << 30) - 1

CHANNEL_COUNT = 4

_ZERO = Fraction(0)


def check_channel(channel: int) -> None:
    """Raise ``ValueError`` unless ``channel`` names one of the outputs."""
    if not 0 <= channel < CHANNEL_COUNT:
        raise ValueError(f"channel must be 0..{CHANNEL_COUNT - 1}")


def as_fraction(value: FrequencyLike) -> Fraction:
    """Exact conversion; floats are rejected to keep the rational contract.
    A ``Fraction`` is returned as it is: it is immutable."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted for exact values; "
            "pass an int, a decimal string, or a Fraction"
        )
    return Fraction(value)


class PlannerConstraints(Value):
    """Divider-range and VCO-window parameters, all configurable.

    The defaults model a four-output any-frequency synthesizer family:
    VCO window 2.2-2.84 GHz, feedback integer part 8..566, output divider
    integer part 5..2048, denominators up to 2**30 - 1, phase steps a
    signed 8-bit count of VCO periods.  The rational fields take what
    :func:`as_fraction` takes, so a float is refused here.

    ``windows`` holds the VCO, ``f_in`` and ``f_out`` windows, in that
    order, each as ``(low_n, low_d, high_n, high_d)``: its edges as integer
    pairs in lowest terms, for checks by cross-multiplication.  It is not a
    field, so repr, equality and hash leave it out.
    """

    def __init__(
        self,
        f_in: FrequencyLike = Fraction(25_000_000),
        vco_min: FrequencyLike = Fraction(2_200_000_000),
        vco_max: FrequencyLike = Fraction(2_840_000_000),
        fb_int_min: int = 8,
        fb_int_max: int = 566,
        ms_int_min: int = 5,
        ms_int_max: int = 2048,
        max_denominator: int = DENOMINATOR_HARD_CAP,
        phase_step_limit: int = 127,
        f_out_min: FrequencyLike = Fraction(5_000_000),
        f_out_max: FrequencyLike = Fraction(200_000_000),
        f_in_min: FrequencyLike = Fraction(10_000_000),
        f_in_max: FrequencyLike = Fraction(50_000_000),
    ):
        setfield(self, "f_in", as_fraction(f_in))
        setfield(self, "vco_min", as_fraction(vco_min))
        setfield(self, "vco_max", as_fraction(vco_max))
        setfield(self, "fb_int_min", fb_int_min)
        setfield(self, "fb_int_max", fb_int_max)
        setfield(self, "ms_int_min", ms_int_min)
        setfield(self, "ms_int_max", ms_int_max)
        setfield(self, "max_denominator", max_denominator)
        setfield(self, "phase_step_limit", phase_step_limit)
        setfield(self, "f_out_min", as_fraction(f_out_min))
        setfield(self, "f_out_max", as_fraction(f_out_max))
        setfield(self, "f_in_min", as_fraction(f_in_min))
        setfield(self, "f_in_max", as_fraction(f_in_max))
        if not 1 <= self.max_denominator <= DENOMINATOR_HARD_CAP:
            raise ValueError(f"max_denominator must be 1..{DENOMINATOR_HARD_CAP}")
        if not 1 <= self.phase_step_limit <= 127:
            raise ValueError("phase_step_limit must fit the signed 8-bit register")
        for name in ("vco_min", "f_in_min", "f_out_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # every divider is at least 1 (see _fits): a lower minimum admits nothing
        for name in ("fb_int_min", "ms_int_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for low, high in (("vco_min", "vco_max"), ("f_in_min", "f_in_max"),
                          ("f_out_min", "f_out_max"), ("fb_int_min", "fb_int_max"),
                          ("ms_int_min", "ms_int_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"empty constraint window: {low} > {high}")
        # stored now, not as a cached_property: filling __dict__ later would
        # slow every field read that follows
        setfield(self, "windows", tuple(
            (low.numerator, low.denominator, high.numerator, high.denominator)
            for low, high in ((self.vco_min, self.vco_max),
                              (self.f_in_min, self.f_in_max),
                              (self.f_out_min, self.f_out_max))))


DEFAULT_CONSTRAINTS = PlannerConstraints()


class RationalDivider(Value):
    """Divider ratio ``a + b/c`` held exactly, with b/c in lowest terms."""

    def __init__(self, a: int, b: int, c: int):
        if c < 1:
            raise ValueError("divider denominator must be >= 1")
        if not 0 <= b < c:
            raise ValueError("divider requires 0 <= b < c")
        if b and math.gcd(b, c) != 1:
            raise ValueError("divider fraction must be in lowest terms")
        if not b and c != 1:
            raise ValueError("integer divider must use c = 1")
        if c > DENOMINATOR_HARD_CAP:
            raise ValueError(f"divider denominator exceeds {DENOMINATOR_HARD_CAP}")
        if a < 0:
            raise ValueError("divider integer part must be nonnegative")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)

    @property
    def value(self) -> Fraction:
        return Fraction(*self.pair)

    @property
    def pair(self) -> tuple[int, int]:
        """``(numerator, denominator)`` of the value, in lowest terms."""
        return self.a * self.c + self.b, self.c

    @classmethod
    def from_pair(cls, n: int, d: int) -> RationalDivider:
        """``a + b/c`` for ``n/d`` in lowest terms; inverts :attr:`pair`."""
        a, b = divmod(n, d)
        # b/d of a reduced n/d is already in lowest terms
        return cls(a, b, d) if b else cls(a, 0, 1)


class FrequencyPlan(Value):
    """One fully worked divider assignment for a requested output frequency."""

    def __init__(self, f_in: Fraction, f_target: Fraction, feedback: RationalDivider,
                 output: RationalDivider, f_vco: Fraction, f_achieved: Fraction,
                 rel_error: Fraction, channel: int = 0):
        setfield(self, "f_in", f_in)
        setfield(self, "f_target", f_target)
        setfield(self, "feedback", feedback)
        setfield(self, "output", output)
        setfield(self, "f_vco", f_vco)
        setfield(self, "f_achieved", f_achieved)
        setfield(self, "rel_error", rel_error)
        setfield(self, "channel", channel)


class PhasePlan(Value):
    """Quantized phase offset: a signed count of VCO periods."""

    def __init__(self, steps: int, quantum: Fraction, offset_achieved: Fraction,
                 residual: Fraction):
        setfield(self, "steps", steps)
        setfield(self, "quantum", quantum)  # seconds, = 1 / f_vco
        setfield(self, "offset_achieved", offset_achieved)  # seconds
        # requested minus achieved, |residual| <= quantum/2
        setfield(self, "residual", residual)


def _descent(n: int, d: int, cap: int) -> list[tuple[int, int, int]]:
    """The distinct bounded-denominator neighbors of ``n/d``, lower first,
    each as ``(p, q, |d*p - n*q|)`` with ``p/q`` in lowest terms and
    ``q <= cap``: one when ``n/d`` fits the cap, else one on each side.

    ``n/d`` need not be in lowest terms (``d >= 1``), and ``cap >= 1``,
    as :class:`PlannerConstraints` holds ``max_denominator``.  Euclid on
    ``(n, d)`` alternates two half-steps: one makes ``q0`` the next
    convergent below ``n/d`` and leaves its error ``|d*p - n*q|``, the
    remainder, in ``x``; the other does the same above, in ``q1`` and
    ``y``.  A convergent past the cap steps back ``-k`` times to the
    semiconvergent within it, adding ``-k`` times the other side's error
    to its own.  Only denominators are tracked: a neighbor below is
    ``floor(n*q/d)/q``, one above the ceiling, which past the cap is
    inexact and so the floor plus one.
    """
    q0, q1, x, y = 1, 0, n, d
    while True:
        a = x // y
        x -= a * y
        q0 += a * q1
        if q0 > cap:
            k = (cap - q0) // q1
            q = q0 + k * q1
            return [(n * q // d, q, x - k * y), (n * q1 // d + 1, q1, y)]
        if not x:
            return [(n * q0 // d, q0, 0)]
        a = y // x
        y -= a * x
        q1 += a * q0
        if q1 > cap:
            k = (cap - q1) // q0
            q = q1 + k * q0
            return [(n * q0 // d, q0, x), (n * q // d + 1, q, y - k * x)]
        if not y:
            return [(n * q1 // d, q1, 0)]


def _round_half_away(x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return n // g, d // g


def _int_points(vco: tuple[int, int, int, int], f_n: int, f_d: int,
                int_min: int, int_max: int) -> range:
    """Integers n in [int_min, int_max] with ``n * f_n/f_d`` inside the VCO
    window ``vco`` (see :attr:`PlannerConstraints.windows`)."""
    lo_n, lo_d, hi_n, hi_d = vco
    start = max(int_min, -(-lo_n * f_d // (lo_d * f_n)))
    stop = min(int_max, hi_n * f_d // (hi_d * f_n))
    return range(start, stop + 1)


def _fits(p: int, q: int, int_min: int, int_max: int, cap: int) -> bool:
    """Whether the divider ``p/q`` (lowest terms) is legal:
    ``int_min <= p/q < int_max + 1``, ``p/q >= 1`` and ``q <= cap``."""
    return q <= cap and int_min * q <= p < (int_max + 1) * q and p >= q


def plan_frequency(
    f_in: FrequencyLike,
    f_target: FrequencyLike,
    channel: int = 0,
    constraints: PlannerConstraints = DEFAULT_CONSTRAINTS,
    *,
    feedback: RationalDivider | None = None,
) -> FrequencyPlan:
    """Find divider settings realizing ``f_target`` from reference ``f_in``.

    Returns an exact plan (``rel_error == 0``) whenever one exists in the
    searched family: integer/integer pairs, integer feedback with fractional
    output divider, or fractional feedback with integer output divider.
    Otherwise returns the minimal-error plan over that family, guaranteed
    within a relative error of 1e-9.  Deterministic: identical inputs always
    produce the identical plan.

    With ``feedback`` given, the VCO it sets is kept (other outputs run on
    it) and only the output divider is chosen: the legal one nearest the
    target, ties to the lower divider.  Raises
    :class:`UnsatisfiableFrequencyError` when none is within 1e-9.
    """
    fin = as_fraction(f_in)
    target = as_fraction(f_target)
    cons = constraints
    check_channel(channel)
    vco, fin_window, out_window = cons.windows
    fn, fd = fin.numerator, fin.denominator
    lo_n, lo_d, hi_n, hi_d = fin_window
    if not (lo_n * fd <= fn * lo_d and fn * hi_d <= hi_n * fd):
        raise ValueError(
            f"reference input {fin} Hz outside supported window "
            f"[{cons.f_in_min}, {cons.f_in_max}] Hz"
        )
    tn, td = target.numerator, target.denominator
    lo_n, lo_d, hi_n, hi_d = out_window
    if not (lo_n * td <= tn * lo_d and tn * hi_d <= hi_n * td):
        raise UnsatisfiableFrequencyError(
            f"target {float(target):.6g} Hz outside the supported band "
            f"[{float(cons.f_out_min):.6g}, {float(cons.f_out_max):.6g}] Hz"
        )

    if feedback is not None:
        return _pinned(fin, target, feedback, channel, cons)

    # r = f_in / target = kn / kd in lowest terms: integer feedback a needs
    # the output divider r*a, integer output o needs the feedback divider o/r
    kn, kd = _reduced(fn * td, fd * tn)
    cap = cons.max_denominator
    fb_ints = _int_points(vco, fn, fd, cons.fb_int_min, cons.fb_int_max)
    ms_ints = _int_points(vco, tn, td, cons.ms_int_min, cons.ms_int_max)
    examined = 0

    # stage 1: exact integer feedback + integer output; ascending f_vco.
    # kn*a/kd is an integer exactly when kd divides a
    for a in range(-(-fb_ints.start // kd) * kd, fb_ints.stop, kd):
        examined += 1
        out = kn * (a // kd)
        if cons.ms_int_min <= out <= cons.ms_int_max:
            return _chosen("int", fin, target, (a, 1), (out, 1), channel, examined)

    # stage 2: exact plans with one fractional divider.  f_vco fixes both
    # dividers, so no two candidates share an f_vco and the lowest valid one
    # wins: each family is scanned up in f_vco to its first valid candidate,
    # integer outputs only below the integer-feedback winner (and past
    # integer feedbacks, which stage 1 covered).  A family whose smallest
    # denominator, kd/a_max or kn/o_max, is over the cap is not scanned.
    best, a_bound = None, math.inf
    if kd <= cap * (fb_ints.stop - 1):
        for a in fb_ints:
            examined += 1
            p, q = _reduced(kn * a, kd)
            if _fits(p, q, cons.ms_int_min, cons.ms_int_max, cap):
                best, a_bound = ((a, 1), (p, q)), a * kn
                break
    if kn <= cap * (ms_ints.stop - 1):
        for o in ms_ints:
            if o * kd > a_bound:  # target * o > f_in * a
                break
            examined += 1
            p, q = _reduced(kd * o, kn)
            if q != 1 and _fits(p, q, cons.fb_int_min, cons.fb_int_max, cap):
                best = (p, q), (o, 1)
                break
    if best:
        return _chosen("exactfrac", fin, target, *best, channel, examined)

    # stage 3: minimal-error approximation via bounded-denominator neighbors
    return _approximate(fin, target, kn, kd, fb_ints, ms_ints, channel, cons, examined)


def _pinned(fin, target, feedback, channel, cons):
    """The output divider alone, for the VCO that ``feedback`` sets."""
    fb = feedback.pair
    vn, vd = fin.numerator * fb[0], fin.denominator * fb[1]  # f_vco = vn / vd
    lo_n, lo_d, hi_n, hi_d = cons.windows[0]
    if not (lo_n * vd <= vn * lo_d and vn * hi_d <= hi_n * vd):
        raise ValueError(f"pinned VCO {Fraction(vn, vd)} Hz outside the VCO window")
    cap, lo, hi = cons.max_denominator, cons.ms_int_min, cons.ms_int_max + 1
    # the ideal output divider f_vco / target = xn / xd, clamped into the
    # legal range, whose top is the largest capped fraction below hi
    xn, xd = vn * target.denominator, vd * target.numerator
    if xn < lo * xd:
        candidates = [(lo, 1, lo * xd - xn)]
    elif xn >= hi * xd:
        candidates = [(hi * cap - 1, cap, xn * cap - xd * (hi * cap - 1))]
    else:
        candidates = _descent(xn, xd, cap)
    best = best_error = None
    for p, q, error_n in candidates:  # lower neighbor first, so it keeps a tie
        if not _fits(p, q, lo, hi - 1, cap):
            continue
        # rel_error = |xn*q - xd*p| / (xd*p); xd is shared by both
        if best is None or error_n * best_error[1] < best_error[0] * p:
            best, best_error = (p, q), (error_n, p)
    if best is None or best_error[0] * 10**9 > xd * best_error[1]:
        raise UnsatisfiableFrequencyError(
            f"no output divider of the shared VCO at {Fraction(vn, vd)} Hz reaches "
            f"{float(target):.6g} Hz within 1e-9 relative"
        )
    return _chosen("pinned", fin, target, fb, best, channel, len(candidates))


def _approximate(fin, target, kn, kd, fb_ints, ms_ints, channel, cons, examined):
    """Stage 3 in one pass: of the legal bounded-denominator neighbors of
    each integer divider's exact partner, each counted in ``examined``, the
    one of least relative error wins, :func:`_precedes` settling ties."""
    cap = cons.max_denominator
    fn, fd = fin.numerator, fin.denominator
    # the VCO window in feedback units, vco / f_in
    v_lo_n, v_lo_d, v_hi_n, v_hi_d = cons.windows[0]
    lo_n, lo_d = _reduced(v_lo_n * fd, v_lo_d * fn)
    hi_n, hi_d = _reduced(v_hi_n * fd, v_hi_d * fn)
    # the descent keeps q <= cap, so of :func:`_fits` only the range is left
    fb_lo, fb_hi = cons.fb_int_min, cons.fb_int_max + 1
    ms_lo, ms_hi = cons.ms_int_min, cons.ms_int_max + 1
    # the winner and its error best_n / (kd * best_d); 1/0 loses to any candidate
    best, best_n, best_d = None, 1, 0
    for o in ms_ints:
        # feedback p/q for output o misses by |kn*p - kd*o*q| / (kd*o*q).
        # Its exact feedback is in the VCO window, and each neighbor is the
        # nearest capped fraction on its side: when both leave the window,
        # no capped feedback is in it, its edges included
        for p, q, error in _descent(kd * o, kn, cap):
            if (lo_n * q <= p * lo_d and p * hi_d <= hi_n * q
                    and fb_lo * q <= p < fb_hi * q):
                examined += 1
                lhs, rhs = error * best_d, best_n * q * o
                if lhs < rhs or (lhs == rhs and _precedes((p, q, o, 1), best)):
                    best, best_n, best_d = (p, q, o, 1), error, q * o
    for a in fb_ints:
        # output p/q for feedback a misses by |kd*p - kn*a*q| / (kd*p)
        for p, q, error in _descent(kn * a, kd, cap):
            if ms_lo * q <= p < ms_hi * q:
                examined += 1
                lhs, rhs = error * best_d, best_n * p
                if lhs < rhs or (lhs == rhs and _precedes((a, 1, p, q), best)):
                    best, best_n, best_d = (a, 1, p, q), error, p
    if best is None:
        raise UnsatisfiableFrequencyError(
            f"no divider pair reaches {float(target):.6g} Hz inside the VCO window"
        )
    if best_n * 10**9 > kd * best_d:
        raise UnsatisfiableFrequencyError(
            f"best achievable plan misses {float(target):.6g} Hz by "
            f"{best_n / (kd * best_d):.3g} relative"
        )
    return _chosen("approx", fin, target, best[:2], best[2:], channel, examined)


def _precedes(c: tuple[int, int, int, int], d: tuple[int, int, int, int]) -> bool:
    """Whether candidate ``c`` goes before ``d`` among equal errors: lowest
    f_vco (the feedback value, for one f_in), then feedback denominator,
    output denominator, output value; values compared cross-multiplied."""
    (c_fn, c_fd, c_on, c_od), (d_fn, d_fd, d_on, d_od) = c, d
    return ((c_fn * d_fd, c_fd, c_od, c_on * d_od)
            < (d_fn * c_fd, d_fd, d_od, d_on * c_od))


def _chosen(stage, fin, target, feedback, output, channel, examined):
    plan = build_plan(fin, target, feedback, output, channel)
    # A DEBUG record is seen only where the application has set up logging,
    # which imports it.  The planner does not import it itself: that import
    # would add several ms to every start of the command-line tool.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("clockgen.planner").debug(
            "stage %s chose f_vco %s Hz after %d candidates",
            stage, plan.f_vco, examined)
    return plan


def build_plan(
    fin: Fraction,
    target: Fraction,
    feedback: tuple[int, int],
    output: tuple[int, int],
    channel: int,
) -> FrequencyPlan:
    """The plan for the dividers ``feedback`` and ``output``, each given
    as an integer ``(numerator, denominator)`` pair in lowest terms.

    Nothing is searched or range-checked: ``f_vco``, ``f_achieved`` and
    ``rel_error`` against ``target`` are worked out exactly for the
    dividers given.  A plan that hits ``target`` holds ``target`` itself
    as ``f_achieved`` and a shared zero as ``rel_error``."""
    (fb_n, fb_d), (out_n, out_d) = feedback, output
    vco_n, vco_d = fin.numerator * fb_n, fin.denominator * fb_d
    ach_n, ach_d = vco_n * out_d, vco_d * out_n
    tn, td = target.numerator, target.denominator
    miss = abs(ach_n * td - tn * ach_d)
    return FrequencyPlan(
        f_in=fin,
        f_target=target,
        feedback=RationalDivider.from_pair(fb_n, fb_d),
        output=RationalDivider.from_pair(out_n, out_d),
        f_vco=Fraction(vco_n, vco_d),
        f_achieved=Fraction(ach_n, ach_d) if miss else target,
        rel_error=Fraction(miss, ach_d * tn) if miss else _ZERO,
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


def apply_plan(
    bridge,
    regmap,
    plan: FrequencyPlan,
    phase: PhasePlan | None,
    channel: int,
    synth_address: int,
) -> None:
    """Program one channel: feedback and channel dividers, phase step, and
    the channel enable bit, through ``bridge.write_fields``.

    The feedback divider sets the one VCO every output divides, and this
    always rewrites it, so it moves every other running channel.
    :meth:`clockgen.DeviceHandle.set_frequency` keeps the running VCO and
    is the safe call.
    """
    from .readout import channel_writes  # not at the top: readout imports the planner
    check_channel(channel)
    bridge.write_fields(synth_address, channel_writes(
        regmap, channel, feedback=plan.feedback, output=plan.output,
        steps=phase.steps if phase is not None else 0, enable=True))
