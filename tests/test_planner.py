import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from clockgen import (
    DEFAULT_CONSTRAINTS,
    FieldOverflowError,
    FrequencyPlan,
    InconsistentEncodingError,
    PhaseRangeError,
    PlannerConstraints,
    RailModel,
    RationalDivider,
    UnsatisfiableFrequencyError,
    decode_divider,
    encode_divider,
    plan_frequency,
    plan_phase,
    plan_voltage,
)
from clockgen.planner import _descent
from clockgen.readout import phase_step_byte, phase_steps_from_byte

import oracles

MHZ = 10**6
F_IN = Fraction(25 * MHZ)
CONS = DEFAULT_CONSTRAINTS


def divider_of(value: Fraction) -> RationalDivider:
    whole, rest = divmod(value, 1)
    return RationalDivider(whole, rest.numerator, rest.denominator)


def make_plan(feedback: Fraction, output: Fraction,
              f_in: Fraction = F_IN) -> FrequencyPlan:
    """Hand-build a plan for phase tests without going through the search."""
    f_vco = f_in * feedback
    f_achieved = f_vco / output
    return FrequencyPlan(
        f_in=f_in,
        f_target=f_achieved,
        feedback=divider_of(feedback),
        output=divider_of(output),
        f_vco=f_vco,
        f_achieved=f_achieved,
        rel_error=Fraction(0),
    )


# -- plan_frequency ----------------------------------------------------------

def test_200mhz_exact_plan():
    plan = plan_frequency(F_IN, 200 * MHZ)
    oracles.assert_plan_valid(plan, CONS)
    assert plan.rel_error == 0
    assert plan.f_achieved == 200 * MHZ
    assert oracles.has_exact_plan(F_IN, Fraction(200 * MHZ), CONS)


def test_5mhz_exact_plan():
    plan = plan_frequency(F_IN, 5 * MHZ)
    oracles.assert_plan_valid(plan, CONS)
    assert plan.rel_error == 0
    # lowest-VCO tie rule picks 2.2 GHz: feedback 88, output 440
    assert plan.feedback == RationalDivider(88, 0, 1)
    assert plan.output == RationalDivider(440, 0, 1)


def test_target_above_band_unsatisfiable():
    with pytest.raises(UnsatisfiableFrequencyError):
        plan_frequency(F_IN, 250 * MHZ)


def test_target_below_band_unsatisfiable():
    with pytest.raises(UnsatisfiableFrequencyError):
        plan_frequency(F_IN, 4 * MHZ)


def test_reference_outside_window_rejected():
    with pytest.raises(ValueError):
        plan_frequency(5 * MHZ, 100 * MHZ)


def test_floats_rejected():
    with pytest.raises(TypeError):
        plan_frequency(F_IN, 123.4e6)
    plan = plan_frequency(F_IN, 100 * MHZ)
    with pytest.raises(TypeError):
        plan_phase(plan, seconds=1e-9)
    with pytest.raises(TypeError):
        plan_phase(plan, degrees=45.0)
    with pytest.raises(TypeError):
        plan_voltage(RailModel(rail_id=0), 2.5)
    with pytest.raises(TypeError):
        RailModel(rail_id=0, v_default=2.5)
    with pytest.raises(TypeError):
        PlannerConstraints(vco_min=2.2e9)


def test_plan_deterministic():
    targets = [Fraction(7 * MHZ), Fraction(777777777, 7),
               Fraction(19999999), Fraction(123456789)]
    for target in targets:
        first = plan_frequency(F_IN, target)
        second = plan_frequency(F_IN, target)
        assert first == second


def test_small_ratio_targets_are_exact():
    rng = random.Random(11)
    for _ in range(100):
        p, q = rng.randint(1, 64), rng.randint(1, 64)
        target = F_IN * p / q
        if not CONS.f_out_min <= target <= CONS.f_out_max:
            continue
        plan = plan_frequency(F_IN, target)
        oracles.assert_plan_valid(plan, CONS)
        assert plan.rel_error == 0


def test_random_band_sweep_against_oracle():
    rng = random.Random(12)
    for target in oracles.band_targets(rng, 200, CONS):
        plan = plan_frequency(F_IN, target)
        oracles.assert_plan_valid(plan, CONS)
        assert plan.rel_error <= Fraction(1, 10**9)
        if oracles.has_exact_plan(F_IN, target, CONS):
            assert plan.rel_error == 0, target


def test_lowest_vco_tie_rule():
    # every integer/integer plan for 100 MHz: feedback multiple of 4
    plan = plan_frequency(F_IN, 100 * MHZ)
    assert plan.f_vco == Fraction(2_200_000_000)
    assert plan.feedback == RationalDivider(88, 0, 1)
    assert plan.output == RationalDivider(22, 0, 1)


def exact_targets(rng, f_in, count):
    """Seeded int-Hz and f_in * p / q targets inside the band."""
    lo, hi = int(CONS.f_out_min), int(CONS.f_out_max)
    targets = []
    while len(targets) < count:
        if len(targets) % 2:
            target = f_in * rng.randint(1, 64) / rng.randint(1, 64)
            if not CONS.f_out_min <= target <= CONS.f_out_max:
                continue
        else:
            target = Fraction(rng.randint(lo, hi))
        targets.append(target)
    return targets


@pytest.mark.parametrize("cons, f_ins", [
    (CONS, (F_IN,)),
    (CONS, (Fraction(10 * MHZ), Fraction(48 * MHZ), Fraction(50 * MHZ))),
    (PlannerConstraints(max_denominator=12),
     (F_IN, Fraction(48 * MHZ), Fraction(10 * MHZ))),
], ids=["default", "other-references", "small-cap"])
def test_lowest_vco_tie_rule_against_oracle(cons, f_ins):
    rng = random.Random(18)
    small_cap = cons.max_denominator < CONS.max_denominator
    skipped_invalid_first = 0
    for f_in in f_ins:
        for target in exact_targets(rng, f_in, 60):
            plans = oracles.exact_plans(f_in, target, cons)
            try:
                plan = plan_frequency(f_in, target, constraints=cons)
            except UnsatisfiableFrequencyError:
                assert not plans, target
                continue
            if not plans:
                assert plan.rel_error > 0, target
                continue
            oracles.assert_plan_valid(plan, cons)
            best = min(plans, key=oracles.exact_rank)
            assert (plan.f_vco, plan.feedback.value, plan.output.value) == best
            if small_cap and oracles.exact_rank(best)[0]:  # a stage-2 plan
                uncapped = oracles.exact_plans(f_in, target, CONS)
                if min(p[0] for p in uncapped) < plan.f_vco:
                    skipped_invalid_first += 1
    if small_cap:
        # the cap must invalidate the lowest-VCO fractional candidate of
        # some targets, or the early exit past it goes untested
        assert skipped_invalid_first >= 5


SMALL_CAP = PlannerConstraints(max_denominator=113)


@pytest.mark.parametrize("target, cons, edge", [
    # f_in/target = 3/7: stage 1 visits multiples of 7 only, the first
    # inside the feedback window (88..113) being 91, with output 39
    (F_IN * 7 / 3, CONS, "first multiple of kd above the window start"),
    # kd = 113 * 113 = cap * a_max: the only exact plan has feedback 113 and
    # output 2261/113, denominator exactly the cap
    (F_IN * 12769 / 2261, SMALL_CAP, "kd at cap * a_max"),
    # kd one past cap * a_max: no integer feedback can give an output
    # divider within the cap, so the family is skipped
    (F_IN * 12770 / 2261, SMALL_CAP, "kd over cap * a_max"),
    # kn = 113 * 20 = cap * o_max: the only exact plan has output 20 and
    # feedback 12829/113, denominator exactly the cap
    (F_IN * 12829 / 2260, SMALL_CAP, "kn at cap * o_max"),
])
def test_skipped_scans_never_skip_an_exact_plan(target, cons, edge, caplog):
    """Stage 1 steps by kd and stage 2 skips a family whose smallest
    denominator (kd/a_max, kn/o_max, with f_in/target = kn/kd in lowest
    terms) is over the cap; at each edge the plan is the oracle's best,
    from the stage that should find it.  Stage 3 would find an exact plan
    too, so only the stage its DEBUG record names shows a wrong skip."""
    caplog.set_level(logging.DEBUG, logger="clockgen.planner")
    plans = oracles.exact_plans(F_IN, target, cons)
    try:
        plan = plan_frequency(F_IN, target, constraints=cons)
    except UnsatisfiableFrequencyError:
        assert not plans, edge
        return
    if not plans:
        assert plan.rel_error > 0, edge
        return
    oracles.assert_plan_valid(plan, cons)
    best = min(plans, key=oracles.exact_rank)
    assert (plan.f_vco, plan.feedback.value, plan.output.value) == best, edge
    (record,) = caplog.records
    assert record.args[0] == ("exactfrac" if oracles.exact_rank(best)[0] else "int"), edge


def test_skip_edge_targets_sit_on_their_edges():
    """The targets above are where their comments say: the bounds are
    recomputed here from the constraints."""
    cap = SMALL_CAP.max_denominator
    a_max = math.floor(CONS.vco_max / F_IN)
    assert a_max == 113
    r = F_IN / (F_IN * 12769 / 2261)
    assert r.denominator == cap * a_max
    r = F_IN / (F_IN * 12770 / 2261)
    assert r.denominator == cap * a_max + 1
    target = F_IN * 12829 / 2260
    o_max = math.floor(CONS.vco_max / target)
    assert (F_IN / target).numerator == cap * o_max == 2260
    assert F_IN / (F_IN * 7 / 3) == Fraction(3, 7)
    assert math.ceil(CONS.vco_min / F_IN) == 88
    best = min(oracles.exact_plans(F_IN, F_IN * 7 / 3, CONS), key=oracles.exact_rank)
    assert best[1:] == (91, 39)


def test_alternate_reference_inputs():
    for f_in in (Fraction(10 * MHZ), Fraction(50 * MHZ), Fraction(48 * MHZ)):
        plan = plan_frequency(f_in, 150 * MHZ)
        oracles.assert_plan_valid(plan, CONS)
        assert plan.f_in == f_in
        assert plan.rel_error <= Fraction(1, 10**9)


# -- _descent (the mediant-descent core) --------------------------------------

def farey_neighbors(value: Fraction, cap: int) -> tuple[Fraction, Fraction]:
    """The outer neighbors ``_descent`` gives for ``value``, as fractions."""
    neighbors = _descent(value.numerator, value.denominator, cap)
    return Fraction(*neighbors[0][:2]), Fraction(*neighbors[-1][:2])


def test_farey_neighbors_match_stdlib():
    rng = random.Random(13)
    for _ in range(1500):
        value = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        cap = rng.randint(1, 10**7)
        lo, hi = farey_neighbors(value, cap)
        assert lo <= value <= hi
        assert lo.denominator <= cap and hi.denominator <= cap
        best = value.limit_denominator(cap)
        assert best in (lo, hi)
        assert min(abs(value - lo), abs(value - hi)) == abs(value - best)


@st.composite
def descent_inputs(draw):
    """``n/d`` with a common factor, and a cap: 1, any, or one the value
    fits exactly, in lowest terms or as given."""
    g = draw(st.integers(2, 10**6))
    n, d = g * draw(st.integers(0, 10**12)), g * draw(st.integers(1, 10**12))
    reduced = Fraction(n, d).denominator
    cap = draw(st.one_of(st.just(1), st.integers(1, 2**30 - 1),
                         st.integers(reduced, reduced + 3), st.integers(d, d + 3)))
    return n, d, cap


@settings(max_examples=400, deadline=None)
@given(descent_inputs())
@example((6, 4, 1))            # 3/2 under cap 1: neighbors 1 and 2
@example((6, 4, 2))            # fits once reduced, though d = 4 > cap
@example((0, 10, 1))           # zero
@example((10**12, 10**12 - 1, 10**6))
# each exit of the two half-steps, 3/7 = [0; 2, 3] and 43/30 = [1; 2, 3, 4]:
@example((3, 7, 5))            # below step passes the cap (7 > 5): 2/5 and 1/2
@example((43, 30, 29))         # above step passes it (30 > 29): 10/7 and 33/23
@example((3, 7, 7))            # below step ends exact
@example((43, 30, 30))         # above step ends exact
@example((5, 3, 1))            # cap 1, passed in a below step: 1 and 2
@example((0, 7, 2**30 - 1))    # zero under the hard cap
def test_descent_gives_both_capped_neighbors_and_their_errors(args):
    n, d, cap = args
    value = Fraction(n, d)
    neighbors = _descent(n, d, cap)
    for p, q, error in neighbors:
        assert 1 <= q <= cap and math.gcd(p, q) == 1
        assert error == abs(d * p - n * q)
    expected = oracles.capped_neighbors(value, cap)
    assert [Fraction(p, q) for p, q, _ in neighbors] == expected
    assert farey_neighbors(value, cap) == (expected[0], expected[-1])


def test_farey_neighbors_exact_when_representable():
    value = Fraction(355, 113)
    assert farey_neighbors(value, 113) == (value, value)


def test_farey_neighbors_tightness():
    # neighbors 1/(q_lo * q_hi) apart are provably adjacent in the Farey set
    rng = random.Random(14)
    for _ in range(300):
        value = Fraction(rng.randint(10**9, 10**15), rng.randint(10**9, 10**15))
        cap = rng.randint(10, 10**5)
        lo, hi = farey_neighbors(value, cap)
        if lo != hi:
            assert hi - lo == Fraction(1, lo.denominator * hi.denominator)


# -- plan_phase ---------------------------------------------------------------

def test_phase_zero_request():
    plan = plan_frequency(F_IN, 100 * MHZ)
    phase = plan_phase(plan, seconds=0)
    assert phase.steps == 0
    assert phase.residual == 0
    assert phase.offset_achieved == 0


def test_phase_45_degrees_at_2500mhz_vco():
    # quantum 0.4 ns; 45 degrees of a 100 MHz period is 1.25 ns -> 3 steps
    plan = make_plan(Fraction(100), Fraction(25))
    assert plan.f_vco == Fraction(2_500_000_000)
    phase = plan_phase(plan, degrees=45)
    assert phase.steps == 3
    assert phase.offset_achieved == Fraction("1.2e-9")
    assert abs(phase.residual) == Fraction("0.05e-9")
    assert phase.steps == oracles.phase_steps(Fraction("1.25e-9"), phase.quantum)


def test_phase_out_of_range():
    plan = make_plan(Fraction(100), Fraction(25))  # quantum 0.4 ns
    with pytest.raises(PhaseRangeError):
        plan_phase(plan, seconds=Fraction("60e-9"))  # needs 150 steps


def test_phase_matches_exhaustive_scan():
    rng = random.Random(15)
    plan = plan_frequency(F_IN, 100 * MHZ)
    quantum = 1 / plan.f_vco
    for _ in range(300):
        offset = Fraction(rng.randint(-127_000, 127_000), 1000) * quantum
        phase = plan_phase(plan, seconds=offset)
        assert phase.steps == oracles.phase_steps(offset, quantum)
        assert abs(phase.residual) <= quantum / 2
        assert phase.offset_achieved == phase.steps * quantum


def test_phase_ties_away_from_zero():
    plan = plan_frequency(F_IN, 100 * MHZ)
    quantum = 1 / plan.f_vco
    assert plan_phase(plan, seconds=quantum * Fraction(5, 2)).steps == 3
    assert plan_phase(plan, seconds=-quantum * Fraction(5, 2)).steps == -3


def test_phase_requires_exactly_one_request_kind():
    plan = plan_frequency(F_IN, 100 * MHZ)
    with pytest.raises(ValueError):
        plan_phase(plan)
    with pytest.raises(ValueError):
        plan_phase(plan, seconds=0, degrees=0)


# -- divider encode/decode -----------------------------------------------------

def test_encode_integer_divider():
    assert encode_divider(RationalDivider(12, 0, 1)) == (1024, 0, 1)


def test_encode_half_divider():
    assert encode_divider(RationalDivider(8, 1, 2)) == (576, 0, 2)


def test_encode_boundary_divider_fits_fields():
    cap = 2**30 - 1
    p1, p2, p3 = encode_divider(RationalDivider(566, cap - 1, cap))
    assert 0 <= p1 < 2**18
    assert 0 <= p2 < 2**30
    assert 0 <= p3 < 2**30


def test_a_divider_refuses_a_zero_denominator_and_a_negative_integer_part():
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        RationalDivider(1, 0, 0)
    with pytest.raises(ValueError, match="integer part must be nonnegative"):
        RationalDivider(-1, 0, 1)


def test_decode_integer_divider():
    assert decode_divider(1024, 0, 1) == RationalDivider(12, 0, 1)


def test_decode_half_divider():
    divider = decode_divider(576, 0, 2)
    assert divider.value == Fraction(17, 2)


def test_decode_rejects_zero_p3():
    with pytest.raises(InconsistentEncodingError):
        decode_divider(0, 0, 0)


def test_decode_rejects_non_divider_image():
    with pytest.raises(InconsistentEncodingError):
        decode_divider(1024, 1, 3)  # total not divisible by 128
    with pytest.raises(InconsistentEncodingError):
        decode_divider(1024, 5, 3)  # p2 >= p3


def test_decode_rejects_a_parameter_wider_than_its_field():
    with pytest.raises(InconsistentEncodingError, match="outside its field width"):
        decode_divider(1 << 18, 0, 1)  # P1 is 18 bits wide


def test_phase_step_bytes_cover_the_signed_8bit_range_and_no_more():
    assert (phase_step_byte(127), phase_step_byte(-128)) == (0x7F, 0x80)
    assert (phase_steps_from_byte(0x7F), phase_steps_from_byte(0xFF)) == (127, -1)
    with pytest.raises(ValueError, match="signed 8-bit"):
        phase_step_byte(128)
    with pytest.raises(ValueError, match="outside 0..255"):
        phase_steps_from_byte(256)


def test_decode_range_restriction():
    with pytest.raises(InconsistentEncodingError):
        decode_divider(1024, 0, 1, int_range=(13, 2048))
    assert decode_divider(1024, 0, 1, int_range=(5, 2048)).a == 12


def test_decode_normalizes_unreduced_images():
    # 12 + 2/4 stored unreduced still decodes to the value 25/2
    p1 = ((12 * 4 + 2) * 128) // 4 - 512
    p2 = (2 * 128) % 4
    divider = decode_divider(p1, p2, 4)
    assert divider.value == Fraction(25, 2)
    assert math.gcd(divider.b, divider.c) == 1


def test_encode_overflow_rejected():
    with pytest.raises(FieldOverflowError):
        encode_divider(RationalDivider(3, 0, 1))  # P1 would be negative


def test_divider_roundtrip_random():
    rng = random.Random(16)
    cap = 2**30 - 1
    for _ in range(2000):
        c = rng.randint(2, cap)
        b = rng.randint(1, c - 1)
        g = math.gcd(b, c)
        b, c = b // g, c // g
        if c == 1:
            b = 0
        a = rng.randint(5, 2048)
        divider = RationalDivider(a, b, c)
        p1, p2, p3 = encode_divider(divider)
        # recompute the forward formulas independently
        assert p1 == math.floor(((a * c + b) * 128) / c) - 512
        assert p2 == (b * 128) % c
        assert p3 == c
        assert decode_divider(p1, p2, p3).value == divider.value


def test_rational_divider_validation():
    with pytest.raises(ValueError):
        RationalDivider(10, 2, 4)  # not reduced
    with pytest.raises(ValueError):
        RationalDivider(10, 3, 2)  # b >= c
    with pytest.raises(ValueError):
        RationalDivider(10, 0, 2)  # integer must use c = 1
    with pytest.raises(ValueError):
        RationalDivider(10, 1, 2**30)  # above denominator cap


def test_constraints_validation():
    with pytest.raises(ValueError):
        PlannerConstraints(max_denominator=2**30)
    with pytest.raises(ValueError):
        PlannerConstraints(vco_min=Fraction(3), vco_max=Fraction(2))
    with pytest.raises(ValueError):
        PlannerConstraints(phase_step_limit=128)


@pytest.mark.parametrize("fields, problem", [
    ({"f_in_min": Fraction(0)}, "f_in_min must be positive"),
    ({"f_out_min": Fraction(-5)}, "f_out_min must be positive"),
    ({"vco_min": Fraction(0)}, "vco_min must be positive"),
    ({"f_in_min": Fraction(30 * MHZ), "f_in_max": Fraction(20 * MHZ)},
     "f_in_min > f_in_max"),
    ({"f_out_min": Fraction(6 * MHZ), "f_out_max": Fraction(5 * MHZ)},
     "f_out_min > f_out_max"),
    ({"fb_int_min": 600}, "fb_int_min > fb_int_max"),
    ({"ms_int_min": 3000}, "ms_int_min > ms_int_max"),
    ({"fb_int_min": 0}, "fb_int_min must be at least 1"),
    ({"ms_int_min": 0}, "ms_int_min must be at least 1"),
])
def test_constraints_refuse_degenerate_windows(fields, problem):
    with pytest.raises(ValueError, match=problem):
        PlannerConstraints(**fields)


@pytest.mark.parametrize("cap", [0, -1])
def test_constraints_refuse_a_denominator_cap_below_one(cap):
    # every divider has a denominator of at least 1, so no plan keeps such a cap
    with pytest.raises(ValueError, match="max_denominator"):
        PlannerConstraints(max_denominator=cap)


# -- approximation stage, adversarial ------------------------------------------------


def brute_force_best_error(f_in, f_target, cons):
    """Minimal relative error over the whole searched plan family, by a
    full denominator sweep (every q up to the cap, nearest numerators).
    Exact but only tractable for small caps and narrow divider ranges."""
    best = None

    def consider(fb, out):
        nonlocal best
        if not cons.fb_int_min <= fb < cons.fb_int_max + 1:
            return
        if not cons.ms_int_min <= out < cons.ms_int_max + 1:
            return
        f_vco = f_in * fb
        if not cons.vco_min <= f_vco <= cons.vco_max:
            return
        error = abs(f_vco / out - f_target) / f_target
        if best is None or error < best:
            best = error

    def sweep(wanted):
        # nearest p/q from below and above for every denominator
        wn, wd = wanted.numerator, wanted.denominator
        for q in range(1, cons.max_denominator + 1):
            p = (wn * q) // wd
            yield Fraction(p, q)
            yield Fraction(p + 1, q)

    o = math.ceil(cons.vco_min / f_target)
    while f_target * o <= cons.vco_max:
        if cons.ms_int_min <= o <= cons.ms_int_max:
            for fb in sweep(f_target * o / f_in):
                consider(fb, Fraction(o))
        o += 1
    a = math.ceil(cons.vco_min / f_in)
    while f_in * a <= cons.vco_max:
        if cons.fb_int_min <= a <= cons.fb_int_max:
            for out in sweep(f_in * a / f_target):
                consider(Fraction(a), out)
        a += 1
    return best


def test_approximation_is_minimal_over_family_small_cap():
    # narrow VCO window keeps the brute force tractable: one output divider
    # and three feedback integers
    cons = PlannerConstraints(vco_min=Fraction(2_200_000_000),
                              vco_max=Fraction(2_260_000_000),
                              max_denominator=5000)
    rng = random.Random(17)
    checked_plans = checked_rejections = 0
    while checked_plans < 3 or checked_rejections < 1:
        target = Fraction(rng.randint(99 * MHZ * 999983, 101 * MHZ * 999983),
                          999983)
        brute = brute_force_best_error(F_IN, target, cons)
        try:
            plan = plan_frequency(F_IN, target, constraints=cons)
        except UnsatisfiableFrequencyError:
            # refusing is correct exactly when the family minimum misses 1e-9
            assert brute is None or brute > Fraction(1, 10**9)
            checked_rejections += 1
        else:
            oracles.assert_plan_valid(plan, cons)
            assert plan.rel_error == brute
            assert plan.rel_error <= Fraction(1, 10**9)
            checked_plans += 1


@pytest.mark.parametrize("f_in", [F_IN, Fraction(10 * MHZ), Fraction(48 * MHZ)])
def test_approximation_no_worse_than_stdlib_candidates(f_in):
    # rough targets (denominators near 1e6) have no exact plan, so the plan
    # must be at least as close as every limit_denominator candidate
    rng = random.Random(19)
    lo, hi = int(CONS.f_out_min), int(CONS.f_out_max)
    for _ in range(40):
        q = rng.choice((999983, 1048573, 10**6 + 3))
        target = Fraction(rng.randint(lo * q, hi * q), q)
        plan = plan_frequency(f_in, target)
        oracles.assert_plan_valid(plan, CONS)
        assert 0 < plan.rel_error <= Fraction(1, 10**9)
        candidates = oracles.approximate_plans(f_in, target, CONS)
        assert candidates
        assert plan.rel_error <= min(c[0] for c in candidates), target


@pytest.mark.parametrize("f_in", [F_IN, Fraction(10 * MHZ), Fraction(48 * MHZ)])
def test_approximation_is_the_first_of_both_capped_neighbors(f_in):
    """On rough targets the plan is exactly the minimum over both capped
    neighbors of every integer divider's exact partner: smallest relative
    error, then lowest f_vco, feedback denominator, output denominator,
    output value."""
    rng = random.Random(22)
    lo, hi = int(CONS.f_out_min), int(CONS.f_out_max)
    ties = 0
    for _ in range(40):
        q = rng.choice((999983, 1048573, 10**6 + 3))
        target = Fraction(rng.randint(lo * q, hi * q), q)
        plan = plan_frequency(f_in, target)
        candidates = oracles.approximate_plans(f_in, target, CONS, both_neighbors=True)
        best = min(candidates, key=oracles.approximate_rank)
        assert (plan.rel_error, plan.f_vco, plan.feedback.value,
                plan.output.value) == best, target
        ties += sum(c[0] == best[0] and c[2:] != best[2:] for c in candidates) > 0
    # equal errors from distinct divider pairs are common on these targets,
    # so the tie order is exercised
    assert ties >= 5


def test_equal_approximation_errors_resolve_to_lowest_vco():
    # a 10 MHz reference and a small cap give approximate plans whose error
    # another candidate matches exactly; the lower VCO must win
    f_in = Fraction(10 * MHZ)
    cons = PlannerConstraints(max_denominator=5000)
    rng = random.Random(20)
    ties = 0
    for _ in range(150):
        target = Fraction(rng.randint(int(CONS.f_out_min), int(CONS.f_out_max)))
        try:
            plan = plan_frequency(f_in, target, constraints=cons)
        except UnsatisfiableFrequencyError:
            continue
        if not plan.rel_error:
            continue
        candidates = oracles.approximate_plans(f_in, target, cons)
        assert plan.rel_error <= min(c[0] for c in candidates), target
        equal = [c for c in candidates
                 if c[0] == plan.rel_error and c[2:] != (plan.feedback.value,
                                                         plan.output.value)]
        for _error, f_vco, _fb, _out in equal:
            assert plan.f_vco < f_vco, target
        ties += bool(equal)
    assert ties >= 3


def test_degenerate_single_point_vco_window():
    cons = PlannerConstraints(vco_min=Fraction(2_500_000_000),
                              vco_max=Fraction(2_500_000_000))
    # just off an exactly reachable frequency, far beyond the denominator cap
    target = Fraction(2_500_000_000, 24) * Fraction(10**13 + 1, 10**13)
    plan = plan_frequency(F_IN, target, constraints=cons)
    assert plan.f_vco == Fraction(2_500_000_000)
    assert plan.feedback == RationalDivider(100, 0, 1)
    assert 0 < plan.rel_error <= Fraction(1, 10**9)


def test_equal_approximation_errors_on_one_vco_go_to_the_lower_output_denominator():
    # one VCO (2.2 GHz, feedback 88) and x = f_vco/target at the harmonic
    # mean of the neighbors 22 and 22 + 1/cap: both miss by 1/(44*cap + 1)
    cons = PlannerConstraints(vco_min=Fraction(2_200_000_000),
                              vco_max=Fraction(2_200_000_000))
    cap = cons.max_denominator
    lo, hi = Fraction(22), 22 + Fraction(1, cap)
    plan = plan_frequency(F_IN, 2_200 * MHZ / (2 * lo * hi / (lo + hi)),
                          constraints=cons)
    assert (plan.feedback, plan.output) == (RationalDivider(88, 0, 1),
                                            RationalDivider(22, 0, 1))
    assert plan.rel_error == Fraction(1, 44 * cap + 1)


def test_unsatisfiable_when_family_is_empty():
    # a VCO window that no integer feedback can reach with denominator cap 1
    cons = PlannerConstraints(vco_min=Fraction(25_000_000) * Fraction(1003, 10),
                              vco_max=Fraction(25_000_000) * Fraction(1004, 10),
                              max_denominator=1)
    target = Fraction(25_000_000) * Fraction(10035, 1000) / 25  # wants fb 100.35
    with pytest.raises(UnsatisfiableFrequencyError):
        plan_frequency(F_IN, target, constraints=cons)


# -- pinned VCO: the output divider alone -----------------------------------------


def test_pinned_plan_keeps_the_feedback_and_is_exact_when_it_can_be():
    feedback = RationalDivider(88, 0, 1)  # 2.2 GHz
    plan = plan_frequency(F_IN, 100 * MHZ, 2, feedback=feedback)
    assert (plan.feedback, plan.output, plan.channel) == \
        (feedback, RationalDivider(22, 0, 1), 2)
    assert plan.rel_error == 0


def test_pinned_plan_clamps_to_the_output_range():
    """Past either end of the output range the nearest legal divider is
    that end: ``ms_int_min``, or the largest capped fraction below
    ``ms_int_max + 1``."""
    feedback = RationalDivider(88, 0, 1)
    cap = DEFAULT_CONSTRAINTS.max_denominator
    above = PlannerConstraints(ms_int_max=21)
    plan = plan_frequency(F_IN, 2_200 * MHZ / (22 + Fraction(1, 10**12)),
                          constraints=above, feedback=feedback)
    assert plan.output == RationalDivider(21, cap - 1, cap)
    assert 0 < plan.rel_error <= Fraction(1, 10**9)
    below = PlannerConstraints(ms_int_min=22)
    plan = plan_frequency(F_IN, 2_200 * MHZ / (22 - Fraction(1, 10**12)),
                          constraints=below, feedback=feedback)
    assert plan.output == RationalDivider(22, 0, 1)
    assert 0 < plan.rel_error <= Fraction(1, 10**9)


def test_pinned_plan_ties_go_to_the_lower_divider():
    # 22 and 22 + 1/cap are neighbors under the cap; at their harmonic mean
    # x both miss f_vco / x by the same relative error, 1/(44*cap + 1)
    cap = DEFAULT_CONSTRAINTS.max_denominator
    lo, hi = Fraction(22), 22 + Fraction(1, cap)
    x = 2 * lo * hi / (lo + hi)
    plan = plan_frequency(F_IN, 2_200 * MHZ / x, feedback=RationalDivider(88, 0, 1))
    assert plan.output == RationalDivider(22, 0, 1)
    assert plan.rel_error == (hi - x) / hi == Fraction(1, 44 * cap + 1)


def test_pinned_plan_skips_a_nearer_neighbor_past_ms_int_max():
    # f_vco / target sits 1e-20 below ms_int_max + 1 = 101: that integer is
    # the nearer neighbor but no legal divider, so the one below it is kept
    cons = PlannerConstraints(ms_int_max=100)
    cap = cons.max_denominator
    x = 101 - Fraction(1, 10**20)
    plan = plan_frequency(F_IN, 2_200 * MHZ / x, constraints=cons,
                          feedback=RationalDivider(88, 0, 1))
    assert plan.output == RationalDivider(100, cap - 1, cap)
    assert plan.rel_error == (x - plan.output.value) / plan.output.value <= Fraction(1, 10**9)


def test_pinned_plan_refuses_a_feedback_outside_the_vco_window():
    with pytest.raises(ValueError, match="VCO window"):
        plan_frequency(F_IN, 100 * MHZ, feedback=RationalDivider(80, 0, 1))


def test_pinned_unsatisfiable_names_the_shared_vco():
    cons = PlannerConstraints(max_denominator=1)
    with pytest.raises(UnsatisfiableFrequencyError, match="shared VCO at 2200000000 Hz"):
        plan_frequency(F_IN, Fraction(11125, 100) * MHZ, constraints=cons,
                       feedback=RationalDivider(88, 0, 1))
    # jointly the same target is exact: feedback 89, output 20
    plan = plan_frequency(F_IN, Fraction(11125, 100) * MHZ, constraints=cons)
    assert (plan.feedback, plan.output, plan.rel_error) == \
        (RationalDivider(89, 0, 1), RationalDivider(20, 0, 1), 0)


# -- observability --------------------------------------------------------------


def test_one_debug_record_per_plan_names_its_stage(caplog):
    caplog.set_level(logging.DEBUG, logger="clockgen.planner")
    targets = {
        "int": Fraction(100 * MHZ),
        "exactfrac": Fraction(123456789),
        "approx": Fraction(146728095418128, 999983),
    }
    for stage, target in targets.items():
        caplog.clear()
        plan = plan_frequency(F_IN, target)
        (record,) = caplog.records
        assert record.name == "clockgen.planner"
        assert record.levelno == logging.DEBUG
        # lazy %-style arguments: nothing is formatted unless emitted
        picked, f_vco, examined = record.args
        assert (picked, f_vco) == (stage, plan.f_vco)
        assert examined >= 1
        assert stage in record.getMessage()
        assert str(plan.f_vco) in record.getMessage()


def test_pinned_plan_debug_record_names_its_stage_and_the_kept_vco(caplog):
    caplog.set_level(logging.DEBUG, logger="clockgen.planner")
    feedback = RationalDivider(100, 3, 7)
    plan = plan_frequency(F_IN, Fraction(146728095418128, 999983), feedback=feedback)
    (record,) = caplog.records
    picked, f_vco, examined = record.args
    assert (picked, f_vco) == ("pinned", F_IN * feedback.value)
    assert plan.f_vco == f_vco and plan.feedback == feedback
    assert examined in (1, 2)
    assert "stage pinned" in record.getMessage()
    assert str(f_vco) in record.getMessage()
