"""The planner's integer view of its constraint windows and its exact-plan
shortcut, against ``Fraction`` references.

Window checks run on reference inputs and targets that sit on a window edge
(the reference and band edges, and the VCO edges divided by a whole
divider) or 1e-12 relative either side of one, under constraints whose
edges are not whole numbers of Hz.  Plans on the benchmark's seeded targets
are pinned by digest, and every stage's plan is checked for exact values.
"""

import dataclasses
import hashlib
import logging
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clockgen import (
    DEFAULT_CONSTRAINTS,
    ClockgenError,
    InconsistentEncodingError,
    PlannerConstraints,
    RationalDivider,
    load_synth_map,
    plan_frequency,
)
from clockgen.planner import DENOMINATOR_HARD_CAP, as_fraction
from clockgen.readout import channel_writes, decode_feedback, output_view

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from targets import Targets  # noqa: E402  the benchmark's target stream

MHZ = 10**6
REGMAP = load_synth_map()
VIEW = output_view(REGMAP)
TINY = Fraction(1, 10**12)


def _fractional(draw, low, high):
    """A value in ``(low, high)`` that is not a whole number."""
    d = draw(st.integers(2, 10**6))
    return draw(st.integers(low, high - 1)) + Fraction(draw(st.integers(1, d - 1)), d)


def _near(draw, edge):
    """``edge`` itself, or 1e-12 relative below or above it."""
    return edge * (1 + draw(st.sampled_from([-1, 0, 0, 1])) * TINY)


def _on_edge(draw, vco_edge, low, high):
    """``low``, ``high`` or, as often as both together, ``vco_edge`` over a
    divider of denominator 1 to 3 that puts it in ``[low, high]`` if one
    does; itself or 1e-12 relative either side."""
    choices = [low, high]
    m = draw(st.sampled_from([1, 1, 2, 3]))
    first, last = math.ceil(vco_edge * m / high), math.floor(vco_edge * m / low)
    if first <= last:
        choices += [vco_edge * m / draw(st.integers(first, last))] * 2
    return _near(draw, draw(st.sampled_from(choices)))


def _width(draw, wide):
    """A window width: mostly ``(wide / 4, wide)``, sometimes under 1 Hz."""
    if draw(st.integers(0, 3)):
        return _fractional(draw, wide // 4, wide)
    return _fractional(draw, 0, 1)


@st.composite
def edge_cases(draw):
    """``(cons, f_in, target, feedback)``: constraints with fractional
    window edges, and a reference input, a target and a pinned feedback
    divider each on or next to an edge."""
    vco_min = _fractional(draw, 2_100 * MHZ, 2_300 * MHZ)
    vco_max = vco_min + _width(draw, 700 * MHZ)
    f_in_min = _fractional(draw, 5 * MHZ, 25 * MHZ)
    f_in_max = f_in_min + _width(draw, 30 * MHZ)
    f_out_min = _fractional(draw, 2 * MHZ, 10 * MHZ)
    f_out_max = f_out_min + _width(draw, 200 * MHZ)
    fb_range, ms_range = draw(st.sampled_from([((8, 566), (5, 2048))] * 2
                                              + [((90, 110), (10, 30))]))
    cons = PlannerConstraints(
        vco_min=vco_min, vco_max=vco_max, f_in_min=f_in_min, f_in_max=f_in_max,
        f_out_min=f_out_min, f_out_max=f_out_max,
        fb_int_min=fb_range[0], fb_int_max=fb_range[1],
        ms_int_min=ms_range[0], ms_int_max=ms_range[1],
        max_denominator=draw(st.sampled_from([1, 113] + [DENOMINATOR_HARD_CAP] * 3)))
    # a reference and a target off one VCO edge meet on it: a plan there
    vco_edge = draw(st.sampled_from([vco_min, vco_max]))
    f_in = _on_edge(draw, vco_edge, f_in_min, f_in_max)
    target = _on_edge(draw, vco_edge, f_out_min, f_out_max)
    # a feedback whose VCO is that edge, or a capped fraction next to it
    at_edge = vco_edge / f_in
    value = draw(st.sampled_from(
        oracles.capped_neighbors(_near(draw, at_edge), DENOMINATOR_HARD_CAP)))
    feedback = RationalDivider.from_pair(value.numerator, value.denominator)
    return cons, f_in, target, feedback


def outcome(call):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call()
    except (ValueError, ClockgenError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(edge_cases())
def test_joint_plans_agree_with_fraction_window_checks(case):
    cons, f_in, target, _feedback = case
    assert outcome(lambda: plan_frequency(f_in, target, 1, cons)) == \
        outcome(lambda: oracles.reference_plan(f_in, target, cons, 1))


# VCO edges of denominators 2 and 3 under a denominator cap of 113
EDGE_CONS = PlannerConstraints(vco_min=Fraction(4_400_000_001, 2),
                               vco_max=Fraction(8_520_000_001, 3), max_denominator=113)


@pytest.mark.parametrize("edge, n, o, side", [("vco_min", 177, 22, 1),
                                              ("vco_max", 227, 127, -1)])
def test_stage_three_keeps_a_fractional_feedback_on_a_vco_edge(edge, n, o, side):
    """With ``f_in = edge * 2/n`` the edge sits at feedback ``n/2``, and a
    target 1e-12 inside the window at output ``o`` is missed least by
    ``(n/2, o)``: among candidates of equal error it has the lowest VCO at
    ``vco_min``, and at ``vco_max`` no other candidate within the cap
    reaches ``edge / o``.  The property above draws such cases rarely."""
    vco_edge = getattr(EDGE_CONS, edge)
    f_in, target = vco_edge * 2 / n, vco_edge / o * (1 + side * TINY)
    plan = plan_frequency(f_in, target, 1, EDGE_CONS)
    assert plan == oracles.reference_plan(f_in, target, EDGE_CONS, 1)
    assert (plan.feedback.value, plan.output.value, plan.f_vco) == \
        (Fraction(n, 2), o, vco_edge)


@settings(max_examples=150, deadline=None)
@given(edge_cases())
def test_pinned_plans_agree_with_fraction_window_checks(case):
    cons, f_in, target, feedback = case
    assert outcome(lambda: plan_frequency(f_in, target, 2, cons, feedback=feedback)) == \
        outcome(lambda: oracles.reference_plan(f_in, target, cons, 2, feedback))


@settings(max_examples=150, deadline=None)
@given(edge_cases())
def test_decode_feedback_agrees_with_fraction_window_checks(case):
    cons, f_in, _target, feedback = case
    cons = dataclasses.replace(cons, f_in=f_in)
    image = dict.fromkeys(range(256), 0)
    for address, bits, mask in channel_writes(REGMAP, 0, feedback=feedback):
        image[address] = image[address] & ~mask | bits
    if not cons.fb_int_min <= feedback.a <= cons.fb_int_max:
        expected = InconsistentEncodingError, "invalid feedback divider"
    elif not cons.vco_min <= f_in * feedback.value <= cons.vco_max:
        expected = InconsistentEncodingError, "vco frequency outside window"
    else:
        expected = feedback
    values = [image[a] for a in VIEW.registers]
    assert outcome(lambda: decode_feedback(VIEW, values, cons)) == expected


# -- plans on the benchmark's targets ------------------------------------------

# pinned feedbacks: VCOs of 2.2 and 2.84 GHz, the two window edges (the
# second on a fractional divider), and two inside, one of them fractional
PINNED_FEEDBACKS = (RationalDivider(88, 0, 1), RationalDivider(113, 3, 5),
                    RationalDivider(100, 3, 7), RationalDivider(101, 0, 1))


def seeded_plans(caplog, count):
    """``(pinned, stage, examined, plan)`` for the first ``count`` targets
    of the benchmark's stream (seed 17): a joint plan on channel ``i % 4``,
    then a plan pinned to ``PINNED_FEEDBACKS[i % 4]``."""
    caplog.set_level(logging.DEBUG, logger="clockgen.planner")
    cons = DEFAULT_CONSTRAINTS
    targets = Targets(17, cons)
    for i in range(count):
        _kind, target = targets.frequency()
        for pinned in (None, PINNED_FEEDBACKS[i % 4]):
            caplog.clear()
            plan = plan_frequency(cons.f_in, target, i % 4, cons, feedback=pinned)
            (record,) = caplog.records
            stage, _f_vco, examined = record.args
            yield pinned is not None, stage, examined, plan


# sha256 of the joint and pinned plans the planner returned on these targets
# before its window checks and exact plans moved to integer pairs
JOINT_DIGEST = "7595b074236bdb7bebae845997edea2537ad3ca8215e4cc677723981be86179f"
PINNED_DIGEST = "302c4d42b1af379ab2678de94014dff056b1560abf35dea02223a8900b902f1c"


def test_plans_on_the_benchmark_targets_are_unchanged(caplog):
    """Every plan field, its DEBUG stage and its candidate count."""
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    for pinned, stage, examined, plan in seeded_plans(caplog, 6000):
        digests[pinned].update(repr((
            stage, examined, plan.f_target, plan.feedback, plan.output, plan.f_vco,
            plan.f_achieved, plan.rel_error, plan.channel)).encode())
    assert (digests[False].hexdigest(), digests[True].hexdigest()) == \
        (JOINT_DIGEST, PINNED_DIGEST)


def test_every_stage_reports_its_exact_error(caplog):
    """``rel_error`` is the exact relative miss, 0 exactly when the plan
    hits its target; an exact plan holds the target itself."""
    stages = set()
    for _pinned, stage, _examined, plan in seeded_plans(caplog, 400):
        stages.add(stage)
        assert plan.rel_error == abs(plan.f_achieved - plan.f_target) / plan.f_target
        assert (plan.rel_error == 0) == (plan.f_achieved == plan.f_target)
        if plan.rel_error == 0:
            assert plan.f_achieved is plan.f_target
    assert stages == {"int", "exactfrac", "approx", "pinned"}


def test_as_fraction_keeps_a_fraction_and_refuses_floats():
    value = Fraction(7, 3)
    assert as_fraction(value) is value
    assert as_fraction(5) == Fraction(5) and type(as_fraction(5)) is Fraction
    assert as_fraction("2.5") == Fraction(5, 2)
    with pytest.raises(TypeError, match="floats"):
        as_fraction(2.5)
