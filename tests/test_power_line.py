"""The rail model's line against the regulator physics and the exhaustive
oracle, over the shipped rails and random rail parameters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clockgen import InfeasibleVoltageError, RailModel, default_config, plan_voltage

import oracles

# the custom rail of test_power.test_custom_rail_parameters
CUSTOM_RAIL = RailModel(rail_id=3, v_ref="0.8", r_fixed=5000, r_ab=50000,
                        r_wiper=100, pot_address=0x2D, pot_channel=1)


@pytest.mark.parametrize("rail", [*default_config().rails, CUSTOM_RAIL],
                         ids=lambda rail: f"rail{rail.rail_id}")
def test_predict_equals_physics_for_every_code(rail):
    for code in range(256):
        assert rail.predict(code) == oracles.rail_volts(rail, code), code


def _check_plan(rail, target):
    """plan_voltage agrees with the exhaustive oracle on ``target``: the
    nearest code (ties lower) when it lies within half a step, else an
    infeasible target."""
    if target <= 0:
        with pytest.raises(ValueError):
            plan_voltage(rail, target)
        return
    code = oracles.supply_code(rail, target)
    volts = oracles.rail_volts(rail, code)
    step = oracles.rail_volts(rail, 1) - oracles.rail_volts(rail, 0)
    if abs(volts - target) > step / 2:
        with pytest.raises(InfeasibleVoltageError):
            plan_voltage(rail, target)
        return
    setting = plan_voltage(rail, target)
    assert setting.code == code
    assert setting.v_predicted == volts
    assert setting.v_error == abs(volts - target)


_positive = st.fractions(min_value=Fraction(1, 100), max_value=10**6,
                         max_denominator=1000)
_HALF = Fraction(1, 2)
_JUST_PAST = _HALF + Fraction(1, 10**9)


@settings(max_examples=100, deadline=None)
@given(v_ref=st.fractions(min_value=Fraction(1, 10), max_value=10,
                          max_denominator=1000),
       r_fixed=_positive, r_ab=_positive, r_wiper=_positive,
       code=st.integers(0, 255),
       offset=st.one_of(
           st.sampled_from([-_JUST_PAST, -_HALF, Fraction(0), _HALF, _JUST_PAST]),
           st.fractions(min_value=-1, max_value=1, max_denominator=10**6)))
def test_plan_voltage_matches_oracle_on_random_rails(v_ref, r_fixed, r_ab, r_wiper,
                                                     code, offset):
    """A target ``offset`` steps from ``code``'s voltage, the exact
    midpoints on either side of it, and targets exactly half a step and just
    past half a step beyond each end of the band."""
    rail = RailModel(rail_id=0, v_ref=v_ref, r_fixed=r_fixed, r_ab=r_ab,
                     r_wiper=r_wiper)
    step = oracles.rail_volts(rail, 1) - oracles.rail_volts(rail, 0)
    volts = oracles.rail_volts(rail, code)
    low, high = oracles.rail_volts(rail, 0), oracles.rail_volts(rail, 255)
    targets = [volts + offset * step, volts - step / 2, volts + step / 2,
               low - step / 2, high + step / 2,
               low - _JUST_PAST * step, high + _JUST_PAST * step]
    for target in targets:
        _check_plan(rail, target)
