import random
from fractions import Fraction

import pytest

from clockgen import InfeasibleVoltageError, RailModel, plan_voltage

import oracles

RAIL = RailModel(rail_id=0)


def test_target_at_code_zero_is_exact():
    setting = plan_voltage(RAIL, RAIL.predict(0))
    assert setting.code == 0
    assert setting.v_error == 0


def test_default_rail_2v5():
    # frozen from the exhaustive 256-point oracle: code 127,
    # predicted 2.497734375 V, error 0.002265625 V
    setting = plan_voltage(RAIL, Fraction("2.5"))
    assert setting.code == 127
    assert setting.v_predicted == Fraction("2.497734375")
    assert setting.v_error == Fraction("0.002265625")
    assert setting.code == oracles.supply_code(RAIL, Fraction("2.5"))


def test_low_target_infeasible():
    # reachable band starts at v(0) = 1.2575 V
    assert RAIL.predict(0) == Fraction("1.2575")
    with pytest.raises(InfeasibleVoltageError):
        plan_voltage(RAIL, Fraction("0.5"))


def test_high_target_infeasible():
    with pytest.raises(InfeasibleVoltageError):
        plan_voltage(RAIL, Fraction(5))


def test_half_step_band_edges():
    low, high = RAIL.predict(0), RAIL.predict(255)
    half = (RAIL.predict(1) - low) / 2
    assert plan_voltage(RAIL, low - half).code == 0
    assert plan_voltage(RAIL, high + half).code == 255
    with pytest.raises(InfeasibleVoltageError):
        plan_voltage(RAIL, low - half - Fraction(1, 10**9))
    with pytest.raises(InfeasibleVoltageError):
        plan_voltage(RAIL, high + half + Fraction(1, 10**9))


def test_a_rail_refuses_an_8bit_pot_address_and_a_code_past_the_wiper():
    with pytest.raises(ValueError, match="7-bit"):
        RailModel(0, pot_address=0x80)
    with pytest.raises(ValueError, match="wiper code 256 outside 0..255"):
        RailModel(0).predict(256)


def test_prediction_monotone_in_code():
    previous = None
    for code in range(256):
        volts = RAIL.predict(code)
        if previous is not None:
            assert volts > previous
        previous = volts


def test_planner_matches_exhaustive_oracle():
    rng = random.Random(21)
    low, high = RAIL.predict(0), RAIL.predict(255)
    for _ in range(300):
        target = low + (high - low) * Fraction(rng.randint(0, 10**6), 10**6)
        setting = plan_voltage(RAIL, target)
        assert setting.code == oracles.supply_code(RAIL, target)
        assert setting.v_predicted == RAIL.predict(setting.code)
        assert setting.v_error == abs(setting.v_predicted - target)


def test_tie_breaks_toward_lower_code():
    # exact midpoint between two adjacent codes
    midpoint = (RAIL.predict(10) + RAIL.predict(11)) / 2
    setting = plan_voltage(RAIL, midpoint)
    assert setting.code == 10
    assert setting.code == oracles.supply_code(RAIL, midpoint)


def test_custom_rail_parameters():
    rail = RailModel(rail_id=3, v_ref="0.8", r_fixed=5000, r_ab=50000,
                     r_wiper=100, pot_address=0x2D, pot_channel=1)
    rng = random.Random(22)
    low, high = rail.predict(0), rail.predict(255)
    for _ in range(100):
        target = low + (high - low) * Fraction(rng.randint(0, 10**6), 10**6)
        assert plan_voltage(rail, target).code == oracles.supply_code(rail, target)


def test_rail_model_validation():
    with pytest.raises(ValueError):
        RailModel(rail_id=0, r_fixed=0)
    with pytest.raises(ValueError):
        RailModel(rail_id=0, pot_channel=4)
    with pytest.raises(ValueError):
        plan_voltage(RAIL, 0)
