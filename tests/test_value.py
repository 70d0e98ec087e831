"""The record and value types: built without ``dataclasses``, they keep what
the dataclasses gave them.  A value type refuses assignment, is equal to
and hashes as an instance of its class with equal fields, and keeps its
repr; the two mutable records keep their repr and equality."""

from fractions import Fraction

import pytest

from clockgen import (
    BitField,
    BridgeCommand,
    ChannelStatus,
    FrequencyPlan,
    MapEntry,
    PhasePlan,
    PlannerConstraints,
    RailModel,
    RationalDivider,
    SessionConfig,
    StackConfig,
    SupplySetting,
)
from clockgen.sim import DispatchRecord

_CONSTRAINTS_REPR = (
    "PlannerConstraints(f_in=Fraction(25000000, 1), vco_min=Fraction(2200000000, 1), "
    "vco_max=Fraction(2840000000, 1), fb_int_min=8, fb_int_max=566, ms_int_min=5, "
    "ms_int_max=2048, max_denominator={cap}, phase_step_limit=127, "
    "f_out_min=Fraction(5000000, 1), f_out_max=Fraction(200000000, 1), "
    "f_in_min=Fraction(10000000, 1), f_in_max=Fraction(50000000, 1))")
_RAIL0_REPR = ("RailModel(rail_id=0, pot_address=44, pot_channel=0, v_ref=Fraction(5, 4), "
               "r_fixed=Fraction(10000, 1), r_ab=Fraction(20000, 1), r_wiper=Fraction(60, 1), "
               "v_default=Fraction(5, 2))")

# each value type: how to build one, and the repr the dataclass gave it
VALUES = [
    (lambda: PlannerConstraints(), _CONSTRAINTS_REPR.format(cap=1073741823)),
    (lambda: RationalDivider(12, 5, 7), "RationalDivider(a=12, b=5, c=7)"),
    (lambda: FrequencyPlan(Fraction(25_000_000), Fraction(100_000_000),
                           RationalDivider(88, 0, 1), RationalDivider(22, 0, 1),
                           Fraction(2_200_000_000), Fraction(100_000_000), Fraction(0), 2),
     "FrequencyPlan(f_in=Fraction(25000000, 1), f_target=Fraction(100000000, 1), "
     "feedback=RationalDivider(a=88, b=0, c=1), output=RationalDivider(a=22, b=0, c=1), "
     "f_vco=Fraction(2200000000, 1), f_achieved=Fraction(100000000, 1), "
     "rel_error=Fraction(0, 1), channel=2)"),
    (lambda: PhasePlan(2, Fraction(1, 2_200_000_000), Fraction(1, 1_100_000_000),
                       Fraction(-1, 10**12)),
     "PhasePlan(steps=2, quantum=Fraction(1, 2200000000), "
     "offset_achieved=Fraction(1, 1100000000), residual=Fraction(-1, 1000000000000))"),
    (lambda: RailModel(1, 0x2D, 2, v_default="1.8"),
     "RailModel(rail_id=1, pot_address=45, pot_channel=2, v_ref=Fraction(5, 4), "
     "r_fixed=Fraction(10000, 1), r_ab=Fraction(20000, 1), r_wiper=Fraction(60, 1), "
     "v_default=Fraction(9, 5))"),
    (lambda: SupplySetting(127, Fraction(33, 10), Fraction(1, 200)),
     "SupplySetting(code=127, v_predicted=Fraction(33, 10), v_error=Fraction(1, 200))"),
    (lambda: StackConfig(PlannerConstraints(max_denominator=113), (RailModel(0),), 0x60),
     f"StackConfig(constraints={_CONSTRAINTS_REPR.format(cap=113)}, "
     f"rails=({_RAIL0_REPR},), synth_address=96)"),
    (lambda: BridgeCommand.write(0x70, 6, 0x77),
     "BridgeCommand(action=<Action.WRITE: 'write'>, i2c_address=112, register=6, "
     "payload=119)"),
    (lambda: ChannelStatus(1, True, Fraction(100_000_000), Fraction(0), None),
     "ChannelStatus(channel=1, enabled=True, f_out=Fraction(100000000, 1), "
     "phase_offset=Fraction(0, 1), problem=None)"),
    (lambda: BitField("wiper0", 0x1C, 7, 0),
     "BitField(name='wiper0', address=28, msb=7, lsb=0)"),
    (lambda: MapEntry(0x10, 0x80, 0x7F), "MapEntry(address=16, reset=128, mask=127)"),
    (lambda: SessionConfig("tcp", "::1", 5000, 0.5),
     "SessionConfig(endpoint='tcp', host='::1', port=5000, read_timeout=0.5)"),
]
_IDS = [text.partition("(")[0] for _build, text in VALUES]


@pytest.mark.parametrize("build, text", VALUES, ids=_IDS)
def test_a_value_keeps_its_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", VALUES, ids=_IDS)
def test_equal_values_hash_equal(build, text):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != text and first != object()


@pytest.mark.parametrize("build, text", VALUES, ids=_IDS)
def test_a_value_refuses_assignment(build, text):
    value = build()
    fields = dict(vars(value))
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=repr(name)):
            delattr(value, name)
    assert vars(value) == fields and repr(value) == text


def test_values_differ_by_any_field_and_by_class():
    assert RationalDivider(12, 5, 7) != RationalDivider(12, 5, 9)
    assert BridgeCommand.write(0x70, 6, 0x77) != BridgeCommand.write(0x70, 6, 0x78)
    assert BridgeCommand.write(0x70, 6, 0x00) != BridgeCommand.read(0x70, 6)
    assert MapEntry(1, 2, 3) != (1, 2, 3)


def test_a_cached_property_leaves_equality_and_hash_alone():
    warm, cold = PlannerConstraints(), PlannerConstraints()
    assert warm.windows is warm.windows  # computed once, kept in vars()
    assert "windows" in vars(warm)
    assert warm == cold and hash(warm) == hash(cold)
    rail = RailModel(0)
    assert rail.line == RailModel(0).line
    assert rail == RailModel(0) and hash(rail) == hash(RailModel(0))


def test_vars_holds_the_fields():
    assert vars(RationalDivider(12, 5, 7)) == {"a": 12, "b": 5, "c": 7}


def test_the_records_stay_mutable_and_unhashable():
    command = BridgeCommand.read(0x70, 6)
    record = DispatchRecord(command, 3, 4)
    assert repr(record) == (
        "DispatchRecord(command=BridgeCommand(action=<Action.READ: 'read'>, "
        "i2c_address=112, register=6, payload=0), flag_set_tick=3, dispatch_tick=4)")
    assert record == DispatchRecord(command, 3, 4) != DispatchRecord(command, 3, 5)
    record.dispatch_tick = 5
    assert record == DispatchRecord(command, 3, 5)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
