"""The top-level names of the package: what a caller of the DLL-style API
imports from ``clockgen``, and where the names kept off it live."""

import importlib

import pytest

import clockgen

PUBLIC = [
    "Action",
    "AlreadyOpenError",
    "BitField",
    "BoardState",
    "BridgeClient",
    "BridgeCommand",
    "ChannelStatus",
    "ClockgenError",
    "ConfigError",
    "ConnectError",
    "DEFAULT_CONSTRAINTS",
    "DeviceHandle",
    "EncodingError",
    "FieldOverflowError",
    "FramingError",
    "FrequencyPlan",
    "InconsistentEncodingError",
    "InfeasibleVoltageError",
    "InvalidOpcodeError",
    "MapEntry",
    "NoPlanError",
    "Phase",
    "PhasePlan",
    "PhaseRangeError",
    "PlanError",
    "PlannerConstraints",
    "ProtocolError",
    "RailModel",
    "RationalDivider",
    "ReadTimeoutError",
    "RegisterFile",
    "RegisterMap",
    "RegisterMapError",
    "SessionBusyError",
    "SessionClosedError",
    "SessionConfig",
    "SimulatorServer",
    "StackConfig",
    "SupplySetting",
    "TransportError",
    "UnsatisfiableFrequencyError",
    "bridge_init",
    "decode_command",
    "decode_divider",
    "default_config",
    "encode_command",
    "encode_divider",
    "load_config",
    "load_pot_map",
    "load_synth_map",
    "open_session",
    "parse_config",
    "parse_register_map",
    "plan_frequency",
    "plan_phase",
    "plan_voltage",
]


def test_the_top_level_exports_exactly_the_public_names():
    assert PUBLIC == sorted(PUBLIC)
    assert clockgen.__all__ == PUBLIC
    namespace = {}
    exec("from clockgen import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC


@pytest.mark.parametrize("module, name", [
    ("clockgen.config", "DEFAULT_SYNTH_ADDRESS"),
    ("clockgen.config", "DEFAULT_TCP_PORT"),
    ("clockgen.planner", "apply_plan"),
    ("clockgen.power", "apply_supply"),
    ("clockgen.sim", "DispatchRecord"),
    ("clockgen.sim", "FirmwareState"),
])
def test_a_name_kept_off_the_top_level_imports_from_its_module(module, name):
    assert not hasattr(clockgen, name)
    assert hasattr(importlib.import_module(module), name)

