"""The top-level names of the package: what a caller of the DLL-style API
imports from ``clockgen``, and where the names kept off it live."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
])
def test_a_name_kept_off_the_top_level_imports_from_its_module(module, name):
    assert not hasattr(clockgen, name)
    assert hasattr(importlib.import_module(module), name)



# Run in a fresh interpreter: what each step loaded, as JSON on stdout.
_IMPORT_PROBE = """
import socket, sys
import clockgen
bare = sorted(m for m in sys.modules if m.startswith("clockgen."))
import clockgen.cli
cli = sorted({"clockgen.sim", "clockgen.server", "dataclasses", "inspect"} & set(sys.modules))
from clockgen.transport import TcpSession
with socket.create_server(("127.0.0.1", 0)) as listener:
    TcpSession.connect("127.0.0.1", listener.getsockname()[1]).close()
idna = "encodings.idna" in sys.modules
try:
    clockgen.no_such_name
except AttributeError as exc:
    missing = str(exc)
import json
print(json.dumps({"bare": bare, "cli": cli, "idna": idna, "dir": dir(clockgen),
                  "missing": missing}))
"""


def test_each_import_loads_only_what_it_uses():
    """``import clockgen`` loads no submodule; the command line loads
    neither the simulator nor ``dataclasses``; a TCP connect to an ASCII
    host loads no idna codec; the lazy top-level names are all listed by
    ``dir()``, and an unknown one is an ``AttributeError`` naming it."""
    src = str(Path(clockgen.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded["bare"] == []
    assert loaded["cli"] == []
    assert loaded["idna"] is False
    assert set(PUBLIC) <= set(loaded["dir"])
    assert loaded["missing"] == "module 'clockgen' has no attribute 'no_such_name'"


def test_the_command_line_loads_neither_typing_nor_pathlib():
    """Run without ``site`` (``-S``), which may load both itself."""
    src = str(Path(clockgen.__file__).parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import clockgen.cli; "
             "print(sorted({'typing', 'pathlib'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
