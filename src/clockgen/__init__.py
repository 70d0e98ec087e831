"""Host control stack and behavioral simulator for a four-output
any-frequency clock generator board reached over a byte-oriented bridge.

Layers, bottom up: wire-protocol codec, byte-stream sessions (in-process or
TCP), the bridge client (register read/write), and the device client
(frequency, phase, enables, rails).  The simulator mirrors the board end to
end so everything is testable with no hardware, and its query operations
serve as the oracle for the planners.

Each top-level name is loaded on first use (PEP 562 module ``__getattr__``):
``import clockgen`` loads no submodule, and a name loads only the module
that defines it and what that module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each top-level name
_MODULES = {name: module for module, names in {
    "config": ("StackConfig", "default_config", "load_config", "load_pot_map",
               "load_synth_map", "parse_config"),
    "errors": ("AlreadyOpenError", "ClockgenError", "ConfigError", "ConnectError",
               "EncodingError", "FieldOverflowError", "FramingError",
               "InconsistentEncodingError", "InfeasibleVoltageError",
               "InvalidOpcodeError", "NoPlanError", "PhaseRangeError", "PlanError",
               "ProtocolError", "ReadTimeoutError", "RegisterMapError",
               "SessionBusyError", "SessionClosedError", "TransportError",
               "UnsatisfiableFrequencyError"),
    "host": ("BridgeClient", "DeviceHandle", "bridge_init"),
    "planner": ("DEFAULT_CONSTRAINTS", "FrequencyPlan", "PhasePlan",
                "PlannerConstraints", "RationalDivider", "plan_frequency", "plan_phase"),
    "power": ("RailModel", "SupplySetting", "plan_voltage"),
    "protocol": ("Action", "BridgeCommand", "decode_command", "encode_command"),
    "readout": ("ChannelStatus", "decode_divider", "encode_divider"),
    "registers": ("BitField", "MapEntry", "RegisterFile", "RegisterMap",
                  "parse_register_map"),
    "server": ("SimulatorServer",),
    "sim": ("BoardState", "Phase"),
    "transport": ("SessionConfig", "open_session"),
}.items() for name in names}

__all__ = sorted(_MODULES)


def __getattr__(name):
    """Load a top-level name from its module on first use, then keep it."""
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
