"""Host control stack and behavioral simulator for a four-output
any-frequency clock generator board reached over a byte-oriented bridge.

Layers, bottom up: wire-protocol codec, byte-stream sessions (in-process or
TCP), the bridge client (register read/write), and the device client
(frequency, phase, enables, rails).  The simulator mirrors the board end to
end so everything is testable with no hardware, and its query operations
serve as the oracle for the planners.
"""

from .config import (
    StackConfig,
    default_config,
    load_config,
    load_pot_map,
    load_synth_map,
    parse_config,
)
from .errors import (
    AlreadyOpenError,
    ClockgenError,
    ConfigError,
    ConnectError,
    EncodingError,
    FieldOverflowError,
    FramingError,
    InconsistentEncodingError,
    InfeasibleVoltageError,
    InvalidOpcodeError,
    NoPlanError,
    PhaseRangeError,
    PlanError,
    ProtocolError,
    ReadTimeoutError,
    RegisterMapError,
    SessionBusyError,
    SessionClosedError,
    TransportError,
    UnsatisfiableFrequencyError,
)
from .host import BridgeClient, DeviceHandle, bridge_init
from .planner import (
    DEFAULT_CONSTRAINTS,
    FrequencyPlan,
    PhasePlan,
    PlannerConstraints,
    RationalDivider,
    plan_frequency,
    plan_phase,
)
from .power import RailModel, SupplySetting, plan_voltage
from .protocol import Action, BridgeCommand, decode_command, encode_command
from .readout import ChannelStatus, decode_divider, encode_divider
from .registers import BitField, MapEntry, RegisterFile, RegisterMap, parse_register_map
from .server import SimulatorServer
from .sim import BoardState, Phase
from .transport import SessionConfig, open_session

__version__ = "0.1.0"

__all__ = [
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
