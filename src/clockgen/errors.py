"""Exception hierarchy shared by every layer of the stack."""

from __future__ import annotations


class ClockgenError(Exception):
    """Base class for all errors raised by this package."""


class ProtocolError(ClockgenError):
    """Malformed traffic at the wire-protocol layer."""


class FramingError(ProtocolError):
    """A command frame had the wrong length."""


class InvalidOpcodeError(ProtocolError):
    """First byte of a command frame was neither the read nor write opcode."""


class _LineError(ClockgenError):
    """An error that names the input line it was found on, when there is one."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RegisterMapError(_LineError):
    """Register-map file could not be parsed or failed validation."""


class ConfigError(_LineError):
    """Configuration file could not be parsed or failed validation."""


class TransportError(ClockgenError):
    """Session-layer failure."""


class ConnectError(TransportError):
    """Endpoint could not be reached."""


class AlreadyOpenError(TransportError):
    """The device already has an active session."""


class SessionClosedError(TransportError):
    """Operation on a session that is no longer open."""


class ReadTimeoutError(TransportError):
    """Requested bytes did not arrive within the read timeout."""


class SessionBusyError(TransportError):
    """Concurrent calls on one session (contract violation)."""


class PlanError(ClockgenError):
    """A planning request could not be satisfied."""


class UnsatisfiableFrequencyError(PlanError):
    """No divider pair realizes the target within constraints."""


class PhaseRangeError(PlanError):
    """Requested phase offset exceeds the step counter range."""


class NoPlanError(PlanError):
    """Phase requested on a channel that has no frequency plan yet."""


class InfeasibleVoltageError(PlanError):
    """Target voltage lies outside the rail's reachable band."""


class EncodingError(ClockgenError):
    """Divider register encoding/decoding failure."""


class FieldOverflowError(EncodingError):
    """Encoded parameter does not fit its register field width."""


class InconsistentEncodingError(EncodingError):
    """Register fields do not correspond to any legal divider value."""
