"""Bit-exact codec for the 4-byte bridge command.

Every transaction crossing the bridge is a fixed 4-byte frame:

    byte 0   opcode: 0xFF = write, 0x00 = read
    byte 1   7-bit I2C address of the target device (unshifted)
    byte 2   register address inside the target device
    byte 3   value to write (transmitted as 0x00 for reads)

A read is answered by exactly one byte carrying the register value; there
is no status or echo byte.  Fixed-length frames keep the byte stream
self-delimiting over any transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FramingError, InvalidOpcodeError

WRITE_OPCODE = 0xFF
READ_OPCODE = 0x00
COMMAND_LENGTH = 4
RESPONSE_LENGTH = 1


class Action(Enum):
    WRITE = "write"
    READ = "read"


@dataclass(frozen=True)
class BridgeCommand:
    """One register read or write crossing the bridge.

    ``payload`` carries the write value; for reads it is normalized to 0x00
    (the wire transmits the byte but the device ignores it).
    """

    action: Action
    i2c_address: int
    register: int
    payload: int = 0x00

    def __post_init__(self):
        if not 0 <= self.i2c_address <= 0x7F:
            raise ValueError(
                f"i2c address 0x{self.i2c_address:02X} outside 7-bit range"
            )
        if not 0 <= self.register <= 0xFF:
            raise ValueError(f"register address {self.register} outside 0..255")
        if not 0 <= self.payload <= 0xFF:
            raise ValueError(f"payload {self.payload} outside 0..255")
        if self.action is Action.READ and self.payload != 0x00:
            object.__setattr__(self, "payload", 0x00)

    @classmethod
    def write(cls, i2c_address: int, register: int, value: int) -> "BridgeCommand":
        return cls(Action.WRITE, i2c_address, register, value)

    @classmethod
    def read(cls, i2c_address: int, register: int) -> "BridgeCommand":
        """The read of ``register`` on ``i2c_address``.

        Shared: a command is a frozen value, so every caller passing plain
        ints gets the one instance kept per valid ``(i2c_address,
        register)``, at most 128 * 256 of them, the same instance that
        :func:`decode_command` returns for that read's frame.  Other
        argument types (``6.0``, ``True``) get an instance of their own, so
        theirs is never handed to callers passing ``6`` or ``1``.  Invalid
        arguments raise every time.  ``BridgeCommand.read.cache_clear()``
        empties the shared set.
        """
        if (type(i2c_address) is int and type(register) is int
                and 0 <= i2c_address <= 0x7F and 0 <= register <= 0xFF):
            return _SHARED_READS[i2c_address << 8 | register]
        return cls(Action.READ, i2c_address, register)


class _SharedReads(dict):
    """The shared read commands, keyed ``i2c_address << 8 | register`` and
    built on first use."""

    def __missing__(self, key: int) -> BridgeCommand:
        command = self[key] = BridgeCommand(Action.READ, key >> 8, key & 0xFF)
        return command


_SHARED_READS = _SharedReads()
BridgeCommand.read.__func__.cache_clear = _SHARED_READS.clear


def encode_command(cmd: BridgeCommand) -> bytes:
    """Serialize a command to its 4-byte frame."""
    opcode = WRITE_OPCODE if cmd.action is Action.WRITE else READ_OPCODE
    return bytes((opcode, cmd.i2c_address, cmd.register, cmd.payload))


def decode_command(data: bytes) -> BridgeCommand:
    """Parse a 4-byte frame.  Inverse of :func:`encode_command` on its range.

    Total over 4-byte inputs: anything that is not a valid frame raises a
    typed error, never crashes.  A read's payload byte is ignored and
    normalized to 0x00.
    """
    if len(data) != COMMAND_LENGTH:
        raise FramingError(f"command frame must be {COMMAND_LENGTH} bytes, got {len(data)}")
    opcode, address, register, payload = data
    if opcode == READ_OPCODE:
        if address <= 0x7F:
            return _SHARED_READS[address << 8 | register]
    elif opcode == WRITE_OPCODE:
        if address <= 0x7F:
            # every field is one frame byte in range, which is all that
            # __post_init__ would check, so the fields are set directly
            command = object.__new__(BridgeCommand)
            fields = command.__dict__
            fields["action"] = Action.WRITE
            fields["i2c_address"] = address
            fields["register"] = register
            fields["payload"] = payload
            return command
    else:
        raise InvalidOpcodeError(f"unknown opcode 0x{opcode:02X}")
    raise FramingError(f"i2c address 0x{address:02X} outside 7-bit range")
