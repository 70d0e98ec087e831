"""Bit-exact codec for the 4-byte bridge command.

Every transaction crossing the bridge is a fixed 4-byte frame:

    byte 0   opcode: 0xFF = write, 0x00 = read
    byte 1   7-bit I2C address of the target device (unshifted)
    byte 2   register address inside the target device
    byte 3   value to write (transmitted as 0x00 for reads)

A read is answered by exactly one byte carrying the register value; there
is no status or echo byte.  Fixed-length frames keep the byte stream
self-delimiting over any transport.

:func:`decode_command` is the one decoder.  :data:`FRAME_TABLE` remembers
what it made of each frame, keyed by the frame's four bytes read as one
native-order 32-bit integer (``None`` for a frame it refuses), and holds
the shared read commands that :meth:`BridgeCommand.read` returns.  It
holds at most :data:`FRAME_TABLE_BOUND` entries and is emptied when a
miss finds it full; each write entry costs about 170 bytes (the command,
its key and its slot).  :func:`decode_frames` looks up every whole frame
of a receive buffer in it at once, which is how the simulated board
decodes what it serves: about 0.08 µs a frame once the table holds it,
against about 0.3 µs for a ``decode_command`` call on a read frame and
1.1 µs on a write frame (one CPU, Python 3.11).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import Enum

from .errors import FramingError, InvalidOpcodeError, ProtocolError

WRITE_OPCODE = 0xFF
READ_OPCODE = 0x00
COMMAND_LENGTH = 4
RESPONSE_LENGTH = 1
# entries FRAME_TABLE holds at most: twice the ~8,200 distinct frames that
# 75,000 benchmark retune ops settle at, so that traffic never empties it;
# about 3 MB when full
FRAME_TABLE_BOUND = 1 << 14
# the shifts that place a read's address and register bytes in its frame's
# key; array("I") reads frames as keys, 4 bytes wherever CPython runs
_ADDRESS_SHIFT, _REGISTER_SHIFT = (8, 16) if sys.byteorder == "little" else (16, 8)


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
        ints gets the one instance :data:`FRAME_TABLE` keeps for that
        read's frame, the same instance that :func:`decode_command` and
        :func:`decode_frames` return for it.  Other argument types
        (``6.0``, ``True``) get an instance of their own, so theirs is
        never handed to callers passing ``6`` or ``1``.  Invalid arguments
        raise every time.  ``BridgeCommand.read.cache_clear()`` empties the
        table; the next call builds the read afresh.
        """
        if (type(i2c_address) is int and type(register) is int
                and 0 <= i2c_address <= 0x7F and 0 <= register <= 0xFF):
            return _shared_read(i2c_address, register)
        return cls(Action.READ, i2c_address, register)


class _FrameTable(dict):
    """Decoded commands by frame key, filled by :func:`decode_command` on a
    miss: ``None`` for a frame it refuses, and for a read frame, whatever
    its payload byte, the shared read at the key of its frame with payload
    0x00.  A miss that finds the table full, with no room for the frame's
    entry and a read's shared instance, empties it first."""

    def __missing__(self, key: int) -> BridgeCommand | None:
        self.make_room()
        try:
            command = decode_command(key.to_bytes(COMMAND_LENGTH, sys.byteorder))
        except ProtocolError:
            command = None
        self[key] = command
        return command

    def make_room(self) -> None:
        """Empty the table unless two more entries fit its bound."""
        if len(self) >= FRAME_TABLE_BOUND - 1:
            self.clear()


FRAME_TABLE = _FrameTable()
BridgeCommand.read.__func__.cache_clear = FRAME_TABLE.clear


def _shared_read(i2c_address: int, register: int) -> BridgeCommand:
    """The read kept in :data:`FRAME_TABLE` at its frame's key, built on
    first use; its fields are in range."""
    key = i2c_address << _ADDRESS_SHIFT | register << _REGISTER_SHIFT
    command = FRAME_TABLE.get(key)
    if command is None:
        FRAME_TABLE.make_room()
        command = FRAME_TABLE[key] = BridgeCommand(Action.READ, i2c_address, register)
    return command


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
            return _shared_read(address, register)
    elif opcode == WRITE_OPCODE:
        if address <= 0x7F:
            # every field is one frame byte in range, which is all that
            # __post_init__ would check, so the fields are set directly;
            # through object.__setattr__, as the instance's __dict__ would
            # add a dict of its own to each write the frame table keeps
            command = object.__new__(BridgeCommand)
            setfield = object.__setattr__
            setfield(command, "action", Action.WRITE)
            setfield(command, "i2c_address", address)
            setfield(command, "register", register)
            setfield(command, "payload", payload)
            return command
    else:
        raise InvalidOpcodeError(f"unknown opcode 0x{opcode:02X}")
    raise FramingError(f"i2c address 0x{address:02X} outside 7-bit range")


def decode_frames(buffer: bytes | bytearray) -> list[BridgeCommand | None]:
    """Every whole frame of ``buffer``, in order, as :func:`decode_command`
    decodes it, ``None`` where it refuses one; a partial frame at the end
    is left out.  One C-level ``map`` of :data:`FRAME_TABLE` lookups over
    the whole frames read as native 32-bit keys."""
    whole = len(buffer) - len(buffer) % COMMAND_LENGTH
    return list(map(FRAME_TABLE.__getitem__, array("I", buffer[:whole])))
