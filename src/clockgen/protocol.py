"""Bit-exact codec for the 4-byte bridge command.

Every transaction crossing the bridge is a fixed 4-byte frame:

    byte 0   opcode: 0xFF = write, 0x00 = read
    byte 1   7-bit I2C address of the target device (unshifted)
    byte 2   register address inside the target device
    byte 3   value to write (transmitted as 0x00 for reads)

A read is answered by exactly one byte carrying the register value; there
is no status or echo byte.  Fixed-length frames keep the byte stream
self-delimiting over any transport.

:func:`decode_command` is the one decoder.  :data:`FRAME_TABLE` is a
bounded memo of what it made of each frame, keyed by the frame's four
bytes read as one native-order 32-bit integer (``None`` for a frame it
refuses).  It holds at most :data:`FRAME_TABLE_BOUND` entries and is
emptied when a miss finds it full; each entry costs about 170 bytes (the
command, its key and its slot).  :func:`decode_frames` looks up every
whole frame of a receive buffer in it at once, which is how the simulated
board decodes what it serves: about 0.08 µs a frame once the table holds
it, against about 1.2 µs for a ``decode_command`` call (one CPU,
Python 3.11).
"""

from __future__ import annotations

import sys
from array import array
from enum import Enum

from .errors import FramingError, InvalidOpcodeError, ProtocolError
from .value import Value, setfield

WRITE_OPCODE = 0xFF
READ_OPCODE = 0x00
COMMAND_LENGTH = 4
RESPONSE_LENGTH = 1
# entries FRAME_TABLE holds at most: twice the ~8,200 distinct frames that
# 75,000 benchmark retune ops settle at, so that traffic never empties it;
# about 3 MB when full
FRAME_TABLE_BOUND = 1 << 14


class Action(Enum):
    WRITE = "write"
    READ = "read"


class BridgeCommand(Value):
    """One register read or write crossing the bridge.

    ``payload`` carries the write value; for reads it is normalized to 0x00
    (the wire transmits the byte but the device ignores it).
    """

    def __init__(self, action: Action, i2c_address: int, register: int,
                 payload: int = 0x00):
        if not 0 <= i2c_address <= 0x7F:
            raise ValueError(f"i2c address 0x{i2c_address:02X} outside 7-bit range")
        if not 0 <= register <= 0xFF:
            raise ValueError(f"register address {register} outside 0..255")
        if not 0 <= payload <= 0xFF:
            raise ValueError(f"payload {payload} outside 0..255")
        setfield(self, "action", action)
        setfield(self, "i2c_address", i2c_address)
        setfield(self, "register", register)
        setfield(self, "payload", 0x00 if action is Action.READ else payload)

    @classmethod
    def write(cls, i2c_address: int, register: int, value: int) -> "BridgeCommand":
        return cls(Action.WRITE, i2c_address, register, value)

    @classmethod
    def read(cls, i2c_address: int, register: int) -> "BridgeCommand":
        return cls(Action.READ, i2c_address, register)


class _FrameTable(dict):
    """Decoded commands by frame key, filled by :func:`decode_command` on a
    miss, ``None`` for a frame it refuses.  A miss that finds the table
    full empties it first."""

    def __missing__(self, key: int) -> BridgeCommand | None:
        if len(self) >= FRAME_TABLE_BOUND:
            self.clear()
        try:
            command = decode_command(key.to_bytes(COMMAND_LENGTH, sys.byteorder))
        except ProtocolError:
            command = None
        self[key] = command
        return command


FRAME_TABLE = _FrameTable()


def encode_command(cmd: BridgeCommand) -> bytes:
    """Serialize a command to its 4-byte frame."""
    opcode = WRITE_OPCODE if cmd.action is Action.WRITE else READ_OPCODE
    return bytes((opcode, cmd.i2c_address, cmd.register, cmd.payload))


def decode_command(data: bytes) -> BridgeCommand:
    """Parse a 4-byte frame.  Inverse of :func:`encode_command` on its range.

    Total over 4-byte inputs: anything that is not a valid frame raises a
    typed error, never crashes.  The frame's length and opcode are checked
    here; the fields are checked by :class:`BridgeCommand`, which holds
    them, and its refusal (an address past 7 bits) is raised as
    :class:`FramingError` with the same message.  A read's payload byte is
    ignored and normalized to 0x00.
    """
    if len(data) != COMMAND_LENGTH:
        raise FramingError(f"command frame must be {COMMAND_LENGTH} bytes, got {len(data)}")
    opcode, address, register, payload = data
    if opcode == WRITE_OPCODE:
        action = Action.WRITE
    elif opcode == READ_OPCODE:
        action = Action.READ
    else:
        raise InvalidOpcodeError(f"unknown opcode 0x{opcode:02X}")
    try:
        return BridgeCommand(action, address, register, payload)
    except ValueError as exc:
        raise FramingError(*exc.args) from None


def decode_frames(buffer: bytes | bytearray) -> list[BridgeCommand | None]:
    """Every whole frame of ``buffer``, in order, as :func:`decode_command`
    decodes it, ``None`` where it refuses one; a partial frame at the end
    is left out.  One C-level ``map`` of :data:`FRAME_TABLE` lookups over
    the whole frames read as native 32-bit keys."""
    whole = len(buffer) - len(buffer) % COMMAND_LENGTH
    # array("I") items are 4 bytes wherever CPython runs
    return list(map(FRAME_TABLE.__getitem__, array("I", buffer[:whole])))
