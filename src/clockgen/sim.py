"""Behavioral simulator of the evaluation board.

Models the MCU firmware as an explicit state machine: a receive interrupt
accumulates command bytes and raises a flag variable; the main loop polls
the flags, performs the register access on the addressed device, and for
reads queues the one-byte response.  Time is counted in discrete ``step``
calls (one main-loop iteration each); a raised flag is always consumed
within five steps.

:meth:`BoardState.step` is that single-step model.  The event pump calls
:meth:`BoardState.ingest`, the one receive path, and
:meth:`BoardState.run_until_idle`, which serves every buffered command in
one pass with the same ticks, flags and responses as repeated ``step``
calls.  Both run the one dispatch body, ``BoardState._serve``, bounded by
one step or by the buffer.  A pass decodes the buffered frames its limit
can reach at once through the protocol's frame table
(:func:`~clockgen.protocol.decode_frames`), which ``ingest`` decodes
through too.  It then serves the commands in one loop with no call per
command on the live register lists of each device
(:meth:`RegisterFile.cells`), trusting the decoder's range checks, and
appends their dispatch records in one ``extend``.  The board keeps cheap
counters (commands served, frames dropped, worst dispatch steps) and only
the most recent dispatch records.

The board also exposes oracle views (:meth:`BoardState.query_outputs`,
:meth:`BoardState.query_rails`) that decode the stored register state into
achieved frequencies, phase offsets, and rail voltages.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .config import StackConfig, default_config, load_pot_map, load_synth_map
from .power import plan_voltage
from .protocol import (
    Action,
    BridgeCommand,
    COMMAND_LENGTH,
    FRAME_TABLE,
    decode_frames,
)
from .readout import (
    ChannelStatus,
    decode_outputs,
    decode_rails,
    output_view,
    rail_registers,
)
from .registers import REGISTER_COUNT, RegisterFile, RegisterMap

ABSENT_DEVICE_VALUE = 0xFF
DISPATCH_STEP_BOUND = 5
# dispatch records kept; past it, the oldest are dropped half of it at a time
DISPATCH_HISTORY = 4096


class Phase(Enum):
    STARTUP = "startup"
    POWER_INIT = "power-init"
    MAIN_LOOP = "main-loop"


@dataclass(slots=True)
class DispatchRecord:
    """One executed command, with the ticks its flag was raised and served."""

    command: BridgeCommand
    flag_set_tick: int
    dispatch_tick: int


@dataclass
class FirmwareState:
    """Flags, buffers, and queues of the simulated MCU."""

    phase: Phase = Phase.STARTUP
    pending: BridgeCommand | None = None  # the raised flag's command
    rx_buffer: bytearray = field(default_factory=bytearray)
    tx_queue: bytearray = field(default_factory=bytearray)
    step_counter: int = 0
    flag_set_tick: int = 0

    @property
    def flag_raised(self) -> bool:
        return self.pending is not None

    @property
    def flag_write(self) -> bool:
        return self.pending is not None and self.pending.action is Action.WRITE

    @property
    def flag_read(self) -> bool:
        return self.pending is not None and self.pending.action is Action.READ

    def clear_queues(self) -> None:
        self.pending = None
        self.rx_buffer.clear()
        self.tx_queue.clear()


class BoardState:
    """The whole evaluation board: register files per I2C device plus the
    firmware state machine bridging the byte stream onto them."""

    def __init__(
        self,
        synth_map: RegisterMap | None = None,
        config: StackConfig | None = None,
        pot_map: RegisterMap | None = None,
    ):
        self.config = config or default_config()
        self.synth_map = synth_map if synth_map is not None else load_synth_map()
        self.pot_map = pot_map if pot_map is not None else load_pot_map()
        self.firmware = FirmwareState()
        self.session = None  # the open session (in-process or TCP); one at a time
        self.session_lock = threading.Lock()  # held while a session is open
        # the last DISPATCH_HISTORY records at most, oldest first
        self.dispatch_log: list[DispatchRecord] = []
        self.commands_served = 0
        self.frames_dropped = 0
        self.max_dispatch_steps = 0  # worst dispatch_tick - flag_set_tick
        self.devices: dict[int, RegisterFile] = {
            self.config.synth_address: RegisterFile.from_map(self.synth_map)
        }
        for rail in self.config.rails:
            self.devices.setdefault(rail.pot_address, RegisterFile.from_map(self.pot_map))
        # each device's live (values, write masks) by address, None where
        # no device answers, for _serve
        self._ports = [None] * 0x80
        for address, device in self.devices.items():
            self._ports[address] = device.cells()
        self._rail_registers = rail_registers(self.config.rails, self.pot_map)

    # -- firmware lifecycle -------------------------------------------------

    def boot(self) -> None:
        """Run startup and power-init, then enter the main loop.

        Register files return to reset values and the default rail codes are
        programmed.  Bytes already received stay buffered: commands ingested
        before the main loop are executed first thing once it runs.
        """
        fw = self.firmware
        # startup: reset register state, drop half-processed work
        for device in self.devices.values():
            device.reset()
        fw.pending = None
        fw.tx_queue.clear()
        fw.step_counter = 0
        self.dispatch_log.clear()
        self.commands_served = self.frames_dropped = self.max_dispatch_steps = 0
        # power-init: program every rail to its configured default
        fw.phase = Phase.POWER_INIT
        for rail, (address, register) in zip(self.config.rails, self._rail_registers):
            self.devices[address].write(register, plan_voltage(rail, rail.v_default).code)
        fw.phase = Phase.MAIN_LOOP

    def ingest_byte(self, byte: int) -> None:
        """Receive-interrupt analogue: buffer one byte; once four are
        pending and no flag is raised, decode them and raise the flag."""
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"byte {byte} outside 0..255")
        self.ingest(bytes((byte,)))

    def ingest(self, data: bytes) -> None:
        """Receive a whole chunk: buffer it, then frame complete commands
        while no flag is raised.  The one receive path.  Framing a chunk
        once leaves the board as framing after each of its bytes would.
        Frames are decoded through the protocol's frame table, as in
        ``_serve``.

        Undecodable frames (bad opcode, out-of-range address) discard their
        four bytes silently: the wire protocol has no error channel, exactly
        like an I2C master seeing a NACK.
        """
        fw = self.firmware
        fw.rx_buffer.extend(data)
        if fw.phase is not Phase.MAIN_LOOP:
            return
        buf = fw.rx_buffer
        while fw.pending is None and len(buf) >= COMMAND_LENGTH:
            # the table's key: the frame read as a native-order integer
            command = FRAME_TABLE[int.from_bytes(buf[:COMMAND_LENGTH], sys.byteorder)]
            del buf[:COMMAND_LENGTH]
            if command is None:
                self.frames_dropped += 1
                continue
            fw.pending = command
            fw.flag_set_tick = fw.step_counter

    def step(self) -> None:
        """One main-loop iteration: serve the raised flag, or else frame
        the next valid buffered command and serve it, if there is one."""
        if self.firmware.phase is not Phase.MAIN_LOOP:
            raise RuntimeError("step() requires the firmware main loop (boot first)")
        if not self._serve(1):
            self.firmware.step_counter += 1  # an idle iteration

    def run_until_idle(self) -> None:
        """Serve every buffered command, stepping until no flag is raised
        and no complete command is buffered.

        Leaves the board as calling :meth:`step` that many times would.
        Each step serves the raised flag or takes a frame off the buffer,
        so it ends within one step more than the frames buffered.
        """
        fw = self.firmware
        if fw.phase is not Phase.MAIN_LOOP and len(fw.rx_buffer) >= COMMAND_LENGTH:
            self.step()  # refuses before boot
        self._serve(len(fw.rx_buffer) // COMMAND_LENGTH + 1)

    def _serve(self, limit: int) -> int:
        """Run main-loop steps until idle or ``limit`` steps have run;
        return the steps run.  The one dispatch body of the board.

        A step serves the raised flag, or else frames the next valid
        command and serves it in the same tick; undecodable frames on the
        way are dropped, and bad frames after the last command take one
        step of their own.  So the whole pass is known from the decoded
        frames: the buffered frames the limit can reach are decoded at once
        (:func:`decode_frames`), and the commands within the limit are
        served in one loop, then recorded with one ``extend``.  Those are
        every whole frame when the limit is the buffer's, and otherwise a
        prefix with one frame per step left, widened while bad frames leave
        it short of commands, so a step costs the same however long the
        buffer.  A read queues its device's register, or
        ``ABSENT_DEVICE_VALUE`` for an absent device; a write sets the
        register's writable bits.  The
        decoder has proven address, register and value in range, so they
        are not checked again.  Past ``DISPATCH_HISTORY`` records the
        oldest are dropped, ``DISPATCH_HISTORY // 2`` at a time.
        """
        fw = self.firmware
        buf, log, pending, tick = fw.rx_buffer, self.dispatch_log, fw.pending, fw.step_counter
        commands, drop_step = (), False
        whole = len(buf) // COMMAND_LENGTH
        room = limit - (pending is not None)  # steps left for framed commands
        if whole and room:
            span = room  # frames decoded: the room-th command is among them
            while True:  # unless bad frames leave too few, or all are decoded
                frames = decode_frames(buf if span >= whole else buf[:span * COMMAND_LENGTH])
                commands = list(filter(None, frames))
                if len(commands) >= room or span >= whole:
                    break
                span *= 2
            if len(commands) < room:
                # every frame is taken; trailing bad ones take a step of their own
                taken, drop_step = len(frames), frames[-1] is None
            else:  # the limit ends the pass at the room-th command
                taken = room if len(commands) == len(frames) else \
                    [i for i, c in enumerate(frames, 1) if c is not None][room - 1]
                del commands[room:]
            del buf[:taken * COMMAND_LENGTH]
            self.frames_dropped += taken - len(commands)
        if pending is None:
            served = commands
        else:  # the raised flag is served first, in the pass's first tick
            served = [pending, *commands]
            wait = tick + 1 - fw.flag_set_tick
            if wait > self.max_dispatch_steps:
                self.max_dispatch_steps = wait
            log.append(DispatchRecord(pending, fw.flag_set_tick, tick + 1))
            fw.pending = None
        append, ports, read = fw.tx_queue.append, self._ports, Action.READ
        for command in served:
            port = ports[command.i2c_address]
            if command.action is read:
                append(ABSENT_DEVICE_VALUE if port is None else port[0][command.register])
            elif port is not None:
                values, masks = port
                register = command.register
                mask = masks[register]
                values[register] = (values[register] & ~mask) | (command.payload & mask)
        last = tick + len(served)
        if commands:
            # each framed command is set and served in its own step's tick
            ticks = range(last - len(commands) + 1, last + 1)
            log.extend(map(DispatchRecord, commands, ticks, ticks))
            fw.flag_set_tick = last
        if len(log) > DISPATCH_HISTORY:
            half = DISPATCH_HISTORY // 2
            del log[:(len(log) - DISPATCH_HISTORY + half - 1) // half * half]
        fw.step_counter = last + drop_step
        self.commands_served += len(served)
        return len(served) + drop_step

    def take_output(self) -> bytes:
        """Drain queued read responses, oldest first."""
        out = bytes(self.firmware.tx_queue)
        self.firmware.tx_queue.clear()
        return out

    # -- oracle views --------------------------------------------------------

    @cached_property
    def _output_view(self):
        # built on the first query: a board may run on a map without the
        # synthesizer's fields (a bare register file)
        return output_view(self.synth_map, range(REGISTER_COUNT))

    def query_outputs(self) -> list[ChannelStatus]:
        """Decode divider/phase/enable registers into per-channel status,
        straight from the synthesizer's live register list."""
        values, _masks = self.devices[self.config.synth_address].cells()
        return decode_outputs(self._output_view, values, self.config.constraints)

    def query_rails(self) -> dict[int, Fraction]:
        """Predicted volts per rail from the stored wiper codes."""
        return decode_rails([self.devices[address].read(register)
                             for address, register in self._rail_registers],
                            self.config.rails)
