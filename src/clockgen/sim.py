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
calls.  Both run the one dispatch loop, ``BoardState._serve``, bounded by
one step or by the buffer.  The loop serves each command inline, with
no call but ``decode_command`` per frame, on the live register lists of
each device (:meth:`RegisterFile.cells`), trusting the decoder's range
checks.  The board keeps cheap counters (commands served, frames dropped,
worst dispatch steps) and only the most recent dispatch records.

The board also exposes oracle views (:meth:`BoardState.query_outputs`,
:meth:`BoardState.query_rails`) that decode the stored register state into
achieved frequencies, phase offsets, and rail voltages.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .config import StackConfig, default_config, load_pot_map, load_synth_map
from .errors import ProtocolError
from .power import plan_voltage
from .protocol import (
    Action,
    BridgeCommand,
    COMMAND_LENGTH,
    decode_command,
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
# dispatch records kept; past it, the older half is dropped
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
        # each device's live (values, write masks), for _serve
        self._ports = {address: device.cells() for address, device in self.devices.items()}
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
        while no flag is raised.  The one receive path.

        Undecodable frames (bad opcode, out-of-range address) discard their
        four bytes silently: the wire protocol has no error channel, exactly
        like an I2C master seeing a NACK.
        """
        fw = self.firmware
        fw.rx_buffer.extend(data)
        if fw.phase is not Phase.MAIN_LOOP:
            return
        while fw.pending is None and len(fw.rx_buffer) >= COMMAND_LENGTH:
            frame = bytes(fw.rx_buffer[:COMMAND_LENGTH])
            del fw.rx_buffer[:COMMAND_LENGTH]
            try:
                command = decode_command(frame)
            except ProtocolError:
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
        way are dropped.  A read queues its device's register, or
        ``ABSENT_DEVICE_VALUE`` for an absent device; a write sets the
        register's writable bits.  ``decode_command`` has proven address,
        register and value in range, so they are not checked again.  Each
        command is counted and keeps its record; past ``DISPATCH_HISTORY``
        records the older half is dropped.  Frames are read in place and
        cut from the buffer once.
        """
        fw = self.firmware
        buf, tx, log, ports = fw.rx_buffer, fw.tx_queue, self.dispatch_log, self._ports
        decode, read, record = decode_command, Action.READ, DispatchRecord
        command, set_tick, tick = fw.pending, fw.flag_set_tick, fw.step_counter
        worst = self.max_dispatch_steps
        pos, end = 0, len(buf) - COMMAND_LENGTH
        steps = served = dropped = 0
        try:
            while steps < limit and (command is not None or pos <= end):
                steps += 1
                tick += 1
                if command is None:
                    while pos <= end:
                        frame = buf[pos:pos + COMMAND_LENGTH]
                        pos += COMMAND_LENGTH
                        try:
                            command = decode(frame)
                        except ProtocolError:
                            dropped += 1
                            continue
                        set_tick = tick
                        break
                    else:
                        break  # the step only dropped frames
                elif tick - set_tick > worst:
                    worst = tick - set_tick
                port = ports.get(command.i2c_address)
                if command.action is read:
                    tx.append(ABSENT_DEVICE_VALUE if port is None
                              else port[0][command.register])
                elif port is not None:
                    values, masks = port
                    register = command.register
                    mask = masks[register]
                    values[register] = (values[register] & ~mask) | (command.payload & mask)
                log.append(record(command, set_tick, tick))
                if len(log) > DISPATCH_HISTORY:
                    del log[:DISPATCH_HISTORY // 2]
                served += 1
                command = None
        finally:
            del buf[:pos]
            fw.pending = command
            fw.flag_set_tick, fw.step_counter = set_tick, tick
            self.commands_served += served
            self.frames_dropped += dropped
            self.max_dispatch_steps = worst
        return steps

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
