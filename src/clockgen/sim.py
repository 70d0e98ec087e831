"""Behavioral simulator of the evaluation board.

Models the MCU firmware as an explicit state machine: a receive interrupt
accumulates command bytes and raises a flag variable; the main loop polls
the flags, performs the register access on the addressed device, and for
reads queues the one-byte response.  Time is counted in discrete ``step``
calls (one main-loop iteration each); a raised flag is always consumed
within five steps.  :class:`BoardState` holds that firmware state itself
(phase, raised flag, receive buffer, response queue, tick counter) beside
the register files it drives.

:meth:`BoardState.step` is that single-step model.
:meth:`BoardState.ingest` is the board's one receive entry, for a chunk of
any length down to one byte.  The event pump calls it, then
:meth:`BoardState.run_until_idle`, which serves every buffered command in
one pass with the same ticks, flags and responses as repeated ``step``
calls.  ``ingest`` and ``step`` frame commands through one receive loop,
which decodes one frame at a time.  ``run_until_idle`` decodes the whole
buffer at once (:func:`~clockgen.protocol.decode_frames`) and hands it to
``BoardState._serve``, the one dispatch body, which serves the raised flag
and then those commands in one loop with no call per command on the live
register lists of each device (:meth:`RegisterFile.cells`), trusting the
decoder's range checks, and appends their dispatch records in one
``extend``.  The board keeps cheap counters (commands served, frames
dropped, worst dispatch steps) and only the most recent dispatch records.

The board keeps its own claim rules: :meth:`BoardState.open` claims it for
one session at a time (booting it on the first open, and leaving it free
if that boot raises) and :meth:`BoardState.release` frees it.
:class:`~clockgen.transport.InProcessSession` is their one caller, for a
caller in this process and for each client the TCP server relays.

The board also exposes oracle views (:meth:`BoardState.query_outputs`,
:meth:`BoardState.query_rails`) that decode the stored register state into
achieved frequencies, phase offsets, and rail voltages.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .config import StackConfig, default_config, load_pot_map, load_synth_map
from .errors import AlreadyOpenError
from .power import plan_voltage
from .protocol import (
    Action,
    BridgeCommand,
    COMMAND_LENGTH,
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
from .value import Record

ABSENT_DEVICE_VALUE = 0xFF
DISPATCH_STEP_BOUND = 5
# dispatch records kept; past it, the oldest are dropped half of it at a time
DISPATCH_HISTORY = 4096


class Phase(Enum):
    STARTUP = "startup"
    POWER_INIT = "power-init"
    MAIN_LOOP = "main-loop"


class DispatchRecord(Record):
    """One executed command, with the ticks its flag was raised and served."""

    # slots, and no frozen __setattr__: the board builds one per command served
    __slots__ = ("command", "flag_set_tick", "dispatch_tick")

    def __init__(self, command: BridgeCommand, flag_set_tick: int, dispatch_tick: int):
        self.command = command
        self.flag_set_tick = flag_set_tick
        self.dispatch_tick = dispatch_tick


class BoardState:
    """The whole evaluation board: register files per I2C device plus the
    firmware state machine bridging the byte stream onto them.

    The firmware state is the board's own: ``phase``, ``pending`` (the
    raised flag's command, or ``None``), ``rx_buffer`` (received bytes not
    yet framed), ``tx_queue`` (read responses not yet taken),
    ``step_counter`` (the tick) and ``flag_set_tick`` (when the flag was
    last raised)."""

    def __init__(
        self,
        synth_map: RegisterMap | None = None,
        config: StackConfig | None = None,
        pot_map: RegisterMap | None = None,
    ):
        self.config = config or default_config()
        self.synth_map = synth_map if synth_map is not None else load_synth_map()
        self.pot_map = pot_map if pot_map is not None else load_pot_map()
        self.phase = Phase.STARTUP
        self.pending: BridgeCommand | None = None
        self.rx_buffer = bytearray()
        self.tx_queue = bytearray()
        self.step_counter = 0
        self.flag_set_tick = 0
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
            if rail.pot_address not in self.devices:
                self.devices[rail.pot_address] = RegisterFile.from_map(self.pot_map)
        # each device's live (values, write masks) by address, None where
        # no device answers, for _serve
        self._ports = [None] * 0x80
        for address, device in self.devices.items():
            self._ports[address] = device.cells()
        self._rail_registers = rail_registers(self.config.rails, self.pot_map)

    # -- session claim --------------------------------------------------------

    def open(self, session) -> None:
        """Claim the board for ``session``, booting it on the first open.

        Takes ``session_lock`` without waiting, so of threads racing to
        open one board exactly one gets it; the others get
        :class:`AlreadyOpenError`.  A boot that raises releases the lock
        before the error propagates, so the board stays free.
        ``session`` is recorded in ``self.session`` only once booted.
        """
        if not self.session_lock.acquire(blocking=False):
            raise AlreadyOpenError("simulator already has an open session")
        try:
            if self.phase is not Phase.MAIN_LOOP:
                self.boot()
        except BaseException:
            self.session_lock.release()
            raise
        self.session = session

    def release(self, session) -> None:
        """Free the board if ``session`` holds it: the registers persist,
        the command and response queues start clean.  A no-op otherwise."""
        if self.session is session:
            self.pending = None
            self.rx_buffer.clear()
            self.tx_queue.clear()
            self.session = None
            self.session_lock.release()

    # -- firmware lifecycle -------------------------------------------------

    def boot(self) -> None:
        """Run startup and power-init, then enter the main loop.

        Register files return to reset values and the default rail codes are
        programmed.  Bytes already received stay buffered: commands ingested
        before the main loop are executed first thing once it runs.
        """
        # startup: reset register state, drop half-processed work
        for device in self.devices.values():
            device.reset()
        self.pending = None
        self.tx_queue.clear()
        self.step_counter = 0
        self.dispatch_log.clear()
        self.commands_served = self.frames_dropped = self.max_dispatch_steps = 0
        # power-init: program every rail to its configured default
        self.phase = Phase.POWER_INIT
        for rail, (address, register) in zip(self.config.rails, self._rail_registers):
            self.devices[address].write(register, plan_voltage(rail, rail.v_default).code)
        self.phase = Phase.MAIN_LOOP

    def ingest(self, data: bytes) -> None:
        """Receive a chunk: buffer it, then frame complete commands while
        no flag is raised.  The one receive path; a receive interrupt per
        byte is ``ingest(bytes((b,)))``.  Framing a chunk once leaves the
        board as framing after each of its bytes would.

        Undecodable frames (bad opcode, out-of-range address) discard their
        four bytes silently: the wire protocol has no error channel, exactly
        like an I2C master seeing a NACK.
        """
        self.rx_buffer.extend(data)
        if self.phase is Phase.MAIN_LOOP:
            self._frame(self.step_counter)

    def _frame(self, tick: int) -> None:
        """The receive loop: while no flag is raised, take frames off the
        buffer up to the first valid command and raise its flag at
        ``tick``; each bad frame on the way is dropped.  One frame is
        decoded at a time, so a frame left on the buffer is not decoded."""
        buf = self.rx_buffer
        while self.pending is None and len(buf) >= COMMAND_LENGTH:
            [command] = decode_frames(buf[:COMMAND_LENGTH])
            del buf[:COMMAND_LENGTH]
            if command is None:
                self.frames_dropped += 1
            else:
                self.pending, self.flag_set_tick = command, tick

    def step(self) -> None:
        """One main-loop iteration, one tick: serve the raised flag, or
        else frame the next valid buffered command and serve it in the
        same tick, if there is one."""
        if self.phase is not Phase.MAIN_LOOP:
            raise RuntimeError("step() requires the firmware main loop (boot first)")
        self._frame(self.step_counter + 1)  # frames only if no flag is raised
        if self.pending is None:
            self.step_counter += 1  # idle, or only bad frames were buffered
        else:
            self._serve(())

    def run_until_idle(self) -> None:
        """Serve every buffered command, stepping until no flag is raised
        and no complete command is buffered.

        Leaves the board as calling :meth:`step` that many times would:
        every whole buffered frame is decoded at once
        (:func:`decode_frames`) and served in one pass.  A buffer with no
        whole frame, as after :meth:`ingest` framed a chunk's only command,
        is not handed to the decoder.
        """
        whole = len(self.rx_buffer) >= COMMAND_LENGTH
        if self.phase is not Phase.MAIN_LOOP and whole:
            self.step()  # refuses before boot
        self._serve(decode_frames(self.rx_buffer) if whole else ())

    def _serve(self, frames: list[BridgeCommand | None]) -> None:
        """Serve the raised flag, then ``frames``, the decoded frames at the
        head of the buffer (``None`` for a bad one), which are taken off it.
        The one dispatch body of the board.

        The raised flag is served in the next tick.  Each command of
        ``frames`` is then framed and served in a tick of its own, as a
        :meth:`step` would: the bad frames before it are dropped in its
        tick, and bad frames after the last command take one tick more.
        The commands are served in one loop, then recorded with one
        ``extend``.  A read queues its device's register, or
        ``ABSENT_DEVICE_VALUE`` for an absent device; a write sets the
        register's writable bits.  The decoder has proven address, register
        and value in range, so they are not checked again.  Past
        ``DISPATCH_HISTORY`` records the oldest are dropped,
        ``DISPATCH_HISTORY // 2`` at a time.
        """
        log, pending, tick = self.dispatch_log, self.pending, self.step_counter
        commands = list(filter(None, frames))
        del self.rx_buffer[:len(frames) * COMMAND_LENGTH]
        self.frames_dropped += len(frames) - len(commands)
        if pending is None:
            served = commands
        else:  # the raised flag is served first, in the pass's first tick
            served = [pending, *commands]
            wait = tick + 1 - self.flag_set_tick
            if wait > self.max_dispatch_steps:
                self.max_dispatch_steps = wait
            log.append(DispatchRecord(pending, self.flag_set_tick, tick + 1))
            self.pending = None
        append, ports, read = self.tx_queue.append, self._ports, Action.READ
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
            self.flag_set_tick = last
        if len(log) > DISPATCH_HISTORY:
            half = DISPATCH_HISTORY // 2
            del log[:(len(log) - DISPATCH_HISTORY + half - 1) // half * half]
        if frames and frames[-1] is None:
            last += 1  # trailing bad frames are dropped by a step of their own
        self.step_counter = last
        self.commands_served += len(served)

    def take_output(self) -> bytes:
        """Drain queued read responses, oldest first."""
        out = bytes(self.tx_queue)
        self.tx_queue.clear()
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
