"""Layered host stack above the transport.

The bridge layer packs register reads and writes into wire commands and is
the only path to the transport.  It sends an exchange's frame (its commands
encoded, in order) as one write and reads all of their responses with one
read, so each device operation costs at most one round trip however many
registers it touches.  Each read set that never changes (the output
snapshot, the rails, each channel's retune reads and plan reads) is encoded
once per process into the frame a handle sends as it is on every call;
status sends the output frame and the rail frame as one.  The values a
synthesizer read set returns are decoded as they come, through the
:class:`~clockgen.readout.RegisterView` built beside its frame.  Writes
are compiled the same way: each channel write a handle makes (the retune
that keeps the VCO, the one that plans it afresh, the phase step, the
enable bit) is compiled into a :class:`~clockgen.readout.RegisterWrite`
when the handle first makes it, never when it is built, and the bridge
encodes the frame that writes its registers once and fills in the frame's
payload bytes on each call.  The device
layer on top exposes the operator-facing operations: frequency, phase,
output enables, and rail voltages.  All device operations are synchronous
and idempotent; repeating one leaves identical register state.  The
device layer names no register field; :mod:`clockgen.readout` does.

Readback sends every read on every call but decodes a steady register
image once.  For each decoded read set (the output snapshot and the rails)
the handle keeps one entry: the last values the bridge returned and what
they decoded to.  A set is decoded again only when its values differ from
those; its view, frame and constraints are fixed when the handle is built,
so the values alone decide.  Each call returns a new list or dict of the
shared, immutable statuses and volts.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .config import StackConfig, load_config, load_pot_map, load_synth_map
from .errors import InconsistentEncodingError, NoPlanError, UnsatisfiableFrequencyError
from .planner import (
    CHANNEL_COUNT,
    FrequencyLike,
    FrequencyPlan,
    PhasePlan,
    check_channel,
    plan_frequency,
    plan_phase,
)
from .power import SupplySetting, apply_supply, plan_voltage
from .protocol import (
    COMMAND_LENGTH,
    READ_OPCODE,
    RESPONSE_LENGTH,
    BridgeCommand,
    encode_command,
)
from .readout import (
    RETUNE_FRESH,
    RETUNE_KEPT,
    ChannelStatus,
    RegisterView,
    RegisterWrite,
    channel_values,
    channel_write,
    decode_feedback,
    decode_outputs,
    decode_plan,
    decode_rails,
    enabled_channels,
    output_view,
    plan_view,
    rail_registers,
    retune_views,
)
from .registers import RegisterMap
from .transport import SessionConfig, open_session


@lru_cache(maxsize=256)
def _reads(device: int, registers: tuple[int, ...]) -> bytes:
    """The frame that reads ``registers`` of ``device``, in that order;
    each is encoded once per process (the last 256 are kept)."""
    return b"".join(encode_command(BridgeCommand.read(device, r)) for r in registers)


@lru_cache(maxsize=256)
def _write_frame(device: int, registers: tuple[int, ...]) -> bytes:
    """The frame that writes ``registers`` of ``device``, in that order,
    each with payload 0: a compiled write fills in the payload bytes."""
    return b"".join(encode_command(BridgeCommand.write(device, r, 0)) for r in registers)


class BridgeClient:
    """Register access over an open session: exchange, read, write, the
    compiled field writes (:meth:`write_fields`), close.

    :meth:`exchange` is the one path to the session: a frame of commands
    goes out as one write and their responses come back with one read,
    which blocks until every response byte arrives or the session times
    out.  The wire keeps order, so responses arrive in command order.

    After a timeout the responses still owed are counted; the next
    exchange reads and discards them before its own, so a late byte is
    never handed to a later read.  ``write_exchanges`` counts the
    exchanges that carried a write, whoever sent them.
    """

    def __init__(self, session):
        self._session = session
        self._owed = 0  # response bytes of timed-out exchanges, not yet drained
        self.write_exchanges = 0

    def exchange(self, frame: bytes) -> list[int]:
        """Send ``frame``, commands as :func:`encode_command` encodes them,
        in one write; returns the values its reads fetched, in command
        order."""
        if not frame:
            return []
        reads = frame[::COMMAND_LENGTH].count(READ_OPCODE)
        if reads * COMMAND_LENGTH < len(frame):
            self.write_exchanges += 1
        self._session.write_bytes(frame)
        wanted = RESPONSE_LENGTH * reads
        if not wanted:
            return []
        owed = self._owed
        self._owed += wanted
        data = self._session.read_bytes(owed + wanted)
        self._owed = 0
        return list(data[owed::RESPONSE_LENGTH])

    def write_register(self, device: int, register: int, value: int) -> None:
        self.exchange(encode_command(BridgeCommand.write(device, register, value)))

    def read_register(self, device: int, register: int) -> int:
        return self.exchange(encode_command(BridgeCommand.read(device, register)))[0]

    def write_fields(self, device: int, write: RegisterWrite, values: Sequence[int],
                     current: Sequence[int] | None = None) -> None:
        """Write ``values``, one per field of the compiled ``write``, to
        ``device``: one exchange writes each register the fields touch,
        once, in ``write.registers`` order.

        The frame that writes those registers is encoded once per device
        and register list and kept (the last 256 are); each call writes
        the registers' new values (:meth:`RegisterWrite.payload`) into a
        copy's payload bytes in one step.  The bits the fields leave alone
        come from ``current``, the values of the ``write.current``
        registers; without it, an exchange before the write reads them (no
        exchange when the fields cover every bit they touch).  A value
        that does not fit its field is refused before either exchange.
        """
        image = write.place(values)
        if current is None:
            current = self.exchange(_reads(device, tuple(write.current)))
        frame = bytearray(_write_frame(device, write.registers))
        # the payload is each command's last byte
        frame[COMMAND_LENGTH - 1::COMMAND_LENGTH] = write.payload(image, current)
        self.exchange(bytes(frame))

    def close(self) -> None:
        self._session.close()


class DeviceHandle:
    """Device-layer client for one board.

    Holds the open bridge, the register maps, and the planning
    configuration.  Never touches the transport except through the bridge.
    Its cached channel plans are dropped when another writer has written
    through its bridge since they were last known current, or the bridge is
    a new one; each of its own writes and each use of a cached plan checks
    first.  A second bus master on real hardware is not seen.  Readback
    keeps one entry per decoded read set, its last values and their decode,
    and never skips a read: a changed register is always seen.
    """

    def __init__(self, bridge: BridgeClient, synth_map: RegisterMap,
                 config: StackConfig, pot_map: RegisterMap):
        self.bridge = bridge
        self.synth_map = synth_map
        self.config = config
        self.pot_map = pot_map
        self._plans: dict[int, FrequencyPlan] = {}
        self._plans_as_of = None  # (bridge, write_exchanges) when _plans was last current
        # the fixed read sets, each encoded once beside the view that decodes it
        address = config.synth_address
        self._output_view = output_view(synth_map)
        self._output_reads = _reads(address, tuple(self._output_view.registers))
        self._retune_reads = [(view, _reads(address, tuple(view.registers)))
                              for view in retune_views(synth_map)]
        self._rail_reads = b"".join(_reads(device, (register,)) for device, register
                                    in rail_registers(config.rails, pot_map))
        # per decoded read set, the last values read and what they decoded to
        self._last_outputs: tuple[list[int] | None, list[ChannelStatus]] = (None, [])
        self._last_rails: tuple[list[int] | None, dict[int, Fraction]] = (None, {})
        # the compiled channel writes, by (channel, parts), each built when first used
        self._writes: dict[tuple[int, tuple[str, ...]], RegisterWrite] = {}

    @cached_property
    def _plan_reads(self) -> list[tuple[RegisterView, bytes]]:
        """Per channel, the view and frame of its plan reads; built when
        first used, as only plan recovery needs them."""
        views = [plan_view(self.synth_map, k) for k in range(CHANNEL_COUNT)]
        return [(view, _reads(self.synth_address, tuple(view.registers)))
                for view in views]

    def _channel_write(self, channel: int, parts: tuple[str, ...],
                       current: list[int] | None = None) -> RegisterWrite:
        """The compiled write of ``parts`` of ``channel``
        (:func:`channel_write`), built when first used.  A retune's takes
        the kept bits from its retune reads, ``current``; any other reads
        the registers it covers in part."""
        write = self._writes.get((channel, parts))
        if write is None:
            write = self._writes[channel, parts] = channel_write(
                self.synth_map, channel, parts, current)
        return write

    @property
    def constraints(self):
        return self.config.constraints

    @property
    def synth_address(self) -> int:
        return self.config.synth_address

    def close(self) -> None:
        self.bridge.close()

    # -- clock outputs -------------------------------------------------------

    def set_frequency(self, channel: int, f_target: FrequencyLike) -> FrequencyPlan:
        """Plan and program ``channel`` to ``f_target`` Hz; returns the plan.

        Every output divides the one VCO.  While another channel is enabled
        (by the registers, read first in the same round trip), its VCO is
        kept: only this channel's output divider is planned and written,
        and the other channels' frequencies and phases do not move.  A
        target no legal output divider of that VCO reaches within 1e-9
        raises :class:`UnsatisfiableFrequencyError` before any register is
        written.  With no other channel enabled (or no usable feedback
        divider), the VCO and both dividers are planned afresh and written,
        which drops the cached plans built on the old VCO.
        The phase step returns to zero, because a retune changes the step
        quantum.
        """
        check_channel(channel)
        cons, (view, reads) = self.constraints, self._retune_reads[channel]
        values = self.bridge.exchange(reads)
        running = [k for k, on in enumerate(enabled_channels(view, values))
                   if on and k != channel]
        feedback = None
        if running:
            try:
                feedback = decode_feedback(view, values, cons)
            except InconsistentEncodingError:
                pass  # no usable VCO to keep
        try:
            plan = plan_frequency(cons.f_in, f_target, channel, cons,
                                  feedback=feedback)
        except UnsatisfiableFrequencyError as exc:
            if feedback is None:
                raise
            raise UnsatisfiableFrequencyError(
                f"{exc}; channels {', '.join(map(str, running))} run on that VCO"
            ) from None
        fresh = feedback is None
        write = self._channel_write(channel, RETUNE_FRESH if fresh else RETUNE_KEPT,
                                    view.registers)
        self._write(self.bridge.write_fields, self.synth_address, write, channel_values(
            feedback=plan.feedback if fresh else None, output=plan.output,
            steps=0, enable=True), values)
        self._plans = {k: p for k, p in self._plans.items()
                       if p.feedback == plan.feedback}
        self._plans[channel] = plan
        return plan

    def set_phase(
        self,
        channel: int,
        seconds: FrequencyLike | None = None,
        degrees: FrequencyLike | None = None,
    ) -> PhasePlan:
        """Quantize and program a phase offset on a previously planned channel."""
        check_channel(channel)
        phase = plan_phase(self._current_plan(channel), seconds=seconds,
                           degrees=degrees,
                           step_limit=self.constraints.phase_step_limit)
        self._write(self.bridge.write_fields, self.synth_address,
                    self._channel_write(channel, ("steps",)),
                    channel_values(steps=phase.steps))
        return phase

    def _drop_stale_plans(self) -> None:
        """Forget the cached plans when the bridge is not the one they were
        current on, or another writer has written through it since; either
        way they are current from now on."""
        as_of = (self.bridge, self.bridge.write_exchanges)
        if self._plans_as_of != as_of:
            self._plans = {}
            self._plans_as_of = as_of

    def _write(self, send, *args) -> None:
        """Call ``send(*args)``, which writes through the bridge, as this
        handle's own write.  Stale plans are dropped first, so another
        writer's writes are never taken for this handle's."""
        self._drop_stale_plans()
        send(*args)
        self._plans_as_of = (self.bridge, self.bridge.write_exchanges)

    def _current_plan(self, channel: int) -> FrequencyPlan:
        """The channel's plan; recovered from device registers when this
        handle never programmed it or dropped it as stale (the registers
        are the state of record across invocations)."""
        self._drop_stale_plans()
        plan = self._plans.get(channel)
        if plan is not None:
            return plan
        view, reads = self._plan_reads[channel]
        values = self.bridge.exchange(reads)
        try:
            plan = decode_plan(view, values, self.constraints, channel)
        except InconsistentEncodingError as exc:
            raise NoPlanError(
                f"channel {channel} registers hold no usable plan ({exc})"
            ) from None
        self._plans[channel] = plan
        return plan

    def enable_output(self, channel: int, on: bool) -> None:
        """Toggle one channel's enable bit, leaving every other bit alone."""
        check_channel(channel)
        self._write(self.bridge.write_fields, self.synth_address,
                    self._channel_write(channel, ("enable",)), channel_values(enable=on))

    # -- power rails -----------------------------------------------------------

    def set_rail_voltage(self, rail_id: int, v_target) -> SupplySetting:
        """Plan the nearest wiper code for ``v_target`` and store it."""
        rail = self.config.rail(rail_id)
        setting = plan_voltage(rail, v_target)
        self._write(apply_supply, self.bridge, rail, setting, self.pot_map)
        return setting

    # -- readback ----------------------------------------------------------------

    def read_outputs(self) -> list[ChannelStatus]:
        """Per-channel status of one snapshot of the synthesizer registers,
        read over the bridge in one exchange of the output frame.  The
        values are decoded through the output view only when they differ
        from the last output values read; a new list is returned either
        way."""
        return self._outputs(self.bridge.exchange(self._output_reads))

    def read_rails(self) -> dict[int, Fraction]:
        """Per-rail predicted volts from wiper codes read over the bridge in
        one exchange of the rail frame, decoded only when they differ from
        the last rail codes read; a new dict is returned either way."""
        return self._rails(self.bridge.exchange(self._rail_reads))

    def read_status(self) -> tuple[list[ChannelStatus], dict[int, Fraction]]:
        """:meth:`read_outputs` and :meth:`read_rails` in one exchange: the
        output frame and the rail frame go out as one, and each slice of
        the values is checked against that set's last values and decoded
        only where it differs, as its own call would."""
        values = self.bridge.exchange(self._output_reads + self._rail_reads)
        split = len(self._output_view.registers)
        return self._outputs(values[:split]), self._rails(values[split:])

    def _outputs(self, values: list[int]) -> list[ChannelStatus]:
        """A new list of the statuses the output set's ``values`` decode to;
        :func:`decode_outputs` runs only when they are not the last
        values."""
        last, channels = self._last_outputs
        if values != last:
            channels = decode_outputs(self._output_view, values, self.constraints)
            self._last_outputs = values, channels
        return list(channels)

    def _rails(self, codes: list[int]) -> dict[int, Fraction]:
        """A new dict of the volts the rail set's ``codes`` decode to;
        :func:`decode_rails` runs only when they are not the last codes."""
        last, volts = self._last_rails
        if codes != last:
            volts = decode_rails(codes, self.config.rails)
            self._last_rails = codes, volts
        return dict(volts)


def bridge_init(
    session_config: SessionConfig,
    map_path=None,
    config_path=None,
    simulator: BoardState | None = None,
) -> DeviceHandle:
    """Open a session and return a ready device handle.

    With ``simulator``, a :class:`BoardState`, the session opens in-process
    on that board and the handle takes the board's own maps and
    configuration; a path or a non-``sim`` endpoint beside it raises
    ``ValueError``.  Otherwise the maps and configuration are loaded (the
    paths, or the shipped maps and ``default_config()``) before any session
    opens, and the ``sim`` endpoint gets a fresh board built from them.
    """
    if simulator is not None:
        if (map_path, config_path) != (None, None) or session_config.endpoint != "sim":
            raise ValueError("a simulator brings its own maps and configuration, "
                             "on the sim endpoint only")
        synth_map, config, pot_map = simulator.synth_map, simulator.config, simulator.pot_map
    else:
        config = load_config(config_path)
        synth_map = load_synth_map(map_path)
        pot_map = load_pot_map()
        if session_config.endpoint == "sim":
            from .sim import BoardState  # here: a TCP client never loads the simulator

            simulator = BoardState(synth_map, config, pot_map)
    session = open_session(session_config, simulator)
    return DeviceHandle(BridgeClient(session), synth_map, config, pot_map)
