import hashlib
import math
import random
import socket
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from clockgen import (
    Action,
    BoardState,
    BridgeClient,
    BridgeCommand,
    ConfigError,
    DeviceHandle,
    FieldOverflowError,
    FrequencyPlan,
    InfeasibleVoltageError,
    NoPlanError,
    PhasePlan,
    PhaseRangeError,
    PlannerConstraints,
    RailModel,
    RationalDivider,
    ReadTimeoutError,
    RegisterMapError,
    SessionConfig,
    StackConfig,
    UnsatisfiableFrequencyError,
    bridge_init,
    decode_command,
    encode_command,
    encode_divider,
    load_config,
    load_pot_map,
    load_synth_map,
    open_session,
    plan_frequency,
    plan_voltage,
)
from clockgen import host
from clockgen.config import default_rails
from clockgen.planner import apply_plan
from clockgen.readout import (
    RETUNE_FRESH,
    RETUNE_KEPT,
    RegisterView,
    RegisterWrite,
    channel_values,
    channel_write,
    divider_fields,
    output_view,
    rail_registers,
    retune_views,
)
from clockgen.registers import RegisterMap
from clockgen.transport import TcpSession

import oracles
from conftest import CountingSession

MHZ = 10**6


def synth_snapshot(device_handle, board):
    return board.devices[device_handle.synth_address].snapshot()


def frames(written):
    """The commands in a stream of written bytes, in order."""
    return [decode_command(bytes(written[i:i + 4]))
            for i in range(0, len(written), 4)]


def encoded(commands):
    """The frame of ``commands``: each encoded, in order."""
    return b"".join(map(encode_command, commands))


def field_addresses(regmap, prefixes):
    return {
        field.address
        for field in regmap.fields.values()
        if any(field.name.startswith(p) for p in prefixes)
    }


# -- bridge layer -----------------------------------------------------------------

def test_bridge_init_reads_reset_register(board):
    handle = bridge_init(SessionConfig(endpoint="sim"), simulator=board)
    assert handle.bridge.read_register(0x70, 0x00) == \
        handle.synth_map.reset_value(0x00)
    handle.close()


def test_bridge_init_unreachable_tcp():
    from clockgen import ConnectError
    config = SessionConfig(endpoint="tcp", host="127.0.0.1", port=1,
                           read_timeout=0.2)
    with pytest.raises(ConnectError):
        bridge_init(config)


def test_bridge_init_malformed_map(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("0x10, 0x00\n")
    with pytest.raises(RegisterMapError) as info:
        bridge_init(SessionConfig(endpoint="sim"), map_path=bad)
    assert info.value.line == 1


def test_bridge_init_opens_on_the_boards_own_maps_and_config():
    """A board built at 0x60 with its own rails is programmed there, not at
    the shipped default address."""
    rails = (RailModel(rail_id=0, pot_address=0x2E, pot_channel=1),
             RailModel(rail_id=7, pot_address=0x2F, pot_channel=3,
                       v_default=Fraction("3.0")))
    board = BoardState(config=StackConfig(PlannerConstraints(), rails,
                                          synth_address=0x60))
    device = bridge_init(SessionConfig(), simulator=board)
    assert device.synth_address == 0x60
    assert (device.synth_map, device.config, device.pot_map) == \
        (board.synth_map, board.config, board.pot_map)
    plan = device.set_frequency(0, 100 * MHZ)
    assert board.query_outputs()[0].f_out == plan.f_achieved
    assert device.read_outputs() == board.query_outputs()
    setting = device.set_rail_voltage(7, Fraction("2.9"))
    wiper = board.pot_map.field("wiper3").address
    assert board.devices[0x2F].read(wiper) == setting.code
    assert board.query_rails()[7] == setting.v_predicted
    assert device.read_rails() == board.query_rails()
    device.close()


@pytest.mark.parametrize("endpoint, paths", [
    ("sim", {"map_path": "synth.map"}),
    ("sim", {"config_path": "board.conf"}),
    ("tcp:127.0.0.1:1", {}),
], ids=["map-path", "config-path", "tcp"])
def test_bridge_init_refuses_a_second_source_beside_a_simulator(board, endpoint,
                                                                paths):
    with pytest.raises(ValueError, match="simulator brings its own"):
        bridge_init(SessionConfig.parse(endpoint), simulator=board, **paths)
    assert board.session is None
    bridge_init(SessionConfig(), simulator=board).close()


def test_bridge_init_on_a_board_in_use_is_refused(session, board):
    from clockgen import AlreadyOpenError
    with pytest.raises(AlreadyOpenError):
        bridge_init(SessionConfig(), simulator=board)
    assert board.session is session


def test_bridge_init_without_simulator_boots_a_board():
    handle = bridge_init(SessionConfig())
    assert handle.read_rails() == {
        rail.rail_id: plan_voltage(rail, rail.v_default).v_predicted
        for rail in handle.config.rails
    }
    handle.close()


def test_bridge_write_then_read_echo(device):
    device.bridge.write_register(0x70, 0x06, 0x5A)
    assert device.bridge.read_register(0x70, 0x06) == 0x5A


def test_bridge_read_absent_device(device):
    assert device.bridge.read_register(0x5A, 0x06) == 0xFF


def test_bridge_write_read_only_register(device):
    device.bridge.write_register(0x70, 0x00, 0x99)
    assert device.bridge.read_register(0x70, 0x00) == 0x38


def test_bridge_ops_map_one_to_one_onto_wire_commands(counting_device):
    device, counting = counting_device
    counting.writes = counting.reads = 0
    device.bridge.write_register(0x70, 0x06, 0x5A)
    assert (counting.writes, counting.reads) == (1, 0)
    device.bridge.read_register(0x70, 0x06)
    assert (counting.writes, counting.reads) == (2, 1)
    assert len(counting.written) % 4 == 0


class SlowRegisterDevice:
    """A TCP device answering every read with ``register ^ 0xA5``, in order;
    its first read of ``slow_register`` is answered ``delay`` s late."""

    def __init__(self, slow_register, delay):
        self.slow_register = slow_register
        self.delay = delay
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5.0)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _peer = self._listener.accept()
        late = True
        pending = b""
        with conn:
            while data := conn.recv(4096):
                pending += data
                while len(pending) >= 4:
                    cmd = decode_command(pending[:4])
                    pending = pending[4:]
                    if cmd.action is not Action.READ:
                        continue
                    if late and cmd.register == self.slow_register:
                        late = False
                        time.sleep(self.delay)
                    conn.sendall(bytes((cmd.register ^ 0xA5,)))

    def close(self):
        self._thread.join(timeout=5.0)
        self._listener.close()
        assert not self._thread.is_alive()


@pytest.mark.parametrize("first", [
    lambda bridge: bridge.exchange(encode_command(BridgeCommand.read(0x70, 0x42))),
    lambda bridge: bridge.exchange(encoded(BridgeCommand.read(0x70, r)
                                           for r in (0x01, 0x42, 0x03))),
    # 0x42 is among the 61 output reads
    lambda bridge: DeviceHandle(bridge, load_synth_map(), load_config(),
                                load_pot_map()).read_outputs(),
], ids=["single-read", "partial-batch", "prepared-batch"])
def test_late_response_is_never_handed_to_a_later_read(first):
    device = SlowRegisterDevice(slow_register=0x42, delay=0.3)
    bridge = BridgeClient(TcpSession.connect("127.0.0.1", device.port,
                                             read_timeout=0.2))
    try:
        with pytest.raises(ReadTimeoutError):
            first(bridge)
        for register in (0x10, 0x11, 0x12):
            assert bridge.read_register(0x70, register) == register ^ 0xA5
        assert bridge.exchange(encoded(BridgeCommand.read(0x70, r) for r in (0x20, 0x21))) \
            == [0x20 ^ 0xA5, 0x21 ^ 0xA5]
    finally:
        bridge.close()
        device.close()


def test_an_exchange_of_100000_reads_is_served_whole(device, board):
    """However long a batch is, the board serves it to idle: every read is
    answered in its own exchange and none is left queued for the next."""
    device.set_frequency(0, 100 * MHZ)
    values = device.bridge.exchange(encode_command(BridgeCommand.read(0x70, 0)) * 100_000)
    assert values == [board.devices[0x70].read(0)] * 100_000
    outputs, rails = device.read_outputs(), device.read_rails()
    assert outputs[0].enabled and outputs[0].f_out == 100 * MHZ
    assert outputs == board.query_outputs()
    assert rails == board.query_rails()


_commands = st.one_of(
    st.builds(BridgeCommand.read, st.integers(0, 0x7F), st.integers(0, 0xFF)),
    st.builds(BridgeCommand.write, st.integers(0, 0x7F), st.integers(0, 0xFF),
              st.integers(0, 0xFF)),
)


class EchoSession:
    """Answers each read it is sent with its device address xor its
    register, and keeps every byte written."""

    def __init__(self):
        self.written = bytearray()
        self._answers = bytearray()

    def write_bytes(self, data):
        self.written += data
        self._answers += bytes(device ^ register for opcode, device, register, _
                               in zip(*[iter(data)] * 4) if opcode == 0x00)

    def read_bytes(self, n):
        out, self._answers = bytes(self._answers[:n]), self._answers[n:]
        return out


@given(st.lists(_commands, max_size=80))
def test_exchange_sends_the_frame_and_returns_the_reads_in_command_order(commands):
    session, frame = EchoSession(), encoded(commands)
    bridge = BridgeClient(session)
    values = bridge.exchange(frame)
    assert session.written == frame
    assert values == [c.i2c_address ^ c.register for c in commands
                      if c.action is Action.READ]
    assert bridge.write_exchanges == any(c.action is Action.WRITE for c in commands)


# -- device layer: frequency ---------------------------------------------------------

def test_set_frequency_end_to_end(device, board):
    plan = device.set_frequency(0, 100 * MHZ)
    assert plan.rel_error == 0
    status = board.query_outputs()[0]
    assert status.enabled
    assert status.f_out == plan.f_achieved


def test_set_frequency_below_band(device):
    with pytest.raises(UnsatisfiableFrequencyError):
        device.set_frequency(0, 4 * MHZ)


def test_set_frequency_channel_isolation(device, board):
    device.set_frequency(0, 80 * MHZ)
    device.set_frequency(1, 120 * MHZ)
    device.set_frequency(3, 40 * MHZ)
    before = board.query_outputs()
    device.set_frequency(2, 66 * MHZ)
    after = board.query_outputs()
    for k in (0, 1, 3):
        assert after[k] == before[k]


def test_set_frequency_register_diff_confined(device, board):
    regmap = device.synth_map
    device.set_frequency(0, 10 * MHZ)
    before = synth_snapshot(device, board)
    device.set_frequency(1, 150 * MHZ)
    after = synth_snapshot(device, board)
    allowed = field_addresses(regmap, ("fb_", "ms1_", "clk1_"))
    changed = {a for a in range(256) if before[a] != after[a]}
    assert changed <= allowed


def test_set_frequency_idempotent(device, board):
    device.set_frequency(0, 123456789)
    once = synth_snapshot(device, board)
    device.set_frequency(0, 123456789)
    assert synth_snapshot(device, board) == once


def test_retune_off_the_shared_vco_is_refused_before_any_write(board):
    """Under a denominator cap of 1, 111.25 MHz is reachable jointly
    (feedback 89, output 20) but not from the 2.2 GHz VCO channel 1 runs on."""
    config = StackConfig(PlannerConstraints(max_denominator=1), default_rails())
    board = BoardState(board.synth_map, config, board.pot_map)
    counting = CountingSession(open_session(SessionConfig(), board))
    device = DeviceHandle(BridgeClient(counting), board.synth_map, config, board.pot_map)
    target = Fraction(11125, 100) * MHZ
    assert plan_frequency(config.constraints.f_in, target, 0, config.constraints) \
        .rel_error == 0
    device.set_frequency(1, 100 * MHZ)
    before = board.devices[device.synth_address].snapshot()
    counting.reset()
    with pytest.raises(UnsatisfiableFrequencyError,
                       match=r"shared VCO at 2200000000 Hz.*channels 1 run on"):
        device.set_frequency(0, target)
    assert all(c.action is Action.READ for c in frames(counting.written))
    assert board.devices[device.synth_address].snapshot() == before
    assert board.query_outputs()[1].f_out == 100 * MHZ
    device.close()


def test_retune_plans_jointly_when_the_running_feedback_is_unusable(device, board):
    device.set_frequency(0, 100 * MHZ)
    _write_divider(device, "fb", RationalDivider(device.constraints.fb_int_min, 0, 1))
    plan = device.set_frequency(1, 75 * MHZ)
    assert plan == plan_frequency(device.constraints.f_in, 75 * MHZ, 1,
                                  device.constraints)
    assert board.query_outputs()[1].f_out == 75 * MHZ


# -- device layer: phase ------------------------------------------------------------

def test_set_phase_zero(device, board):
    device.set_frequency(0, 100 * MHZ)
    phase = device.set_phase(0, seconds=0)
    assert phase.steps == 0
    assert board.query_outputs()[0].phase_offset == 0


def test_set_phase_quantized(device, board):
    plan = device.set_frequency(0, 100 * MHZ)
    request = Fraction("1.25e-9")
    phase = device.set_phase(0, seconds=request)
    assert phase.steps == oracles.phase_steps(request, 1 / plan.f_vco)
    status = board.query_outputs()[0]
    assert status.phase_offset == phase.steps * (1 / plan.f_vco)
    assert abs(request - status.phase_offset) <= (1 / plan.f_vco) / 2


def test_set_phase_without_plan(device):
    with pytest.raises(NoPlanError):
        device.set_phase(1, seconds=0)


def test_set_phase_out_of_range(device):
    device.set_frequency(0, 100 * MHZ)
    with pytest.raises(PhaseRangeError):
        device.set_phase(0, seconds=Fraction("1e-6"))


def test_set_phase_negative_steps_roundtrip(device, board):
    plan = device.set_frequency(0, 100 * MHZ)
    phase = device.set_phase(0, seconds=-5 / plan.f_vco)
    assert phase.steps == -5
    assert board.query_outputs()[0].phase_offset == Fraction(-5) / plan.f_vco


def test_set_phase_recovers_plan_from_registers(device, board):
    from clockgen import BridgeClient, DeviceHandle
    plan = device.set_frequency(0, 100 * MHZ)
    device.close()
    # a brand-new handle (fresh session, no cached plan) can still set phase
    session = open_session(SessionConfig(), board)
    fresh = DeviceHandle(BridgeClient(session), board.synth_map,
                         board.config, board.pot_map)
    phase = fresh.set_phase(0, degrees=45)
    assert phase.quantum == 1 / plan.f_vco
    assert board.query_outputs()[0].phase_offset == \
        phase.steps * (1 / plan.f_vco)
    fresh.close()


def _write_fields(device, names, values):
    device.bridge.write_fields(device.synth_address, RegisterWrite(device.synth_map, names),
                               values)


def _write_divider(device, prefix, divider):
    _write_fields(device, divider_fields(prefix), encode_divider(divider))


def _fractional_plan(device, channel):
    plan = device.set_frequency(channel, Fraction(777777777, 7))
    assert not (plan.feedback.b == 0 and plan.output.b == 0)
    return plan


def _vco_below_window(device, channel):
    plan = device.set_frequency(channel, 100 * MHZ)
    _write_divider(device, "fb", RationalDivider(device.constraints.fb_int_min, 0, 1))
    return plan


def _output_p2_not_below_p3(device, channel):
    plan = device.set_frequency(channel, 100 * MHZ)
    _write_fields(device, [f"ms{channel}_p2", f"ms{channel}_p3"], [7, 7])
    return plan


@pytest.mark.parametrize("prepare, problem", [
    (_fractional_plan, None),
    (_vco_below_window, "vco frequency outside window"),
    (_output_p2_not_below_p3, "invalid output divider"),
], ids=["fractional", "vco-outside-window", "p2-not-below-p3"])
def test_fresh_handle_recovers_plan_exactly_when_readout_can(device, board,
                                                             prepare, problem):
    channel = 2
    plan = prepare(device, channel)
    device.close()
    assert board.query_outputs()[channel].problem == problem
    fresh = DeviceHandle(BridgeClient(open_session(SessionConfig(), board)),
                         board.synth_map, board.config, board.pot_map)
    if problem:
        with pytest.raises(NoPlanError, match=problem):
            fresh.set_phase(channel, degrees=45)
    else:
        fresh.set_phase(channel, degrees=45)
        recovered = fresh._current_plan(channel)
        assert recovered.f_vco == plan.f_vco
        assert recovered.f_achieved == plan.f_achieved
    fresh.close()


def test_set_phase_recovery_reads_each_divider_register_once(counting_device):
    device, counting = counting_device
    plan = plan_frequency(device.constraints.f_in, 100 * MHZ, 0, device.constraints)
    apply_plan(device.bridge, device.synth_map, plan, None, 0, device.synth_address)
    counting.reset()
    device.set_phase(0, degrees=45)
    divider_registers = sum(
        len(device.synth_map.group(f"{prefix}_{suffix}"))
        for prefix in ("fb", "ms0") for suffix in ("p1", "p2", "p3")
    )
    reads = [c.register for c in frames(counting.written) if c.action is Action.READ]
    assert len(reads) == len(set(reads)) == divider_registers == 22
    assert counting.reads == 1


def test_set_phase_after_the_feedback_moved_uses_the_registers(counting_device, board):
    device, counting = counting_device
    first = device.set_frequency(1, 100 * MHZ)
    # with channel 1 off the retune is joint, so it moves the feedback
    device.enable_output(1, False)
    moved = device.set_frequency(0, Fraction(6608629685309, 40000))
    device.enable_output(1, True)
    assert moved.feedback != first.feedback
    counting.reset()
    phase = device.set_phase(1, degrees=45)
    assert phase.offset_achieved == board.query_outputs()[1].phase_offset
    assert counting.reads == 1


def _move_the_vco_with_a_handle(handle):
    """Retune channel 1 to 112.5 MHz on a fresh VCO (2.25 GHz) while
    channel 0 stays on its output divider."""
    handle.enable_output(0, False)
    handle.set_frequency(1, Fraction(225, 2) * MHZ)  # no other channel on: joint
    handle.enable_output(0, True)


def _second_handle_on_the_bridge(a, board):
    _move_the_vco_with_a_handle(DeviceHandle(a.bridge, a.synth_map, a.config, a.pot_map))


def _new_bridge_after_another_turn(a, board):
    a.close()
    other = bridge_init(SessionConfig(), simulator=board)
    _move_the_vco_with_a_handle(other)
    other.close()
    a.bridge = BridgeClient(open_session(SessionConfig(), board))


def _raw_writes_through_the_bridge(a, board):
    cons = a.constraints
    plan = plan_frequency(cons.f_in, Fraction(225, 2) * MHZ, 1, cons)
    for address, bits, mask in oracles.channel_writes(
            a.synth_map, 1, feedback=plan.feedback, output=plan.output, enable=True):
        current = a.bridge.read_register(a.synth_address, address)
        a.bridge.write_register(a.synth_address, address, (current & ~mask) | bits)


@pytest.mark.parametrize("second_writer", [
    _second_handle_on_the_bridge, _new_bridge_after_another_turn,
    _raw_writes_through_the_bridge,
], ids=["second-handle", "new-bridge", "raw-writes"])
def test_set_phase_after_another_writer_moved_the_vco_matches_the_board(board,
                                                                       second_writer):
    a = bridge_init(SessionConfig(), simulator=board)
    assert a.set_frequency(0, 100 * MHZ).f_vco == 2200 * MHZ
    second_writer(a, board)
    phase = a.set_phase(0, seconds=Fraction(1, 10**9))
    a.close()
    # two steps of the 2.25 GHz VCO; the plan cached at 2.2 GHz gave 1/1.1e9 s
    assert board.query_outputs()[0].phase_offset == Fraction(1, 1125 * MHZ)
    assert phase.offset_achieved == board.query_outputs()[0].phase_offset


def test_set_frequency_drops_the_plans_another_writer_made_stale(device, board):
    device.set_frequency(0, 100 * MHZ)
    device.set_frequency(1, 100 * MHZ)  # pinned to the 2.2 GHz VCO: divider 22
    other = DeviceHandle(device.bridge, device.synth_map, device.config, device.pot_map)
    other.set_frequency(1, 110 * MHZ)  # pinned too: divider 20
    device.set_frequency(2, 50 * MHZ)  # this handle's own write comes in between
    phase = device.set_phase(1, degrees=180)
    # half a 110 MHz period is 10 VCO steps; the stale 100 MHz plan gave 11
    assert phase.steps == 10
    assert phase.offset_achieved == board.query_outputs()[1].phase_offset


@pytest.mark.parametrize("own_write", [
    lambda a: a.enable_output(2, False),
    lambda a: a.set_rail_voltage(a.config.rails[0].rail_id, Fraction(5, 2)),
], ids=["enable_output", "set_rail_voltage"])
def test_a_write_after_another_writer_moved_the_vco_keeps_no_stale_plan(board, own_write):
    a = bridge_init(SessionConfig(), simulator=board)
    assert a.set_frequency(0, 100 * MHZ).f_vco == 2200 * MHZ
    _second_handle_on_the_bridge(a, board)
    own_write(a)  # must not pass for the handle's own last word on the VCO
    phase = a.set_phase(0, seconds=Fraction(1, 10**9))
    a.close()
    assert board.query_outputs()[0].phase_offset == Fraction(1, 1125 * MHZ)
    assert phase.offset_achieved == board.query_outputs()[0].phase_offset


def test_set_phase_idempotent(device, board):
    device.set_frequency(0, 100 * MHZ)
    device.set_phase(0, degrees=45)
    once = synth_snapshot(device, board)
    device.set_phase(0, degrees=45)
    assert synth_snapshot(device, board) == once


def test_apply_plan_on_closed_session(device):
    from clockgen import SessionClosedError, plan_frequency
    from clockgen.planner import apply_plan
    plan = plan_frequency(device.constraints.f_in, 100 * MHZ)
    device.close()
    with pytest.raises(SessionClosedError):
        apply_plan(device.bridge, device.synth_map, plan, None, 0,
                   device.synth_address)


# -- device layer: enables ------------------------------------------------------------

def test_enable_disable_roundtrip(device, board):
    device.set_frequency(0, 100 * MHZ)
    device.enable_output(0, False)
    status = board.query_outputs()[0]
    assert not status.enabled
    assert status.f_out is None
    device.enable_output(0, True)
    status = board.query_outputs()[0]
    assert status.enabled
    assert status.f_out == Fraction(100 * MHZ)


def test_enable_idempotent(device, board):
    device.set_frequency(3, 42 * MHZ)
    device.enable_output(3, True)
    once = synth_snapshot(device, board)
    device.enable_output(3, True)
    assert synth_snapshot(device, board) == once


def test_enable_leaves_other_channels_alone(device, board):
    device.set_frequency(0, 100 * MHZ)
    device.set_frequency(2, 50 * MHZ)
    before = synth_snapshot(device, board)
    device.enable_output(1, True)
    after = synth_snapshot(device, board)
    changed = {a for a in range(256) if before[a] != after[a]}
    enable_register = device.synth_map.field("clk1_en").address
    assert changed <= {enable_register}
    # other channels' bits within the shared register are untouched
    mask = device.synth_map.field("clk1_en").mask
    assert before[enable_register] & ~mask == after[enable_register] & ~mask


@pytest.mark.parametrize("channel", [-1, 4])
@pytest.mark.parametrize("operation", [
    lambda device, channel: device.set_frequency(channel, 100 * MHZ),
    lambda device, channel: device.set_phase(channel, degrees=0),
    lambda device, channel: device.enable_output(channel, True),
], ids=["set_frequency", "set_phase", "enable_output"])
def test_channel_out_of_range_is_refused_before_the_wire(counting_device,
                                                          operation, channel):
    device, counting = counting_device
    counting.reset()
    with pytest.raises(ValueError, match=r"channel must be 0\.\.3"):
        operation(device, channel)
    assert counting.writes == counting.reads == 0


# -- device layer: rails -----------------------------------------------------------------

def test_set_rail_voltage_matches_oracle(device, board):
    setting = device.set_rail_voltage(0, Fraction("2.5"))
    rail = device.config.rail(0)
    assert setting.code == oracles.supply_code(rail, Fraction("2.5"))
    assert board.query_rails()[0] == setting.v_predicted
    assert abs(board.query_rails()[0] - Fraction("2.5")) == setting.v_error


def test_infeasible_rail_target_writes_nothing(counting_device):
    device, counting = counting_device
    counting.writes = 0
    with pytest.raises(InfeasibleVoltageError):
        device.set_rail_voltage(0, Fraction("0.5"))
    assert counting.writes == 0


def test_unknown_rail(device):
    with pytest.raises(ConfigError):
        device.set_rail_voltage(9, Fraction("2.5"))


def test_rails_independent(device, board):
    device.set_rail_voltage(0, Fraction("1.5"))
    before = board.devices[device.config.rail(1).pot_address].snapshot()
    device.set_rail_voltage(2, Fraction("3.0"))
    rail1 = device.config.rail(1)
    register = device.pot_map.field(f"wiper{rail1.pot_channel}").address
    assert board.devices[rail1.pot_address].snapshot()[register] == \
        before[register]


def test_set_rail_idempotent(device, board):
    device.set_rail_voltage(4, Fraction("1.9"))
    once = board.devices[device.config.rail(4).pot_address].snapshot()
    device.set_rail_voltage(4, Fraction("1.9"))
    assert board.devices[device.config.rail(4).pot_address].snapshot() == once


# -- layer purity ----------------------------------------------------------------------

def test_device_layer_only_talks_in_whole_commands(counting_device, board):
    device, counting = counting_device
    device.set_frequency(0, 150 * MHZ)
    device.set_phase(0, degrees=90)
    device.enable_output(0, True)
    device.set_rail_voltage(0, Fraction("2.5"))
    assert len(counting.written) % 4 == 0
    # each write call carried whole command frames
    assert counting.write_sizes and all(
        size > 0 and size % 4 == 0 for size in counting.write_sizes)
    # the same commands issued one by one leave the same register state
    replay = BoardState()
    replay.boot()
    for cmd in frames(counting.written):
        replay.ingest(encode_command(cmd))
        replay.run_until_idle()
    assert {a: d.snapshot() for a, d in replay.devices.items()} == \
        {a: d.snapshot() for a, d in board.devices.items()}


# -- wire cost: commands and round trips per operation ---------------------------------

@pytest.mark.parametrize("prepare, operation, cost", [
    (None, lambda d: d.set_frequency(0, 100 * MHZ), (40, 1)),
    (lambda d: d.set_frequency(1, 100 * MHZ),
     lambda d: d.set_frequency(0, 75 * MHZ), (29, 1)),
    (lambda d: d.set_frequency(2, 100 * MHZ),
     lambda d: d.set_phase(2, degrees=45), (1, 0)),
    (lambda d: (d.set_frequency(1, 100 * MHZ), d.set_frequency(0, 75 * MHZ)),
     lambda d: d.set_phase(1, degrees=45), (1, 0)),
    (lambda d: d.set_frequency(2, 100 * MHZ),
     lambda d: DeviceHandle(d.bridge, d.synth_map, d.config, d.pot_map
                            ).set_phase(2, degrees=45), (23, 1)),
    (lambda d: d.set_frequency(0, 100 * MHZ), lambda d: d.enable_output(0, False), (2, 1)),
    (lambda d: d.set_frequency(0, 100 * MHZ), lambda d: d.read_outputs(), (61, 1)),
    (None, lambda d: d.read_rails(), (5, 1)),
    (lambda d: d.set_frequency(0, 100 * MHZ), lambda d: d.read_status(), (66, 1)),
    (None, lambda d: d.set_rail_voltage(0, Fraction("2.5")), (1, 0)),
], ids=["set_frequency", "set_frequency-pinned", "set_phase-cached-plan",
        "set_phase-after-pinned-retune", "set_phase-recovered-plan", "enable_output",
        "read_outputs", "read_rails", "read_status", "set_rail_voltage"])
def test_wire_cost_commands_and_read_calls(counting_device, prepare, operation, cost):
    device, counting = counting_device
    if prepare is not None:
        prepare(device)
    counting.reset()
    operation(device)
    assert (len(frames(counting.written)), counting.reads) == cost


def test_set_frequency_writes_registers_in_field_order(counting_device):
    # feedback divider, output divider, phase step, then the enable register
    device, counting = counting_device
    device.set_frequency(0, 100 * MHZ)
    written = [c.register for c in frames(counting.written) if c.action is Action.WRITE]
    assert written == [*range(0x10, 0x1B), *range(0x20, 0x2B), 0x60, 0x04]


# sha256 of the bytes each operation wrote before its reads were prepared
# batches, and their number per write call
_WIRE_BEFORE = {
    "set_frequency": ([64, 96], "0a8b4ce1395beb8484c84761a00d947d"
                                "ced15c54ba369741dedbdcbb5f9729d2"),
    "set_frequency-pinned": ([64, 52], "2eea8df461c92c0f6f07424ed0ef6815"
                                       "32012893a9d6d5b0877477edc138652b"),
    "read_outputs": ([244], "a6366b1dd1d258c1de0b3dab98f99d74"
                            "aa218fbc99587416e015680698ebef05"),
    "read_rails": ([20], "73183ab14739f63d14ba985382e2c355"
                         "c56de8333e13d1b1f44f2d7a09fb0fc8"),
}


def test_prepared_reads_leave_the_bytes_on_the_wire_as_they_were(counting_device):
    device, counting = counting_device
    operations = {
        "set_frequency": lambda: device.set_frequency(0, 100 * MHZ),
        "set_frequency-pinned": lambda: device.set_frequency(1, Fraction(777777777, 7)),
        "read_outputs": device.read_outputs,
        "read_rails": device.read_rails,
    }
    for name, operation in operations.items():
        counting.reset()
        operation()
        written = (counting.write_sizes, hashlib.sha256(counting.written).hexdigest())
        assert written == _WIRE_BEFORE[name], name


def test_a_second_handle_encodes_no_read_frame(counting_device, monkeypatch):
    device, counting = counting_device
    encoded_reads = []

    def encode(command):
        if command.action is Action.READ:
            encoded_reads.append(command)
        return encode_command(command)

    monkeypatch.setattr(host, "encode_command", encode)
    second = DeviceHandle(device.bridge, device.synth_map, device.config, device.pot_map)
    assert second.read_status() == device.read_status()
    assert encoded_reads == []
    assert ([frame for _, frame in second._retune_reads]
            == [frame for _, frame in device._retune_reads])


def test_compiled_write_folds_fields_sharing_a_register(counting_device, board):
    device, counting = counting_device
    regmap = device.synth_map
    address = regmap.field("clk0_en").address
    assert regmap.field("clk1_en").address == address
    device.bridge.write_register(device.synth_address, address, 0b1000)
    before = synth_snapshot(device, board)
    counting.reset()
    _write_fields(device, ["clk0_en", "clk1_en"], [1, 1])
    after = synth_snapshot(device, board)
    assert after[address] == 0b1011
    assert {a for a in range(256) if before[a] != after[a]} == {address}
    assert [(c.action, c.register) for c in frames(counting.written)] == \
        [(Action.READ, address), (Action.WRITE, address)]
    assert counting.reads == 1


def test_compiled_write_folds_onto_current_without_reading(counting_device, board):
    device, counting = counting_device
    regmap = device.synth_map
    address = regmap.field("clk0_en").address
    device.bridge.write_register(device.synth_address, address, 0b0100)
    counting.reset()
    write = RegisterWrite(regmap, ["clk0_en", "clk1_en"])
    assert write.current == [address]
    device.bridge.write_fields(device.synth_address, write, [1, 1], current=[0b1000])
    # the other bits come from current, not from the board
    assert synth_snapshot(device, board)[address] == 0b1011
    assert [(c.action, c.register) for c in frames(counting.written)] == \
        [(Action.WRITE, address)]
    assert (counting.writes, counting.reads) == (1, 0)


class _ImageSession:
    """A session onto a fixed register image that records each frame
    written: its reads answer from the image and its writes change
    nothing."""

    def __init__(self, image):
        self.image, self.written, self._owed = image, [], b""

    def write_bytes(self, frame):
        self.written.append(bytes(frame))
        commands = zip(*[iter(frame)] * 4)
        self._owed += bytes(self.image[r] for op, _dev, r, _val in commands if op == 0x00)

    def read_bytes(self, size):
        data, self._owed = self._owed[:size], self._owed[size:]
        return data


@st.composite
def _divider_pairs(draw):
    """A feedback and an output divider: a joint plan for a band target,
    a plan for a second target on that VCO kept, or any two dividers whose
    P1 fits its 18 bits."""
    kind = draw(st.sampled_from(["joint", "kept", "any"]))
    if kind == "any":
        def divider():
            d = draw(st.integers(1, 2**30 - 1))
            n = draw(st.integers(4 * d, 2052 * d - 1))
            return RationalDivider.from_pair(n // math.gcd(n, d), d // math.gcd(n, d))
        return divider(), divider()
    cons = load_config().constraints
    band = st.integers(5 * MHZ, 200 * MHZ)
    plan = plan_frequency(cons.f_in, draw(band), 0, cons)
    if kind == "kept":
        try:
            plan = plan_frequency(cons.f_in, draw(band), 1, cons, feedback=plan.feedback)
        except UnsatisfiableFrequencyError:
            reject()
    return plan.feedback, plan.output


_WRITE_PARTS = [RETUNE_FRESH, RETUNE_KEPT, ("steps",), ("enable",),
                ("feedback", "enable"), ("output",)]


@settings(max_examples=200, deadline=None)
@given(channel=st.integers(0, 3), parts=st.sampled_from(_WRITE_PARTS),
       dividers=_divider_pairs(), steps=st.integers(-128, 127), enable=st.booleans(),
       image=st.binary(min_size=256, max_size=256), read_first=st.booleans())
def test_compiled_write_matches_the_oracle_fold(channel, parts, dividers, steps, enable,
                                                image, read_first):
    # the frame a compiled write sends is the old field-by-field fold's,
    # byte for byte, whether the kept bits come from values the caller
    # read (as a retune's do) or from a read of its own
    regmap, device = load_synth_map(), 0x70
    feedback, output = dividers
    given = {part: value for part, value in zip(
        ("feedback", "output", "steps", "enable"), (feedback, output, steps, enable))
        if part in parts}
    retune = retune_views(regmap)[channel].registers if "output" in parts else None
    write = channel_write(regmap, channel, parts, retune)
    session = _ImageSession(image)
    current = None if read_first else [image[a] for a in write.current]
    BridgeClient(session).write_fields(device, write, channel_values(**given), current)
    expected = oracles.write_frame(device, oracles.channel_writes(regmap, channel, **given),
                                   image)
    assert session.written[-1] == expected
    reads = [bytes((0x00, device, a, 0x00)) for a in write.current]
    assert session.written[:-1] == ([b"".join(reads)] if read_first and reads else [])


def test_compiled_write_refuses_a_value_past_its_field_before_sending(counting_device):
    device, counting = counting_device
    cons, address = device.constraints, device.synth_address
    plan = plan_frequency(cons.f_in, 100 * MHZ, 0, cons)
    wide = RationalDivider(2052, 0, 1)  # P1 = 2052 * 128 - 512 = 2**18
    too_wide = FrequencyPlan(plan.f_in, plan.f_target, plan.feedback, wide, plan.f_vco,
                             plan.f_achieved, plan.rel_error)
    with pytest.raises(FieldOverflowError):
        apply_plan(device.bridge, device.synth_map, too_wide, None, 0, address)
    step_128 = PhasePlan(128, 1 / plan.f_vco, 128 / plan.f_vco, Fraction(0))
    with pytest.raises(ValueError, match="steps 128 outside signed 8-bit range"):
        apply_plan(device.bridge, device.synth_map, plan, step_128, 0, address)
    # a raw value past its field, on a write that reads its kept bits first
    write = channel_write(device.synth_map, 0, RETUNE_KEPT)
    assert write.current
    with pytest.raises(ValueError, match="value 262144 does not fit 18-bit field ms0_p1"):
        device.bridge.write_fields(address, write, [2**18, 0, 1, 0, 1])
    assert (counting.writes, counting.reads, counting.written) == (0, 0, bytearray())


def test_readback_matches_simulator_view(device, board):
    device.set_frequency(0, 75 * MHZ)
    device.set_phase(0, degrees=45)
    device.set_rail_voltage(3, Fraction("2.2"))
    assert device.read_outputs() == board.query_outputs()
    assert device.read_rails() == board.query_rails()


def test_read_status_is_read_outputs_and_read_rails_in_one_exchange(counting_device, board):
    device, counting = counting_device
    device.set_frequency(0, 75 * MHZ)
    device.set_frequency(2, 150 * MHZ)
    device.set_phase(2, degrees=90)
    device.set_rail_voltage(3, Fraction("2.2"))
    counting.reset()
    channels, rails = device.read_status()
    assert (counting.writes, counting.reads) == (1, 1)
    assert channels == board.query_outputs() == device.read_outputs()
    assert rails == board.query_rails() == device.read_rails()


# -- readback memo: one decode per steady register image ---------------------------


@pytest.fixture
def decodes(monkeypatch):
    """Calls the host makes to each readout decoder, counted by set."""
    counts = {"outputs": 0, "rails": 0}
    for name in counts:
        decode = getattr(host, f"decode_{name}")

        def counted(*args, _decode=decode, _name=name):
            counts[_name] += 1
            return _decode(*args)

        monkeypatch.setattr(host, f"decode_{name}", counted)
    return counts


def test_a_steady_board_polled_twice_decodes_once(counting_device, board, decodes):
    device, counting = counting_device
    device.set_frequency(0, 100 * MHZ)
    counting.reset()
    for _ in range(2):
        assert device.read_outputs() == board.query_outputs()
        assert device.read_rails() == board.query_rails()
    # every read still goes out: 61 + 5 reads, twice, one round trip each
    assert (len(frames(counting.written)), counting.reads) == (132, 4)
    assert decodes == {"outputs": 1, "rails": 1}
    # one register write between two polls: that set is decoded again
    device.set_phase(0, degrees=45)
    device.set_rail_voltage(2, Fraction("2.2"))
    assert device.read_outputs() == board.query_outputs()
    assert device.read_rails() == board.query_rails()
    assert decodes == {"outputs": 2, "rails": 2}


def test_read_status_shares_the_memo_of_each_read_set(counting_device, board, decodes):
    device, counting = counting_device
    device.set_frequency(1, 125 * MHZ)
    device.read_outputs()
    device.read_rails()
    counting.reset()
    # a status read right after a poll decodes nothing, and still reads all 66
    assert device.read_status() == (board.query_outputs(), board.query_rails())
    assert (len(frames(counting.written)), counting.reads) == (66, 1)
    assert decodes == {"outputs": 1, "rails": 1}
    # only the slice that changed is decoded again, by either call
    device.set_rail_voltage(0, Fraction("2.2"))
    assert device.read_status() == (board.query_outputs(), board.query_rails())
    assert device.read_rails() == board.query_rails()
    assert decodes == {"outputs": 1, "rails": 2}


def test_editing_a_readback_result_leaves_the_next_read_as_it_was(device, board):
    device.set_frequency(0, 75 * MHZ)
    device.set_phase(0, degrees=45)
    outputs, rails = device.read_outputs(), device.read_rails()
    outputs.clear()
    rails[0] = Fraction(99)
    del rails[1]
    assert device.read_outputs() == board.query_outputs()
    assert device.read_rails() == board.query_rails()
    channels, rails = device.read_status()
    channels.pop()
    rails.clear()
    assert device.read_status() == (board.query_outputs(), board.query_rails())


class TimeOutOnce:
    """Session wrapper whose next read, once armed, times out, leaving the
    responses queued as a late wire would."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False

    def write_bytes(self, data):
        self.inner.write_bytes(data)

    def read_bytes(self, n):
        if self.armed:
            self.armed = False
            raise ReadTimeoutError(f"wanted {n} byte(s), none arrived")
        return self.inner.read_bytes(n)

    def close(self):
        self.inner.close()


def test_a_read_that_times_out_leaves_the_memo_as_it_was(board, decodes):
    session = TimeOutOnce(open_session(SessionConfig(), board))
    device = DeviceHandle(BridgeClient(session), board.synth_map, board.config,
                          board.pot_map)
    try:
        device.set_frequency(0, 100 * MHZ)
        steady = device.read_outputs()
        address = device.synth_map.field("ms0_phstep").address
        image = board.devices[device.synth_address].read(address)
        device.bridge.write_register(device.synth_address, address, image ^ 0x01)
        session.armed = True
        with pytest.raises(ReadTimeoutError):
            device.read_outputs()
        # back to the image the memo holds: the next poll decodes nothing
        device.bridge.write_register(device.synth_address, address, image)
        assert device.read_outputs() == steady == board.query_outputs()
        assert decodes["outputs"] == 1
    finally:
        device.close()


# a raw write: an index into the 61 output reads or the 5 rail reads, and a
# byte, or None for the byte the set-up wrote there
_raw_writes = st.one_of(st.tuples(st.just("synth"), st.integers(0, 60)),
                        st.tuples(st.just("rail"), st.integers(0, 4)))
_images = st.one_of(st.none(), st.integers(0, 0xFF))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.tuples(_raw_writes, _images), max_size=2),
                          st.sampled_from(["outputs", "rails", "status"])),
                max_size=25))
def test_readback_memo_reads_what_the_board_holds(steps):
    """Raw register writes, invalid divider images among them, each step's
    few followed by a poll: each readback equals the board's oracle view,
    however the memo was left by the reads and edits before it."""
    board = BoardState()
    device = bridge_init(SessionConfig(), simulator=board)
    try:
        targets = (100 * MHZ, Fraction(777777777, 7), 33 * MHZ, 150 * MHZ)
        for channel, target in enumerate(targets):
            device.set_frequency(channel, target)
            device.set_phase(channel, degrees=30 * (channel + 1))
        where = {"synth": [(device.synth_address, r)
                           for r in output_view(device.synth_map).registers],
                 "rail": rail_registers(device.config.rails, device.pot_map)}
        configured = {a: board.devices[a].snapshot() for a in board.devices}
        for writes, poll in steps:
            for (kind, index), image in writes:
                address, register = where[kind][index]
                if image is None:
                    image = configured[address][register]
                device.bridge.write_register(address, register, image)
            outputs, rails = board.query_outputs(), board.query_rails()
            if poll == "outputs":
                read = device.read_outputs()
                assert read == outputs
            elif poll == "rails":
                read = device.read_rails()
                assert read == rails
            else:
                read = device.read_status()
                assert read == (outputs, rails)
                read[1].clear()
                read = read[0]
            read.clear()  # the caller's copy; the next read must not see it
    finally:
        device.close()


def test_readback_retune_and_recovery_make_no_unpack_calls(monkeypatch, device, board):
    # every decode runs through a view compiled when the handle was built
    calls = []
    unpack = RegisterMap.unpack

    def counting_unpack(self, name, read):
        calls.append(name)
        return unpack(self, name, read)

    monkeypatch.setattr(RegisterMap, "unpack", counting_unpack)
    device.set_frequency(0, 100 * MHZ)  # no other channel runs: VCO planned
    device.set_frequency(1, 125 * MHZ)  # channel 0 runs: VCO kept
    device.read_outputs()
    device.read_status()
    board.query_outputs()
    fresh = DeviceHandle(device.bridge, device.synth_map, device.config, device.pot_map)
    fresh.set_phase(1, degrees=45)  # the plan recovered from the registers
    assert calls == []


def test_a_handle_compiles_each_channel_write_when_first_used(monkeypatch, device):
    built = []
    init = RegisterWrite.__init__

    def counting_init(self, regmap, names, current=None):
        built.append(list(names))
        init(self, regmap, names, current)

    monkeypatch.setattr(RegisterWrite, "__init__", counting_init)
    handle = DeviceHandle(device.bridge, device.synth_map, device.config, device.pot_map)
    assert built == []
    handle.set_frequency(0, 100 * MHZ)  # no other channel runs: VCO planned
    handle.set_phase(0, degrees=45)
    handle.set_frequency(0, 50 * MHZ)
    handle.set_phase(0, degrees=90)
    assert [names[0] for names in built] == ["fb_p1", "ms0_phstep"]
    handle.set_frequency(1, 125 * MHZ)  # channel 0 runs: VCO kept
    handle.enable_output(1, False)
    handle.enable_output(1, True)
    assert [names[0] for names in built[2:]] == ["ms1_p1", "clk1_en"]


def test_a_view_over_a_read_set_missing_a_register_names_the_field():
    regmap = load_synth_map()
    registers = [a for a in output_view(regmap).registers if a != 0x62]
    with pytest.raises(RegisterMapError, match="field ms2_phstep needs register 0x62"):
        output_view(regmap, registers)
    with pytest.raises(RegisterMapError, match="field fb_p2 needs register 0x15"):
        RegisterView(regmap, ["fb_p1", "fb_p2"], [0x10, 0x11, 0x12, 0x13, 0x14, 0x16])
    # built over all it needs, in any order and among other registers
    view = RegisterView(regmap, ["fb_p2"], [0x16, 0x00, 0x14, 0x13, 0x15])
    assert view.fields([0x3F, 0xAA, 0x22, 0x11, 0x33])[view.slot["fb_p2"]] == 0x3F332211
    # a write takes its kept bits from current registers that must hold them
    with pytest.raises(RegisterMapError, match="register 0x26 keeps bits 0xC0"):
        RegisterWrite(regmap, ["ms0_p2"], [0x22])
    write = RegisterWrite(regmap, ["ms0_p2"], [0x00, 0x26])
    assert write.payload(write.place([0x3F332211]), [0xAA, 0xC5]) == \
        bytes((0x11, 0x22, 0x33, 0xFF))


def test_tcp_readback_matches_simulator_view(tcp_server):
    device = bridge_init(SessionConfig.parse(f"tcp:127.0.0.1:{tcp_server.port}"))
    try:
        targets = (100 * MHZ, Fraction(777777777, 7), 33 * MHZ, 150 * MHZ)
        for channel, target in enumerate(targets):
            device.set_frequency(channel, target)
            device.set_phase(channel, degrees=30 * (channel + 1))
        device.set_rail_voltage(1, Fraction("2.2"))
        device.set_rail_voltage(4, Fraction("1.9"))
        outputs, rails = device.read_outputs(), device.read_rails()
    finally:
        device.close()
    assert all(ch.enabled and ch.f_out is not None for ch in outputs)
    assert outputs == tcp_server.board.query_outputs()
    assert rails == tcp_server.board.query_rails()


def test_repeated_operations_random_idempotence(device, board):
    rng = random.Random(41)
    for _ in range(10):
        channel = rng.randrange(4)
        target = rng.randint(5 * MHZ, 200 * MHZ)
        device.set_frequency(channel, target)
        once = synth_snapshot(device, board)
        device.set_frequency(channel, target)
        assert synth_snapshot(device, board) == once
