import dataclasses
import gc
import math
import random
import socket
import struct
import threading
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clockgen import (
    Action,
    BoardState,
    BridgeClient,
    BridgeCommand,
    DeviceHandle,
    InconsistentEncodingError,
    Phase,
    RationalDivider,
    RegisterMap,
    SimulatorServer,
    encode_command,
    encode_divider,
    plan_frequency,
    plan_phase,
    plan_voltage,
)
from clockgen.planner import apply_plan
from clockgen.readout import (
    decode_feedback,
    decode_outputs,
    decode_plan,
    enabled_channels,
    output_view,
    plan_view,
    retune_views,
)
from clockgen.sim import DISPATCH_HISTORY, DISPATCH_STEP_BOUND
from clockgen.transport import TcpSession

import oracles


def booted():
    board = BoardState()
    board.boot()
    return board


def feed(board, cmd):
    board.ingest(encode_command(cmd))


class DirectBridge(BridgeClient):
    """Drives the board through its byte interface, pumping steps itself."""

    def __init__(self, board):
        self.board = board

    def exchange(self, commands):
        for cmd in commands:
            feed(self.board, cmd)
        self.board.run_until_idle()
        out = self.board.take_output()
        assert len(out) == sum(cmd.action is Action.READ for cmd in commands)
        return list(out)


# -- boot ---------------------------------------------------------------------

def test_boot_programs_default_rail_codes():
    board = booted()
    for rail in board.config.rails:
        expected = plan_voltage(rail, rail.v_default).code
        register = board.pot_map.field(f"wiper{rail.pot_channel}").address
        assert board.devices[rail.pot_address].read(register) == expected


def test_boot_twice_idempotent():
    board = booted()
    snapshots = {a: d.snapshot() for a, d in board.devices.items()}
    board.boot()
    assert {a: d.snapshot() for a, d in board.devices.items()} == snapshots
    assert board.firmware.phase is Phase.MAIN_LOOP
    assert not board.firmware.flag_raised


def test_bytes_ingested_before_main_loop_survive_boot():
    board = BoardState()
    for byte in encode_command(BridgeCommand.write(0x70, 0x06, 0xAB)):
        board.ingest_byte(byte)
    board.boot()
    board.run_until_idle()
    assert board.devices[0x70].read(0x06) == 0xAB
    assert len(board.dispatch_log) == 1


def test_step_before_boot_rejected():
    with pytest.raises(RuntimeError):
        BoardState().step()


# -- ingest framing --------------------------------------------------------------

def test_write_command_sets_flag_and_pending():
    board = booted()
    for byte in (0xFF, 0x70, 0x06, 0xAB):
        board.ingest_byte(byte)
    assert board.firmware.flag_write
    assert not board.firmware.flag_read
    assert board.firmware.pending == BridgeCommand.write(0x70, 0x06, 0xAB)


def test_read_command_sets_read_flag():
    board = booted()
    feed(board, BridgeCommand.read(0x70, 0x06))
    assert board.firmware.flag_read
    assert not board.firmware.flag_write


def test_invalid_opcode_discarded_silently():
    board = booted()
    board.ingest(bytes([0x02, 0x70, 0x06, 0xAB]))
    assert not board.firmware.flag_raised
    assert len(board.firmware.rx_buffer) == 0
    board.run_until_idle()
    assert board.dispatch_log == []


def test_out_of_range_address_discarded_silently():
    board = booted()
    board.ingest(bytes([0xFF, 0x80, 0x06, 0xAB]))
    assert not board.firmware.flag_raised
    assert len(board.firmware.rx_buffer) == 0


def test_framing_recovers_after_discarded_frame():
    board = booted()
    board.ingest(bytes([0x02, 0x00, 0x00, 0x00]))
    feed(board, BridgeCommand.write(0x70, 0x06, 0xAB))
    board.run_until_idle()
    assert board.devices[0x70].read(0x06) == 0xAB


def test_command_arriving_while_flag_set_is_buffered():
    board = booted()
    feed(board, BridgeCommand.write(0x70, 0x06, 0x11))
    assert board.firmware.flag_write
    feed(board, BridgeCommand.write(0x70, 0x07, 0x22))  # parked behind the flag
    assert board.firmware.pending == BridgeCommand.write(0x70, 0x06, 0x11)
    assert len(board.firmware.rx_buffer) == 4
    board.step()  # dispatches the first
    assert board.devices[0x70].read(0x06) == 0x11
    assert board.devices[0x70].read(0x07) == 0x00
    board.step()  # frames and dispatches the parked one
    assert board.devices[0x70].read(0x07) == 0x22


def test_partial_frame_keeps_buffer_under_four():
    board = booted()
    for byte in (0xFF, 0x70, 0x06):
        board.ingest_byte(byte)
    assert len(board.firmware.rx_buffer) == 3
    assert not board.firmware.flag_raised


# -- step dispatch ---------------------------------------------------------------

def test_write_dispatch_within_five_steps():
    board = booted()
    feed(board, BridgeCommand.write(0x70, 0x06, 0xAB))
    set_tick = board.firmware.flag_set_tick
    for _ in range(5):
        board.step()
    assert not board.firmware.flag_raised
    assert board.devices[0x70].read(0x06) == 0xAB
    record = board.dispatch_log[-1]
    assert record.dispatch_tick - set_tick <= 5


def test_write_then_read_echo_over_the_wire():
    board = booted()
    feed(board, BridgeCommand.write(0x70, 0x06, 0xAB))
    feed(board, BridgeCommand.read(0x70, 0x06))
    board.run_until_idle()
    assert board.take_output() == b"\xab"


def test_read_unknown_device_returns_ff():
    board = booted()
    feed(board, BridgeCommand.read(0x5A, 0x06))
    board.run_until_idle()
    assert board.take_output() == b"\xff"


def test_write_unknown_device_ignored_flag_cleared():
    board = booted()
    feed(board, BridgeCommand.write(0x5A, 0x06, 0xAB))
    board.run_until_idle()
    assert not board.firmware.flag_raised
    assert len(board.dispatch_log) == 1
    snapshots = [d.snapshot() for d in board.devices.values()]
    assert all(s == d.snapshot() for s, d in zip(snapshots, board.devices.values()))


def test_masked_write_through_wire():
    board = booted()  # register 0x00 is read-only in the shipped map
    feed(board, BridgeCommand.write(0x70, 0x00, 0x00))
    board.run_until_idle()
    assert board.devices[0x70].read(0x00) == 0x38


def test_random_interleavings_never_lose_commands():
    rng = random.Random(31)
    for _ in range(100):
        board = booted()
        commands = [
            BridgeCommand.write(0x70, rng.randint(0x06, 0xFF), rng.randint(0, 255))
            if rng.random() < 0.5 else
            BridgeCommand.read(0x70, rng.randint(0, 0xFF))
            for _ in range(6)
        ]
        stream = b"".join(encode_command(c) for c in commands)
        for byte in stream:
            board.ingest_byte(byte)
            for _ in range(rng.randint(0, 2)):
                board.step()
        board.run_until_idle()
        dispatched = [r.command for r in board.dispatch_log]
        assert dispatched == commands
        assert all(r.dispatch_tick - r.flag_set_tick <= 5 for r in board.dispatch_log)


# -- query oracle views ------------------------------------------------------------

def test_query_after_apply_plan_matches_exactly():
    board = booted()
    bridge = DirectBridge(board)
    plan = plan_frequency(board.config.constraints.f_in, 200 * 10**6)
    apply_plan(bridge, board.synth_map, plan, None, channel=0,
               synth_address=board.config.synth_address)
    outputs = board.query_outputs()
    assert outputs[0].enabled
    assert outputs[0].f_out == Fraction(200 * 10**6)
    assert outputs[0].problem is None


def test_query_reset_board_all_disabled():
    board = booted()
    for status in board.query_outputs():
        assert not status.enabled
        assert status.f_out is None


def test_query_low_vco_reports_invalid_configuration():
    board = booted()
    bridge = DirectBridge(board)
    # feedback 50 with 25 MHz input puts the VCO at 1.25 GHz, below window;
    # bypass plan_frequency and hand-write the registers
    from clockgen import RationalDivider, encode_divider
    p1, p2, p3 = encode_divider(RationalDivider(50, 0, 1))
    for name, value in (("fb_p1", p1), ("fb_p2", p2), ("fb_p3", p3)):
        for address, bits, mask in board.synth_map.pack(name, value):
            current = bridge.read_register(0x70, address)
            bridge.write_register(0x70, address, (current & ~mask) | bits)
    for status in board.query_outputs():
        assert status.problem == "vco frequency outside window"
        assert status.f_out is None


def test_query_phase_offset_exact():
    board = booted()
    bridge = DirectBridge(board)
    plan = plan_frequency(board.config.constraints.f_in, 100 * 10**6)
    phase = plan_phase(plan, seconds=Fraction(5) / plan.f_vco)
    apply_plan(bridge, board.synth_map, plan, phase, channel=2,
               synth_address=0x70)
    status = board.query_outputs()[2]
    assert status.phase_offset == phase.steps * (1 / plan.f_vco)
    assert status.f_out == plan.f_achieved


# register images for the readout property: each divider is drawn legal or
# broken in one of the ways the decoder names, then one register may be hit
_BOARD = BoardState()
_CONS, _REGMAP = _BOARD.config.constraints, _BOARD.synth_map
_P1_LIMIT = 2**18
_P23_LIMIT = 2**30
_OUTPUT_VIEW = output_view(_REGMAP)


def snapshot(image):
    """The values of ``image``'s output registers, in their read order."""
    return [image[a] for a in _OUTPUT_VIEW.registers]


@st.composite
def divider_image(draw, int_range, legal_range, edges=()):
    """``(p1, p2, p3)``: a legal divider with its integer part in
    ``legal_range`` (P3 not always in lowest terms), one within 1e-6 of one
    of the values ``edges``, one whose integer part is outside
    ``int_range``, P2 >= P3, P3 = 0, or any field values."""
    int_min, int_max = int_range
    kinds = ["legal"] * 6 + ["int-out-of-range", "p2-not-below-p3", "p3-zero", "any"]
    kind = draw(st.sampled_from(kinds + ["edge"] * bool(edges)))
    if kind == "edge":
        nudge = draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 10**6)
        value = draw(st.sampled_from(edges)) + nudge
        a, rest = divmod(value, 1)
        b, c = rest.numerator, rest.denominator
    elif kind in ("legal", "int-out-of-range"):
        if kind == "legal":
            a = draw(st.integers(*legal_range) | st.sampled_from(legal_range))
        else:
            # the smallest image is 4; past 2051 P1 overflows its 18 bits
            a = draw(st.sampled_from([int_min - 1, int_max + 1])
                     | st.integers(4, int_min - 1) | st.integers(int_max + 1, 2051))
        c = draw(st.one_of(st.just(1), st.integers(1, 1000),
                           st.integers(1, _P23_LIMIT - 1)))
        b = draw(st.integers(0, c - 1))
    else:
        p3 = 0 if kind == "p3-zero" else draw(st.integers(1, _P23_LIMIT - 1))
        p2 = draw(st.integers(p3 if kind == "p2-not-below-p3" else 0, _P23_LIMIT - 1))
        return draw(st.integers(0, _P1_LIMIT - 1)), p2, p3
    # the encoder's formulas on a + b/c, reduced or not
    return (128 * (a * c + b)) // c - 512, (128 * b) % c, c


def put_field(image, regmap, name, value):
    """Place ``value`` in the field or composite ``name`` of ``image``, bit
    by bit."""
    for address, bits, mask in oracles.bitwise_pack(
            oracles.probing_group(regmap.fields, name), value):
        image[address] = (image[address] & ~mask) | bits


@st.composite
def register_image(draw, regmap, cons=_CONS):
    """Every synthesizer register: the feedback and four output dividers,
    enable and power-down bits and phase steps, then at most one output
    register overwritten with any byte.  The feedback's legal values and
    edges follow ``cons``."""
    image = {a: regmap.reset_value(a) for a in range(256)}

    def put(name, value):
        put_field(image, regmap, name, value)

    fb_range = (cons.fb_int_min, cons.fb_int_max)
    ms_range = (cons.ms_int_min, cons.ms_int_max)
    # mostly a VCO inside the window, sometimes anywhere in range
    in_window = (math.ceil(cons.vco_min / cons.f_in),
                 math.floor(cons.vco_max / cons.f_in))
    edges = (cons.vco_min / cons.f_in, cons.vco_max / cons.f_in)
    images = [("fb", draw(divider_image(fb_range, draw(st.sampled_from(
        [in_window, in_window, in_window, fb_range])), edges)))]
    images += [(f"ms{k}", draw(divider_image(ms_range, ms_range))) for k in range(4)]
    for prefix, values in images:
        for suffix, value in zip(("p1", "p2", "p3"), values):
            put(f"{prefix}_{suffix}", value)
    for k in range(4):
        put(f"clk{k}_en", draw(st.integers(0, 1)))
        put(f"clk{k}_pdn", draw(st.sampled_from([0, 0, 0, 1])))
        put(f"ms{k}_phstep", draw(st.integers(0, 255)))
    hit = draw(st.none() | st.tuples(st.sampled_from(output_view(regmap).registers),
                                     st.integers(0, 255)))
    if hit is not None:
        image[hit[0]] = hit[1]
    return image


@settings(max_examples=400, deadline=None)
@given(register_image(_REGMAP))
def test_decode_outputs_matches_independent_oracle(image):
    assert decode_outputs(_OUTPUT_VIEW, snapshot(image), _CONS) == \
        oracles.decode_outputs(image.__getitem__, _REGMAP, _CONS)


# a reference that is not a whole number of Hz, so the VCO's pair and the
# window's edges meet real denominators in the cross-multiplied check
_ODD_CONS = dataclasses.replace(_CONS, f_in=Fraction(100_000_001, 4))


@settings(max_examples=400, deadline=None)
@given(register_image(_REGMAP, _ODD_CONS))
def test_decode_outputs_matches_the_oracle_off_a_whole_hz_reference(image):
    assert decode_outputs(_OUTPUT_VIEW, snapshot(image), _ODD_CONS) == \
        oracles.decode_outputs(image.__getitem__, _REGMAP, _ODD_CONS)


_FEEDBACK_PROBLEMS = ("invalid feedback divider", "vco frequency outside window")


def _oracle_vco(image, cons):
    """The VCO the oracle's own field reads and divider inversion give."""
    def field(name):
        return oracles.bitwise_unpack(oracles.probing_group(_REGMAP.fields, name),
                                      image.__getitem__)

    feedback = oracles.divider_from_image(*(field(f"fb_{p}") for p in ("p1", "p2", "p3")),
                                          cons.fb_int_min, cons.fb_int_max)
    return cons.f_in * feedback


def _decoded(call, *args):
    """What ``call(*args)`` returns, or the message of the
    :class:`InconsistentEncodingError` it raises."""
    try:
        return call(*args)
    except InconsistentEncodingError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([_CONS, _ODD_CONS]).flatmap(
    lambda cons: st.tuples(st.just(cons), register_image(_REGMAP, cons))))
def test_retune_and_plan_views_agree_with_the_oracle(case):
    """Each channel's retune view gives the oracle's enable bits and its
    feedback problem or VCO; each channel's plan view gives the oracle's
    feedback problem, output divider problem or frequency."""
    cons, image = case
    expected = oracles.decode_outputs(image.__getitem__, _REGMAP, cons)
    problem = expected[0].problem
    vco = problem if problem in _FEEDBACK_PROBLEMS else _oracle_vco(image, cons)
    for view in retune_views(_REGMAP):
        values = [image[a] for a in view.registers]
        assert enabled_channels(view, values) == [ch.enabled for ch in expected]
        feedback = _decoded(decode_feedback, view, values, cons)
        assert (feedback if isinstance(feedback, str) else cons.f_in * feedback.value) == vco
    # plan reads hold no enable bit: with every channel on, the oracle gives
    # each channel's frequency wherever its dividers decode
    every_on = dict(image)
    for k in range(4):
        put_field(every_on, _REGMAP, f"clk{k}_en", 1)
        put_field(every_on, _REGMAP, f"clk{k}_pdn", 0)
    for k, status in enumerate(oracles.decode_outputs(every_on.__getitem__, _REGMAP, cons)):
        view = plan_view(_REGMAP, k)
        plan = _decoded(decode_plan, view, [image[a] for a in view.registers], cons, k)
        if status.problem is not None:
            assert plan == status.problem
        else:
            assert (plan.f_vco, plan.f_achieved) == (vco, status.f_out)


def _edge_image(cons, feedback_numerator, p3):
    """Four enabled channels on output dividers 20 to 23 with phase steps,
    under the feedback divider ``feedback_numerator / p3``, its P3 as given."""
    image = {a: _REGMAP.reset_value(a) for a in range(256)}
    scaled = 128 * feedback_numerator
    for name, value in (("fb_p1", scaled // p3 - 512), ("fb_p2", scaled % p3),
                        ("fb_p3", p3)):
        put_field(image, _REGMAP, name, value)
    for k in range(4):
        for name, value in zip(("p1", "p2", "p3"), encode_divider(RationalDivider(20 + k, 0, 1))):
            put_field(image, _REGMAP, f"ms{k}_{name}", value)
        put_field(image, _REGMAP, f"clk{k}_en", 1)
        put_field(image, _REGMAP, f"ms{k}_phstep", (k * 37 - 60) & 0xFF)
    return image


@pytest.mark.parametrize("cons", [_CONS, _ODD_CONS], ids=["whole-hz-f_in", "odd-f_in"])
@pytest.mark.parametrize("edge", ["vco_min", "vco_max"])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_feedback_at_and_one_p2_step_past_the_vco_window_edges(cons, edge, step):
    low, high = cons.vco_min / cons.f_in, cons.vco_max / cons.f_in
    # the largest 30-bit P3 that holds both edges exactly: the finest step
    both = math.lcm(low.denominator, high.denominator)
    p3 = both * ((2**30 - 1) // both)
    at = getattr(cons, edge) / cons.f_in * p3
    assert at.denominator == 1
    numerator = at.numerator + step
    inside = low <= Fraction(numerator, p3) <= high
    assert inside == (step == 0 or (step > 0) == (edge == "vco_min"))
    image = _edge_image(cons, numerator, p3)
    values = snapshot(image)
    expected = oracles.decode_outputs(image.__getitem__, _REGMAP, cons)
    assert decode_outputs(_OUTPUT_VIEW, values, cons) == expected
    if inside:
        assert all(ch.enabled and ch.f_out is not None for ch in expected)
        assert decode_feedback(_OUTPUT_VIEW, values, cons).value == Fraction(numerator, p3)
    else:
        assert {ch.problem for ch in expected} == {"vco frequency outside window"}
        with pytest.raises(InconsistentEncodingError, match="vco frequency outside window"):
            decode_feedback(_OUTPUT_VIEW, values, cons)


def test_query_rails_formula_endpoint():
    board = booted()
    rail = board.config.rails[0]
    register = board.pot_map.field(f"wiper{rail.pot_channel}").address
    board.devices[rail.pot_address].write(register, 0)
    volts = board.query_rails()
    assert volts[0] == rail.v_ref * (1 + rail.r_wiper / rail.r_fixed)


def test_query_rails_after_boot_match_defaults():
    board = booted()
    volts = board.query_rails()
    for rail in board.config.rails:
        setting = plan_voltage(rail, rail.v_default)
        assert volts[rail.rail_id] == setting.v_predicted


def test_full_mask_board_echoes_every_register():
    board = BoardState(synth_map=RegisterMap((), ()))
    board.boot()
    bridge = DirectBridge(board)
    for address in (0, 1, 4, 0x10, 0x7F, 0xFF):
        bridge.write_register(0x70, address, 0x5A)
        assert bridge.read_register(0x70, address) == 0x5A


# -- batch service ---------------------------------------------------------------

def _frames():
    """One 4-byte frame: a valid read or write on a present or absent device,
    a bad opcode, an address above 0x7F, or any four bytes."""
    address = st.sampled_from([0x70, 0x2C, 0x2D, 0x00, 0x5A, 0x7F])
    byte = st.integers(0, 0xFF)
    return st.one_of(
        st.builds(lambda a, r, p: bytes((0x00, a, r, p)), address, byte, byte),
        st.builds(lambda a, r, v: bytes((0xFF, a, r, v)), address, byte, byte),
        st.builds(lambda o, a, r, v: bytes((o, a, r, v)),
                  byte.filter(lambda o: o not in (0x00, 0xFF)), address, byte, byte),
        st.builds(lambda o, a, r, v: bytes((o, a, r, v)),
                  st.sampled_from([0x00, 0xFF]), st.integers(0x80, 0xFF), byte, byte),
        st.binary(min_size=4, max_size=4),
    )


def _chunks():
    """Byte chunks as they arrive at the board: whole frames, each chunk
    possibly ending in a partial frame that the next one completes."""
    chunk = st.builds(lambda frames, tail: b"".join(frames) + tail,
                      st.lists(_frames(), max_size=12), st.binary(max_size=3))
    return st.lists(chunk, min_size=1, max_size=5)


def _booted_pair():
    """Two fresh booted boards sharing one loaded map set."""
    first = booted()
    second = BoardState(first.synth_map, first.config, first.pot_map)
    second.boot()
    return first, second


def _state(board):
    fw = board.firmware
    return {
        "registers": {a: d.snapshot() for a, d in board.devices.items()},
        "output": board.take_output(),
        "ticks": fw.step_counter,
        "flags": (fw.flag_write, fw.flag_read, fw.pending, fw.flag_set_tick),
        "rx": bytes(fw.rx_buffer),
        "records": list(board.dispatch_log),
        "counters": (board.commands_served, board.frames_dropped,
                     board.max_dispatch_steps),
    }


def _step_until_idle(board):
    fw = board.firmware
    while fw.flag_raised or len(fw.rx_buffer) >= 4:
        board.step()


@settings(max_examples=200, deadline=None)
@given(prefix=st.binary(max_size=6), chunks=_chunks())
def test_batch_service_matches_single_steps(prefix, chunks):
    """ingest + run_until_idle leaves the board as ingest_byte per byte plus
    step() until idle would; ``prefix`` is ingested before the first batch,
    so a flag may already be raised when it starts."""
    batched, stepped = _booted_pair()
    for byte in prefix:
        batched.ingest_byte(byte)
        stepped.ingest_byte(byte)
    for chunk in chunks:
        batched.ingest(chunk)
        batched.run_until_idle()
        for byte in chunk:
            stepped.ingest_byte(byte)
        _step_until_idle(stepped)
        assert _state(batched) == _state(stepped)


def _reference(board):
    """The reference firmware on a copy of ``board``'s registers."""
    return oracles.ReferenceFirmware({a: d.cells() for a, d in board.devices.items()})


def _as_reference(state):
    """``_state`` with each command as the reference's plain tuple."""
    def plain(command):
        if command is None:
            return None
        return (command.action.value, command.i2c_address, command.register,
                command.payload)

    write, read, pending, set_tick = state["flags"]
    return {**state, "flags": (write, read, plain(pending), set_tick),
            "records": [(plain(r.command), r.flag_set_tick, r.dispatch_tick)
                        for r in state["records"]]}


@settings(max_examples=200, deadline=None)
@given(prefix=st.binary(max_size=6), chunks=_chunks())
def test_batch_service_and_single_steps_match_the_reference_firmware(prefix, chunks):
    """ingest + run_until_idle, and ingest + step() until idle, each leave
    the board as the byte-by-byte reference firmware leaves its copy."""
    batched, stepped = _booted_pair()
    reference = _reference(batched)
    batched.ingest(prefix)
    stepped.ingest(prefix)
    reference.receive(prefix)
    for chunk in chunks:
        batched.ingest(chunk)
        batched.run_until_idle()
        stepped.ingest(chunk)
        _step_until_idle(stepped)
        reference.receive(chunk)
        reference.run_until_idle()
        expected = reference.state()
        assert _as_reference(_state(batched)) == expected
        assert _as_reference(_state(stepped)) == expected


@settings(max_examples=200, deadline=None)
@given(chunks=_chunks(), data=st.data())
def test_steps_between_chunks_match_the_reference_firmware(chunks, data):
    """A few steps after each chunk, not always enough to go idle, so a
    raised flag may wait several ticks while more chunks arrive; then
    run_until_idle serves the rest."""
    board = booted()
    reference = _reference(board)
    for chunk in chunks:
        board.ingest(chunk)
        reference.receive(chunk)
        for _ in range(data.draw(st.integers(0, 4), label="steps")):
            board.step()
            reference.step()
        assert _as_reference(_state(board)) == reference.state()
    board.run_until_idle()
    reference.run_until_idle()
    assert _as_reference(_state(board)) == reference.state()


def test_run_until_idle_before_boot_refuses_like_step():
    board = BoardState()
    board.run_until_idle()  # nothing buffered: idle
    board.ingest(encode_command(BridgeCommand.write(0x70, 0x06, 0xAB)))
    with pytest.raises(RuntimeError, match="boot first"):
        board.run_until_idle()
    assert len(board.firmware.rx_buffer) == 4
    board.boot()
    board.run_until_idle()
    assert board.devices[0x70].read(0x06) == 0xAB


def test_read_commands_are_shared_values():
    assert BridgeCommand.read(0x70, 0x06) is BridgeCommand.read(0x70, 0x06)
    assert BridgeCommand.write(0x70, 0x06, 1) is not BridgeCommand.write(0x70, 0x06, 1)
    with pytest.raises(ValueError):
        BridgeCommand.read(0x80, 0x06)
    # 6.0 and True equal ints; the cache must not hand their instances
    # to callers passing plain ints, even when they come first
    BridgeCommand.read.cache_clear()
    BridgeCommand.read(0x70, 6.0)
    BridgeCommand.read(0x70, True)
    for register in (6, 1):
        command = BridgeCommand.read(0x70, register)
        assert type(command.register) is int
        assert encode_command(command) == bytes((0x00, 0x70, register, 0x00))


# -- bounded dispatch history ------------------------------------------------------

def test_dispatch_history_stays_bounded_with_true_counters():
    board = booted()
    bad = bytes((0x02, 0x70, 0x06, 0x00))
    served = dropped = 0
    for round_ in range(3 * DISPATCH_HISTORY // 61 + 1):
        commands = [BridgeCommand.read(0x70, (round_ + r) % 256) for r in range(60)]
        commands.append(BridgeCommand.write(0x70, 0x06, round_ % 256))
        board.ingest(b"".join(map(encode_command, commands)) + bad)
        board.run_until_idle()
        assert len(board.take_output()) == 60
        served += len(commands)
        dropped += 1
        assert len(board.dispatch_log) <= DISPATCH_HISTORY
        assert board.dispatch_log[-1].command == commands[-1]
    for byte in encode_command(BridgeCommand.read(0x70, 0x06)) + bad:
        board.ingest_byte(byte)  # the single-step path keeps the same bound
    for _ in range(3):
        board.step()
    served, dropped = served + 1, dropped + 1
    assert served > 3 * DISPATCH_HISTORY
    assert len(board.dispatch_log) <= DISPATCH_HISTORY
    assert board.commands_served == served
    assert board.frames_dropped == dropped
    assert 1 <= board.max_dispatch_steps <= DISPATCH_STEP_BOUND
    board.boot()
    assert board.dispatch_log == []
    assert (board.commands_served, board.frames_dropped,
            board.max_dispatch_steps) == (0, 0, 0)


def test_dispatch_history_stays_bounded_over_tcp():
    server = SimulatorServer(BoardState(), port=0)
    server.start()
    try:
        session = TcpSession.connect("127.0.0.1", server.port, 2.0)
        board = server.board
        device = DeviceHandle(BridgeClient(session), board.synth_map,
                              board.config, board.pot_map)
        try:
            session.write_bytes(bytes((0x00, 0x80, 0x06, 0x00)))  # dropped
            served = 0
            while served <= DISPATCH_HISTORY:
                assert device.read_outputs() == board.query_outputs()
                served += 61
                assert len(board.dispatch_log) <= DISPATCH_HISTORY
            assert device.read_rails() == board.query_rails()
            served += 5
        finally:
            device.close()
        assert len(board.dispatch_log) <= DISPATCH_HISTORY
        assert board.commands_served == served
        assert board.frames_dropped == 1
        assert board.max_dispatch_steps <= DISPATCH_STEP_BOUND
    finally:
        server.stop()


def test_server_start_on_a_busy_port_leaves_no_socket_open(tcp_server):
    server = SimulatorServer(BoardState(), port=tcp_server.port)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            server.start()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    server.stop()  # nothing to stop; must not raise


@pytest.mark.parametrize("port", [-1, 65536])
def test_server_refuses_a_port_outside_the_tcp_range(port):
    with pytest.raises(ValueError, match="outside 0..65535"):
        SimulatorServer(BoardState(), port=port)


def test_serve_forever_returns_once_serving_ends():
    server = SimulatorServer(BoardState(), port=0)
    server.start()
    server._listener.close()  # accept fails, so the service thread ends
    result = []
    waiter = threading.Thread(target=lambda: result.append(server.serve_forever()),
                              daemon=True)
    waiter.start()
    waiter.join(2.0)
    assert not waiter.is_alive(), "serve_forever kept waiting on a dead server"
    assert result == [False]


# -- server fuzzing ------------------------------------------------------------------

SYNC_READ = bytes((0x00, 0x70, 0x00, 0x00))


@pytest.fixture(scope="module")
def fuzzed_server():
    """One server for every example, and a reference board sharing its maps."""
    server = SimulatorServer(BoardState(), port=0)
    server.start()
    reference = BoardState(server.board.synth_map, server.board.config,
                           server.board.pot_map)
    reference.boot()
    yield server, reference
    server.stop()


def _step_valid_frames(reference, data):
    """Feed ``reference`` the complete valid frames of ``data`` one at a
    time through step(); return the responses they queue."""
    for pos in range(0, len(data) - 3, 4):
        frame = data[pos:pos + 4]
        if frame[0] in (0x00, 0xFF) and frame[1] <= 0x7F:
            reference.ingest(frame)
            reference.step()
            assert not reference.firmware.flag_raised
    return reference.take_output()


def _connect(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _receive(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, f"connection closed after {len(data)} of {count} response bytes"
        data += chunk
    return data


def _pieces(chunks, start, stop):
    """Bytes ``start:stop`` of the joined ``chunks``, cut where they are."""
    pos = 0
    for chunk in chunks:
        piece = chunk[max(start - pos, 0):max(stop - pos, 0)]
        pos += len(chunk)
        if piece:
            yield piece


def _clients():
    """What each client sends, chunk by chunk: whole frames of any kind and
    runs of 1-7 bytes, so a frame may be split anywhere and the client may
    leave in the middle of one; then how it leaves: an orderly close, or a
    reset."""
    chunk = st.one_of(_frames(), st.binary(min_size=1, max_size=7))
    return st.lists(st.tuples(st.lists(chunk, max_size=12),
                              st.sampled_from(["close", "reset"])),
                    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(clients=_clients(), probe=st.integers(0, 0xFF))
def test_server_survives_any_bytes_and_disconnects(fuzzed_server, clients, probe):
    """Whatever clients send and however they leave, the server thread
    lives on, the next connection frames cleanly, and the registers equal
    those of a board fed the same complete valid frames through step()."""
    server, reference = fuzzed_server
    for chunks, leave in clients:
        data = b"".join(chunks)
        whole = len(data) - len(data) % 4
        with _connect(server) as sock:
            if leave == "close":
                for piece in _pieces(chunks, 0, len(data)):
                    sock.sendall(piece)
                sock.shutdown(socket.SHUT_WR)
                expected = _step_valid_frames(reference, data)
                received = b""
                while chunk := sock.recv(4096):
                    received += chunk
                assert received == expected
            else:
                # a reset may discard bytes the server has not read yet, so
                # a read after the complete frames is answered before the
                # rest of the last frame is sent and the connection reset
                for piece in _pieces(chunks, 0, whole):
                    sock.sendall(piece)
                sock.sendall(SYNC_READ)
                expected = _step_valid_frames(reference, data[:whole] + SYNC_READ)
                assert _receive(sock, len(expected)) == expected
                for piece in _pieces(chunks, whole, len(data)):
                    sock.sendall(piece)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
    with _connect(server) as sock:
        sock.sendall(bytes((0x00, 0x70, probe, 0x00)))
        assert _receive(sock, 1) == bytes((reference.devices[0x70].read(probe),))
        assert server._thread.is_alive() and server.error is None
        assert {a: d.snapshot() for a, d in server.board.devices.items()} == \
            {a: d.snapshot() for a, d in reference.devices.items()}
