"""Acceptance suite: every criterion at its stated count and tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` or ``-v``
to see them); a failing criterion fails its test.  Expected values come from
the independent oracles in ``oracles.py``, never from the code under test.
"""

import math
import random
import time
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from clockgen import (
    BoardState,
    BridgeClient,
    BridgeCommand,
    DeviceHandle,
    RationalDivider,
    RegisterMap,
    SessionConfig,
    decode_command,
    decode_divider,
    encode_command,
    encode_divider,
    open_session,
    plan_frequency,
    plan_voltage,
    default_config,
)

import oracles

MHZ = 10**6
F_IN = Fraction(25 * MHZ)
CONS = default_config().constraints
SEED = 20260811


def _sim_device():
    board = BoardState()
    board.boot()
    session = open_session(SessionConfig(), board)
    return board, DeviceHandle(BridgeClient(session), board.synth_map,
                               board.config, board.pot_map)


def test_criterion_1_band_coverage_sweep():
    """1,000 seeded pseudo-random targets plus both endpoints: all valid,
    rel_error <= 1e-9, exact whenever the brute-force oracle is exact,
    in under 10 s of planning time."""
    rng = random.Random(SEED)
    targets = oracles.band_targets(rng, 1000, CONS)
    targets += [CONS.f_out_min, CONS.f_out_max]

    started = time.perf_counter()
    plans = [plan_frequency(F_IN, target) for target in targets]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"planning took {elapsed:.2f} s"

    exact_expected = 0
    for target, plan in zip(targets, plans):
        oracles.assert_plan_valid(plan, CONS)
        assert plan.rel_error <= Fraction(1, 10**9), target
        if oracles.has_exact_plan(F_IN, target, CONS):
            exact_expected += 1
            assert plan.rel_error == 0, target
    print(f"\nACCEPTANCE 1 PASS: {len(targets)} targets planned in "
          f"{elapsed:.2f} s, {exact_expected} oracle-exact, all within 1e-9")


def test_criterion_2_end_to_end_oracle_equivalence():
    """200 plans driven over the wire; the simulator's decoded frequency
    equals the plan exactly in every case."""
    rng = random.Random(SEED)
    targets = oracles.band_targets(rng, 200, CONS)
    board, device = _sim_device()
    matches = 0
    for i, target in enumerate(targets):
        channel = i % 4
        plan = device.set_frequency(channel, target)
        status = board.query_outputs()[channel]
        assert status.enabled
        assert status.f_out == plan.f_achieved, target
        matches += 1
    assert matches == 200
    print(f"\nACCEPTANCE 2 PASS: {matches}/200 wire-applied plans match "
          "query_outputs with exact rational equality")


def test_criterion_3_protocol_conformance():
    """Exhaustive write-then-read echo over all 256 addresses x 4 values on
    a full-mask device, plus 10,000 random command round-trips."""
    board = BoardState(synth_map=RegisterMap((), ()))
    board.boot()
    session = open_session(SessionConfig(), board)
    synth = board.config.synth_address
    echoes = 0
    for address in range(256):
        for value in (0x00, 0x55, 0xAA, 0xFF):
            session.write_bytes(encode_command(
                BridgeCommand.write(synth, address, value)))
            session.write_bytes(encode_command(
                BridgeCommand.read(synth, address)))
            assert session.read_bytes(1)[0] == value, (address, value)
            echoes += 1
    assert echoes == 1024

    rng = random.Random(SEED + 3)
    for _ in range(10_000):
        if rng.random() < 0.5:
            cmd = BridgeCommand.write(rng.randint(0, 0x7F),
                                      rng.randint(0, 0xFF), rng.randint(0, 0xFF))
        else:
            cmd = BridgeCommand.read(rng.randint(0, 0x7F), rng.randint(0, 0xFF))
        assert decode_command(encode_command(cmd)) == cmd
    print("\nACCEPTANCE 3 PASS: 1024/1024 exhaustive echoes, "
          "10000/10000 command round-trips")


def test_criterion_4_firmware_latency_bound():
    """1,000 random ingest/step schedules: every dispatch within 5 steps of
    its flag, no command lost or duplicated."""
    rng = random.Random(SEED + 4)
    worst = 0
    for _ in range(1000):
        board = BoardState()
        board.boot()
        count = rng.randint(1, 8)
        commands = []
        for _ in range(count):
            if rng.random() < 0.5:
                commands.append(BridgeCommand.write(
                    0x70, rng.randint(0x06, 0xFF), rng.randint(0, 0xFF)))
            else:
                commands.append(BridgeCommand.read(0x70, rng.randint(0, 0xFF)))
        stream = b"".join(encode_command(c) for c in commands)
        for byte in stream:
            board.ingest(bytes((byte,)))
            for _ in range(rng.randint(0, 3)):
                board.step()
        board.run_until_idle()
        dispatched = [record.command for record in board.dispatch_log]
        assert dispatched == commands, "lost, duplicated, or reordered command"
        for record in board.dispatch_log:
            latency = record.dispatch_tick - record.flag_set_tick
            assert 0 <= latency <= 5, record
            worst = max(worst, latency)
    print(f"\nACCEPTANCE 4 PASS: 1000 schedules, no loss/duplication, "
          f"worst dispatch latency {worst} step(s) (bound 5)")


def test_criterion_5_channel_isolation():
    """4 channels x 50 random frequencies: register diffs stay inside the
    programmed channel's named fields plus the feedback fields."""
    rng = random.Random(SEED + 5)
    board, device = _sim_device()
    regmap = device.synth_map
    synth = board.devices[board.config.synth_address]
    violations = 0
    checks = 0
    for channel in range(4):
        allowed = {
            field.address
            for field in regmap.fields.values()
            if field.name.startswith((f"ms{channel}_", f"clk{channel}_", "fb_"))
        }
        other_bits = [
            (field.address, field.mask)
            for field in regmap.fields.values()
            if not field.name.startswith((f"ms{channel}_", f"clk{channel}_", "fb_"))
        ]
        for _ in range(50):
            target = rng.randint(5 * MHZ, 200 * MHZ)
            before = synth.snapshot()
            device.set_frequency(channel, target)
            after = synth.snapshot()
            changed = {a for a in range(256) if before[a] != after[a]}
            if not changed <= allowed:
                violations += 1
            for address, mask in other_bits:
                if (before[address] ^ after[address]) & mask:
                    violations += 1
            checks += 1
    assert violations == 0
    print(f"\nACCEPTANCE 5 PASS: {checks} programmings, 0 isolation violations")


def test_criterion_5_retune_leaves_the_other_channels_running():
    """200 band targets on random channels while the others run phased: no
    other enabled channel's exact frequency or phase moves."""
    rng = random.Random(SEED + 55)
    board, device = _sim_device()
    for channel in range(4):
        device.set_frequency(channel, rng.randint(5 * MHZ, 200 * MHZ))
        device.set_phase(channel, degrees=rng.randint(-90, 90))
    checks = 0
    for target in oracles.band_targets(rng, 200, CONS):
        channel = rng.randrange(4)
        before = board.query_outputs()
        plan = device.set_frequency(channel, target)
        after = board.query_outputs()
        assert after[channel].f_out == plan.f_achieved
        assert plan.rel_error <= Fraction(1, 10**9), target
        for k in range(4):
            if k != channel and before[k].enabled:
                assert (after[k].f_out, after[k].phase_offset) == \
                    (before[k].f_out, before[k].phase_offset), (target, k)
                checks += 1
        if rng.random() < 0.5:
            device.set_phase(channel, degrees=rng.randint(-90, 90))
    assert checks == 600
    print(f"\nACCEPTANCE 5 PASS: {checks} running channels read back unchanged "
          "across 200 retunes")


def test_criterion_5_reproduced_shared_vco_case():
    """Channel 1 at 100 MHz, then channel 0 at a rough rational: channel 1
    still reads exactly 100 MHz."""
    board, device = _sim_device()
    device.set_frequency(1, 100 * MHZ)
    plan = device.set_frequency(0, Fraction(6608629685309, 40000))
    outputs = board.query_outputs()
    assert outputs[1].f_out == 100 * MHZ
    assert outputs[0].f_out == plan.f_achieved
    assert plan.rel_error <= Fraction(1, 10**9)


def _pinned_feedbacks():
    """Feedback dividers whose VCO lies in the window, fractional parts up
    to the denominator cap."""
    cap = CONS.max_denominator

    def divider(a, c, b):
        b %= c
        g = math.gcd(b, c)
        return RationalDivider(a, b // g, c // g) if b else RationalDivider(a, 0, 1)

    low = math.ceil(CONS.vco_min / F_IN)
    high = math.floor(CONS.vco_max / F_IN)
    return st.builds(divider, st.integers(low, high), st.integers(1, cap),
                     st.integers(0, cap - 1)).filter(
        lambda fb: CONS.vco_min <= F_IN * fb.value <= CONS.vco_max)


@settings(max_examples=300, deadline=None)
@given(feedback=_pinned_feedbacks(),
       target=st.fractions(min_value=CONS.f_out_min, max_value=CONS.f_out_max,
                           max_denominator=10**7))
# f_vco/target between the harmonic and arithmetic means of 25 and
# 25 + 1/cap: the nearest divider (25) has the larger relative error
@example(feedback=RationalDivider(100, 0, 1),
         target=Fraction(576460751240419082730000000000, 5764607512511565009601))
def test_criterion_5_pinned_plan_matches_the_limit_denominator_oracle(feedback, target):
    """A pinned plan keeps the feedback, stays within 1e-9, and its error is
    the smaller of the two capped output dividers either side of
    f_vco/target: the nearest one (``limit_denominator``) and its Farey
    neighbour on the other side."""
    plan = plan_frequency(F_IN, target, feedback=feedback)
    assert plan.feedback == feedback
    assert plan.rel_error <= Fraction(1, 10**9)
    f_vco = F_IN * feedback.value
    cap = CONS.max_denominator
    ideal = f_vco / target
    candidates = oracles.capped_neighbors(ideal, cap)
    assert plan.rel_error == min(abs(f_vco / d - target) / target for d in candidates)
    oracles.assert_plan_valid(plan, CONS)


def test_criterion_5_alone_on_the_board_the_plan_is_joint():
    """With no other channel enabled, set_frequency programs exactly the
    joint plan of plan_frequency."""
    rng = random.Random(SEED + 56)
    board, device = _sim_device()
    for target in oracles.band_targets(rng, 40, CONS):
        channel = rng.randrange(4)
        for k in range(4):
            device.enable_output(k, False)
        assert device.set_frequency(channel, target) == \
            plan_frequency(F_IN, target, channel, CONS)


def test_criterion_6_phase_quantization():
    """500 random in-range offsets: quantization error at most half a
    quantum, and the simulator's reported offset is exactly steps / f_vco."""
    rng = random.Random(SEED + 6)
    board, device = _sim_device()
    count = 0
    for _ in range(500):
        channel = rng.randrange(4)
        plan = device.set_frequency(channel, rng.randint(5 * MHZ, 200 * MHZ))
        quantum = 1 / plan.f_vco
        steps_target = rng.randint(-127, 127)
        jitter = Fraction(rng.randint(-499, 499), 1000)
        request = (steps_target + jitter) * quantum
        phase = device.set_phase(channel, seconds=request)
        assert abs(phase.offset_achieved - request) <= quantum / 2
        status = board.query_outputs()[channel]
        assert status.phase_offset == phase.steps * (1 / plan.f_vco)
        assert phase.steps == oracles.phase_steps(request, quantum)
        count += 1
    assert count == 500
    print("\nACCEPTANCE 6 PASS: 500 offsets quantized within half a quantum, "
          "simulator offsets exact")


def test_criterion_7_power_rail_planning():
    """100 random feasible targets per rail match the exhaustive argmin with
    the tie rule; boot programs all five default rails."""
    rng = random.Random(SEED + 7)
    config = default_config()
    agreements = 0
    for rail in config.rails:
        low, high = rail.predict(0), rail.predict(255)
        for _ in range(100):
            target = low + (high - low) * Fraction(rng.randint(0, 10**6), 10**6)
            setting = plan_voltage(rail, target)
            assert setting.code == oracles.supply_code(rail, target), (
                rail.rail_id, target)
            agreements += 1
    assert agreements == 500

    board = BoardState()
    board.boot()
    volts = board.query_rails()
    assert len(volts) == 5
    for rail in config.rails:
        expected = rail.predict(oracles.supply_code(rail, rail.v_default))
        assert volts[rail.rail_id] == expected
    print("\nACCEPTANCE 7 PASS: 500/500 oracle agreements, "
          "boot programs all five default rails")


def test_criterion_8_divider_encoding_roundtrip():
    """10,000 random legal dividers survive encode/decode with exact value
    equality, including denominator-cap boundaries."""
    rng = random.Random(SEED + 8)
    cap = 2**30 - 1
    boundary = [
        RationalDivider(566, cap - 1, cap),
        RationalDivider(8, 1, cap),
        RationalDivider(5, 0, 1),
        RationalDivider(2048, cap - 1, cap),
        RationalDivider(2048, 0, 1),
        RationalDivider(5, 1, 2),
    ]
    dividers = list(boundary)
    while len(dividers) < 10_000 + len(boundary):
        c = rng.randint(1, cap)
        b = rng.randint(0, c - 1)
        if b:
            g = math.gcd(b, c)
            b, c = b // g, c // g
            if c == 1:
                b = 0
        else:
            c = 1
        dividers.append(RationalDivider(rng.randint(5, 2048), b, c))
    for divider in dividers:
        p1, p2, p3 = encode_divider(divider)
        assert 0 <= p1 < 2**18 and 0 <= p2 < 2**30 and 1 <= p3 < 2**30
        assert decode_divider(p1, p2, p3).value == divider.value, divider
    print(f"\nACCEPTANCE 8 PASS: {len(dividers)} dividers round-tripped "
          "with exact value equality")
