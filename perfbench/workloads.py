"""The four workloads: set-up, one timed op, and an untimed exact check.

All are closed loops with one client.  The TCP workloads serve the board
from a ``SimulatorServer`` thread in this process, so the benchmark uses
one client thread plus the service thread.  Every check compares with the
simulator's oracle views (``query_outputs``/``query_rails``) or with an
exact recomputation; a failed check never stops the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import clockgen
from clockgen.planner import CHANNEL_COUNT as CHANNELS

from cli_probe import MARK as PROBE_MARK
from targets import Targets, decimal_text
from wire import CountingSession, ServedCounter, Wire

MAX_REL_ERROR = Fraction(1, 10**9)
RAIL_EVERY = 4  # retune_tcp also sets a rail on every fourth op
CLI_TIMEOUT_S = 30
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
# what the installed ``clockgen`` console script does
CLI_ENTRY = "import sys; from clockgen.cli import main; sys.exit(main())"


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    wire: Wire = field(default_factory=Wire)
    drift: int = 0
    plans: int = 0
    exact: int = 0


def plan_problem(plan, target: Fraction, cons) -> str | None:
    """Why ``plan`` is not an exact, valid plan for ``target``, if it is not.

    The dividers go through their register image (encode, then decode) so
    the frequency checked is the one the device would produce.
    """
    if plan.f_target != target:
        return f"plan is for {plan.f_target}, not {target}"
    if plan.rel_error > MAX_REL_ERROR:
        return f"rel_error {float(plan.rel_error):.3g} above 1e-9"
    if plan.rel_error != abs(plan.f_achieved - target) / target:
        return "rel_error disagrees with f_achieved"
    feedback = clockgen.decode_divider(*clockgen.encode_divider(plan.feedback))
    output = clockgen.decode_divider(*clockgen.encode_divider(plan.output))
    f_vco = cons.f_in * feedback.value
    if not cons.vco_min <= f_vco <= cons.vco_max:
        return f"vco {float(f_vco):.6g} Hz outside window"
    if f_vco / output.value != plan.f_achieved:
        return "register image does not give f_achieved"
    return None


def drift(before, after, touched) -> int:
    """Untouched, enabled channels whose exact frequency or phase moved."""
    return sum(
        1 for b, a in zip(before, after)
        if b.channel not in touched and b.enabled
        and (b.f_out, b.phase_offset) != (a.f_out, a.phase_offset)
    )


class PlanSweep:
    """One ``plan_frequency`` call per op; no wire."""

    name = "plan_sweep"
    board = None

    def __init__(self, seed: int):
        self.seed = seed
        self.check_wire = Wire()

    def setup(self) -> None:
        self.cons = clockgen.load_config().constraints
        self.targets = Targets(self.seed, self.cons)

    def teardown(self) -> None:
        pass

    def next_input(self, i: int):
        _kind, target = self.targets.frequency()
        return i % CHANNELS, target

    def op(self, inp):
        channel, target = inp
        return clockgen.plan_frequency(self.cons.f_in, target, channel, self.cons)

    def check(self, inp, plan, error) -> Outcome:
        if error is not None:
            return Outcome(False, repr(error), plans=1)
        problem = plan_problem(plan, inp[1], self.cons)
        return Outcome(problem is None, problem or "", plans=1,
                       exact=int(plan.rel_error == 0))

    def finish(self) -> list[str]:
        return []

    def served(self) -> Wire:
        return Wire()


class Stack:
    """A board served over TCP from this process, and a counted client."""

    def __init__(self):
        self.board = clockgen.BoardState()
        self.served = ServedCounter(self.board)
        self.server = clockgen.SimulatorServer(self.board, port=0)
        self.server.start()
        try:
            self.device, self.wire = self.connect()
        except BaseException:
            self.server.stop()
            raise

    def connect(self):
        """A device handle over a new counted TCP session, loaded the way
        ``bridge_init`` loads it."""
        session = clockgen.open_session(
            clockgen.SessionConfig(endpoint="tcp", port=self.server.port))
        wire = CountingSession(session)
        device = clockgen.DeviceHandle(
            clockgen.BridgeClient(wire), clockgen.load_synth_map(),
            clockgen.load_config(), clockgen.load_pot_map())
        return device, wire

    @staticmethod
    def barrier(device, wire: CountingSession) -> Wire:
        """One read: every command sent before it has been served."""
        before = wire.snapshot()
        device.bridge.read_register(device.synth_address, 0)
        return wire.snapshot() - before

    def close(self) -> None:
        try:
            self.device.close()
        finally:
            self.server.stop()


class _TcpWorkload:
    """Shared set-up of the wire workloads: all four channels planned,
    phased and enabled, every rail set; the wire counts of each operation
    kind are recorded on the way."""

    board = None

    def __init__(self, seed: int):
        self.seed = seed
        self.calibration: dict[str, list[int]] = {}

    def setup(self) -> None:
        self.stack = Stack()
        self.board = self.stack.board
        self.device = self.stack.device
        self.wire = self.stack.wire
        self.cons = self.device.constraints
        self.targets = Targets(self.seed, self.cons)
        self.check_wire = Wire()
        d = self.device
        for channel in range(CHANNELS):
            _kind, target = self.targets.frequency()
            self._calibrate("set_frequency", d.set_frequency, channel, target)
            self._calibrate("set_phase", d.set_phase, channel,
                            seconds=self.targets.phase_seconds())
        for rail in d.config.rails:
            self._calibrate("set_rail_voltage", d.set_rail_voltage,
                            rail.rail_id, self.targets.rail_volts())
        self._calibrate("read_outputs", d.read_outputs)
        self._calibrate("read_rails", d.read_rails)
        self.check_wire += Stack.barrier(d, self.wire)
        self.view = self.board.query_outputs()
        if not all(ch.enabled and ch.f_out is not None for ch in self.view):
            raise RuntimeError(f"set-up left a channel unusable: {self.view}")

    def _calibrate(self, kind, fn, *args, **kwargs):
        before = self.wire.snapshot()
        fn(*args, **kwargs)
        delta = self.wire.snapshot() - before
        self.calibration[kind] = [delta.commands, delta.round_trips]

    def teardown(self) -> None:
        self.stack.close()

    def served(self) -> Wire:
        return self.stack.served.snapshot()

    def finish(self) -> list[str]:
        """Self-check at the end of a run: the client-side counters agree
        with what the board served."""
        self.check_wire += Stack.barrier(self.device, self.wire)
        return counter_problems(self.wire.snapshot(), self.served())


def counter_problems(client: Wire, served: Wire) -> list[str]:
    problems = []
    if client.commands != served.commands:
        problems.append(f"client counted {client.commands} commands, "
                        f"the board served {served.commands}")
    if client.bytes_in != served.bytes_in:
        problems.append(f"client read {client.bytes_in} response bytes, "
                        f"the board sent {served.bytes_in}")
    return problems


@dataclass
class RetuneInput:
    channel: int
    target: Fraction
    seconds: Fraction
    rail: int | None
    volts: Fraction | None
    before: Wire


class RetuneTcp(_TcpWorkload):
    """``set_frequency`` + ``set_phase`` on channel ``i mod 4``, and a
    ``set_rail_voltage`` every RAIL_EVERY ops."""

    name = "retune_tcp"

    def next_input(self, i: int) -> RetuneInput:
        _kind, target = self.targets.frequency()
        rail = volts = None
        if i % RAIL_EVERY == RAIL_EVERY - 1:
            rails = self.device.config.rails
            rail = rails[(i // RAIL_EVERY) % len(rails)].rail_id
            volts = self.targets.rail_volts()
        return RetuneInput(i % CHANNELS, target, self.targets.phase_seconds(),
                           rail, volts, self.wire.snapshot())

    def op(self, inp: RetuneInput):
        d = self.device
        plan = d.set_frequency(inp.channel, inp.target)
        phase = d.set_phase(inp.channel, seconds=inp.seconds)
        setting = None
        if inp.rail is not None:
            setting = d.set_rail_voltage(inp.rail, inp.volts)
        return plan, phase, setting

    def check(self, inp: RetuneInput, result, error) -> Outcome:
        wire = self.wire.snapshot() - inp.before
        self.check_wire += Stack.barrier(self.device, self.wire)
        outputs = self.board.query_outputs()
        moved = drift(self.view, outputs, {inp.channel})
        self.view = outputs
        if error is not None:
            return Outcome(False, repr(error), wire, moved, plans=1)
        plan, phase, setting = result
        problem = plan_problem(plan, inp.target, self.cons)
        got = outputs[inp.channel]
        if problem is None and not got.enabled:
            problem = "retuned channel reads back disabled"
        if problem is None and got.f_out != plan.f_achieved:
            problem = f"readback {got.f_out} Hz, planned {plan.f_achieved} Hz"
        if problem is None and got.phase_offset != phase.offset_achieved:
            problem = f"phase readback {got.phase_offset}, planned {phase.offset_achieved}"
        if problem is None and setting is not None:
            volts = self.board.query_rails()[inp.rail]
            if volts != setting.v_predicted:
                problem = f"rail {inp.rail} reads {volts} V, planned {setting.v_predicted} V"
        return Outcome(problem is None, problem or "", wire, moved, 1,
                       int(plan.rel_error == 0))


class PollTcp(_TcpWorkload):
    """``read_outputs`` + ``read_rails``: read-only, no planning."""

    name = "poll_tcp"

    def next_input(self, i: int) -> Wire:
        return self.wire.snapshot()

    def op(self, _inp):
        return self.device.read_outputs(), self.device.read_rails()

    def check(self, before: Wire, result, error) -> Outcome:
        wire = self.wire.snapshot() - before
        outputs = self.board.query_outputs()
        moved = drift(self.view, outputs, ())
        self.view = outputs
        if error is not None:
            return Outcome(False, repr(error), wire, moved)
        got_outputs, got_rails = result
        problem = None
        if got_outputs != outputs:
            problem = f"outputs {got_outputs} differ from oracle {outputs}"
        elif got_rails != self.board.query_rails():
            problem = f"rails {got_rails} differ from oracle"
        return Outcome(problem is None, problem or "", wire, moved)


@dataclass
class CliInput:
    args: list[str]
    channel: int | None
    target: Fraction | None
    before: Wire


class CliOneshot:
    """One ``clockgen`` process per op against this process's TCP server,
    alternating ``set-freq`` and ``--json status``.  Wire traffic is
    counted at the board, since the client is another process."""

    name = "cli_oneshot"

    def __init__(self, seed: int):
        self.seed = seed
        self.probe = False  # True: run each op under cli_probe.py
        self.probe_exports: list[dict] = []
        src = str(Path(clockgen.__file__).resolve().parent.parent)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def setup(self) -> None:
        self.stack = Stack()
        self.board = self.stack.board
        self.check_wire = Wire()
        self.cons = self.stack.device.constraints
        self.targets = Targets(self.seed, self.cons, decimal_only=True)
        d = self.stack.device
        for channel in range(CHANNELS):
            d.set_frequency(channel, self.targets.frequency()[1])
            d.set_phase(channel, seconds=self.targets.phase_seconds())
        d.close()
        self.view = self.board.query_outputs()
        self.last_set: tuple[int, str] | None = None
        inp = self.next_input(1)
        outcome = self.check(inp, self.op(inp), None)
        if not outcome.ok:
            raise RuntimeError(f"warm-up command line run failed: {outcome.reason}")

    def teardown(self) -> None:
        self.stack.server.stop()

    def served(self) -> Wire:
        return self.stack.served.snapshot()

    def next_input(self, i: int) -> CliInput:
        head = [f"--transport=tcp:127.0.0.1:{self.stack.server.port}", "--json"]
        if i % 2:
            return CliInput(head + ["status"], None, None, self.served())
        channel = (i // 2) % CHANNELS
        _kind, target = self.targets.frequency()
        args = head + ["set-freq", "--channel", str(channel),
                       "--hz", decimal_text(target)]
        return CliInput(args, channel, target, self.served())

    def op(self, inp: CliInput):
        argv = [sys.executable] + (
            [str(PROBE)] if self.probe else ["-c", CLI_ENTRY]) + inp.args
        spawned = time.monotonic_ns()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=self.env, timeout=CLI_TIMEOUT_S)
        return proc, spawned

    def _barrier(self) -> Wire:
        """A fresh connection is accepted only after the run's own has been
        served to its end."""
        device, wire = self.stack.connect()
        try:
            return Stack.barrier(device, wire)
        finally:
            device.close()

    def check(self, inp: CliInput, result, error) -> Outcome:
        barrier = self._barrier()
        self.check_wire += barrier
        wire = self.served() - inp.before - barrier
        outputs = self.board.query_outputs()
        touched = () if inp.channel is None else (inp.channel,)
        moved = drift(self.view, outputs, touched)
        self.view = outputs
        plans = int(inp.channel is not None)
        if error is not None:
            return Outcome(False, repr(error), wire, moved, plans)
        proc, spawned = result
        if self.probe:
            self._collect_probe(proc.stderr, spawned)
        if proc.returncode != 0:
            return Outcome(False, f"exit {proc.returncode}: {proc.stderr.strip()}",
                           wire, moved, plans)
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return Outcome(False, f"not JSON: {proc.stdout!r}", wire, moved, plans)
        if inp.channel is None:
            problem = self._status_problem(payload, outputs)
            return Outcome(problem is None, problem or "", wire, moved)
        problem = self._set_problem(payload, inp, outputs[inp.channel])
        exact = int(problem is None and payload["rel_error"] == "0")
        return Outcome(problem is None, problem or "", wire, moved, 1, exact)

    def _set_problem(self, payload, inp: CliInput, got) -> str | None:
        if payload.get("channel") != inp.channel:
            return f"set-freq answered for channel {payload.get('channel')}"
        if Fraction(payload["f_target"]) != inp.target:
            return f"set-freq planned {payload['f_target']}, asked {inp.target}"
        if Fraction(payload["rel_error"]) > MAX_REL_ERROR:
            return f"rel_error {payload['rel_error']} above 1e-9"
        if not got.enabled or got.f_out != Fraction(payload["f_achieved"]):
            return f"readback {got.f_out} Hz, set-freq reported {payload['f_achieved']}"
        self.last_set = (inp.channel, payload["f_achieved"])
        return None

    def _status_problem(self, payload, outputs) -> str | None:
        expected = {
            "channels": [
                {"channel": ch.channel, "enabled": ch.enabled,
                 "f_out": None if ch.f_out is None else str(ch.f_out),
                 "phase_offset": None if ch.phase_offset is None else str(ch.phase_offset),
                 "problem": ch.problem}
                for ch in outputs
            ],
            "rails": [{"rail": rail, "volts": float(volts)}
                      for rail, volts in sorted(self.board.query_rails().items())],
        }
        if payload != expected:
            return f"status {payload} differs from oracle {expected}"
        if self.last_set is not None:
            channel, f_achieved = self.last_set
            if payload["channels"][channel]["f_out"] != f_achieved:
                return (f"status reads channel {channel} at "
                        f"{payload['channels'][channel]['f_out']}, set-freq gave {f_achieved}")
        return None

    def _collect_probe(self, stderr: str, spawned: int) -> None:
        for line in stderr.splitlines():
            if line.startswith(PROBE_MARK):
                export = json.loads(line[len(PROBE_MARK):])
                export["interpreter_ns"] = export.pop("t0") - spawned
                self.probe_exports.append(export)

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PlanSweep, RetuneTcp, PollTcp, CliOneshot)}
