"""clockgen benchmark: one workload per run, from a checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): plan_sweep, retune_tcp,
poll_tcp, cli_oneshot.  A run sets the workload up, warms up, then loops
ops for ``--seconds``, checking every op exactly outside the timed region.
Between ops it also times spare set-ups every SETUP_EVERY_S; ``setup_s`` is
the median of all set-ups.  The run keeps to one CPU, and op and set-up
times are scaled by the reference loop (reference.py) to a fixed machine
speed; the report line keeps the times as measured beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
the time untraced and half with spans around every layer, and prints the
per-layer metrics; spans of the first traced ops go to
``perfbench/out/spans-<workload>-seed<n>.jsonl``.

The second-to-last line of stdout is a JSON report with every figure and
the wire counts of each operation kind; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
whenever a result is printed; without ``src/clockgen`` the run exits 2.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_EVERY_S = 4.0  # a spare set-up is timed this often during the run
SETUP_MIN_S = 0.05  # each time, set-ups repeat until they took this long
WARMUP_S = 0.5
SHOWN_FAILURES = 5


@dataclass
class Run:
    """One measured phase of a run."""

    durations: list[int] = field(default_factory=list)  # ns per op
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    drift: int = 0
    plans: int = 0
    exact: int = 0
    wire: object = None  # client-side Wire summed over ops
    served: object = None  # board-side Wire over the phase, checks included
    check_wire: object = None  # the checks' own traffic
    wall_s: float = 0.0
    rss_growth: int = 0
    marks: list[tuple[int, int]] = field(default_factory=list)  # reference loops
    setups: list[tuple[int, float]] = field(default_factory=list)  # (ops done, s)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def per_op(self, value) -> float:
        return value / self.attempted


def rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def time_setups(w) -> list[float]:
    """Set a spare copy of ``w`` up and tear it down until SETUP_MIN_S of
    set-up time is spent; each set-up's duration in s."""
    spare = type(w)(w.seed)
    times: list[float] = []
    while sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        spare.setup()
        times.append(time.perf_counter() - t0)
        spare.teardown()
    return times


def measure(w, seconds: float, first_op: int, tracer=None,
            setups: bool = False) -> Run:
    """Loop ops on ``w`` for ``seconds``, each timed and then checked.  With
    ``setups``, set-ups are also timed every SETUP_EVERY_S, between ops, so
    that they sample the machine over the whole run as ops do.  The
    reference loop is timed every reference.EVERY_S between ops."""
    from reference import EVERY_S, loop_ns
    from wire import Wire
    from workloads import Outcome

    run = Run(wire=Wire())
    op = w.op if tracer is None else tracer.wrap("op", w.op)
    served0, checks0 = w.served(), w.check_wire
    rss0 = rss_bytes()
    start = time.perf_counter()
    deadline = start + seconds
    next_setup = next_mark = start
    i = first_op
    while not run.durations or time.perf_counter() < deadline:
        if time.perf_counter() >= next_mark:
            run.marks.append((run.attempted, loop_ns()))
            next_mark = time.perf_counter() + EVERY_S
        if setups and time.perf_counter() >= next_setup:
            run.setups += [(run.attempted, s) for s in time_setups(w)]
            next_setup += SETUP_EVERY_S
        inp = w.next_input(i)
        if tracer is not None:
            tracer.op_id = run.attempted
        error = result = None
        t0 = time.perf_counter_ns()
        try:
            result = op(inp)
        except Exception as exc:
            error = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.op_id = None
        try:
            outcome = w.check(inp, result, error)
        except Exception as exc:
            outcome = Outcome(False, f"check raised {exc!r}")
        run.durations.append(t1 - t0)
        run.wire += outcome.wire
        run.drift += outcome.drift
        run.plans += outcome.plans
        run.exact += outcome.exact
        if not outcome.ok:
            run.failed += 1
            if len(run.failures) < SHOWN_FAILURES:
                run.failures.append(f"op {i}: {outcome.reason}")
        i += 1
    run.wall_s = time.perf_counter() - start
    run.rss_growth = rss_bytes() - rss0
    run.served = w.served() - served0
    run.check_wire = w.check_wire - checks0
    return run


def windows(n: int) -> list[tuple[int, int]]:
    """Bounds of consecutive windows of at least WINDOW_OPS of ``n`` ops
    (one window if there are fewer).  Statistics taken per window and then
    the median over the windows keep a few slow seconds of a shared
    machine, or one long garbage collection, from setting a whole run's
    figure."""
    from metrics import WINDOW_OPS

    count = max(1, n // WINDOW_OPS)
    size = n // count
    return [(k * size, n if k == count - 1 else (k + 1) * size)
            for k in range(count)]


def windowed(run: Run) -> tuple[list[list[int]], list[float]]:
    """The run's op times cut into windows, and each window's scale factor
    from the reference loops timed while it ran."""
    from reference import factor

    bounds = windows(run.attempted)
    return ([run.durations[lo:hi] for lo, hi in bounds],
            [factor(run.marks, lo, hi) for lo, hi in bounds])


def scaled(parts: list[list[int]], factors: list[float]) -> list[list[float]]:
    return [[d * f for d in part] for part, f in zip(parts, factors)]


def tail(parts: list[list[int]]) -> tuple[float, float]:
    """(percentile, ms): in each window, the value at the highest ladder
    percentile that has at least TAIL_MIN_BEYOND samples beyond it, by
    nearest rank; the median over the windows."""
    from metrics import TAIL_LADDER, TAIL_MIN_BEYOND

    size = min(len(part) for part in parts)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if size - math.ceil(p / 100 * size) >= TAIL_MIN_BEYOND:
            pct = p
    values = []
    for part in parts:
        ordered = sorted(part)
        values.append(ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1])
    return pct, statistics.median(values) / 1e6


def timings(parts: list[list], setups: list[float]) -> dict:
    pct, tail_ms = tail(parts)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(p) / (sum(p) / 1e9) for p in parts),
        "op_p50_ms": statistics.median(d for p in parts for d in p) / 1e6,
        "op_tail_ms": tail_ms,
        "op_tail_pct": pct,
        "windows": len(parts),
    }


def end_to_end(run: Run, setups: list[tuple[int, float]]) -> dict:
    """The end-to-end figures, from op and set-up times scaled by the
    factor of the window they fall in; ``measured`` holds them as measured,
    and ``reference_ms`` the median reference loop."""
    parts, factors = windowed(run)
    ends = list(itertools.accumulate(len(p) for p in parts))

    def factor_at(position: int) -> float:
        return factors[min(bisect.bisect_right(ends, position), len(factors) - 1)]

    return {
        **timings(scaled(parts, factors), [s * factor_at(p) for p, s in setups]),
        "measured": timings(parts, [s for _, s in setups]),
        "reference_ms": statistics.median(ns for _, ns in run.marks) / 1e6,
        "round_trips_per_op": run.per_op(run.wire.round_trips),
        "commands_per_op": run.per_op(run.wire.commands),
        "failed_ratio": run.per_op(run.failed),
        "drift_per_op": run.per_op(run.drift),
        "exact_share": run.exact / run.plans if run.plans else 0,
        "rss_growth_mb": run.rss_growth / 2**20,
    }


def client_and_server(export: dict, probes: list[dict]) -> tuple[dict, dict]:
    """Span aggregates of the client side, command-line processes included,
    and of the server thread."""
    from tracing import merge

    client = {"agg": {}, "samples": {}}
    for part in [export.get("client", {"agg": {}, "samples": {}})] + probes:
        merge(client, part)
    return client, export.get("server", {"agg": {}, "samples": {}})


def server_busy_ns(server: dict) -> int:
    return sum(r[1] for k, r in server["agg"].items()
               if k in ("sim.ingest", "sim.run_until_idle", "sim.take_output"))


def per_layer(e2e: dict, untraced: Run, traced: Run, client: dict, server: dict,
              setup_agg: dict, probes: list[dict], dispatch: dict) -> dict:
    agg, srv = client["agg"], server["agg"]
    ops = traced.attempted

    def rec(table, name):
        return table.get(name, [0, 0, 0, {}, 0])

    def calls(name, table=agg):
        return rec(table, name)[0]

    def mean_ns(name, index, table=agg):
        r = rec(table, name)
        return r[index] / r[0] if r[0] else 0.0

    def p50_us(name):
        values = client["samples"].get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    out = {k: e2e[k] for k in ("round_trips_per_op", "commands_per_op",
                                "failed_ratio", "drift_per_op",
                                "exact_share", "rss_growth_mb")}
    stages = ("int", "exactfrac", "approx")
    plans = sum(calls(f"planner.plan_frequency.{s}") for s in stages)
    for s in stages:
        name = f"planner.plan_frequency.{s}"
        out[f"planner.plan_ms.{s}"] = mean_ns(name, 1) / 1e6
        out[f"planner.stage_share.{s}"] = calls(name) / plans if plans else 0
    out["host.set_frequency_self_ms"] = mean_ns("host.set_frequency", 2) / 1e6
    out["host.bridge.reads_per_op"] = calls("host.bridge.read_register") / ops
    out["host.bridge.writes_per_op"] = calls("host.bridge.write_register") / ops
    out["host.bridge.read_us_p50"] = p50_us("host.bridge.read_register")
    out["transport.read_wait_us_p50"] = p50_us("transport.read_bytes")
    out["transport.send_calls_per_op"] = calls("transport.write_bytes") / ops
    out["transport.bytes_per_op"] = (rec(agg, "transport.write_bytes")[4]
                                     + rec(agg, "transport.read_bytes")[4]) / ops
    out["transport.timeouts"] = rec(agg, "transport.read_bytes")[3].get("ReadTimeoutError", 0)
    out["protocol.encode_ns"] = mean_ns("protocol.encode_command", 2)
    out["protocol.decode_ns"] = mean_ns("protocol.decode_command", 2, srv)
    out["registers.unpack_calls_per_op"] = calls("registers.unpack") / ops
    out["registers.unpack_self_us"] = mean_ns("registers.unpack", 2) / 1e3
    out["registers.pack_calls_per_op"] = calls("registers.pack") / ops
    out["readout.decode_outputs_self_us"] = mean_ns("readout.decode_outputs", 2) / 1e3
    out["readout.decode_rails_self_us"] = mean_ns("readout.decode_rails", 2) / 1e3
    out["power.plan_voltage_us"] = mean_ns("power.plan_voltage", 1) / 1e3
    busy = server_busy_ns(server)
    served = traced.served.commands
    out["sim.serve_us_per_command"] = busy / 1e3 / served if served else 0.0
    out["sim.commands_served_per_op"] = (served - traced.check_wire.commands) / ops
    out["sim.max_dispatch_steps"] = dispatch["max_steps"]
    out["sim.dispatch_log_len"] = dispatch["log_len"]
    out["server.busy_share"] = busy / 1e9 / traced.wall_s
    recvs = traced.served.writes
    out["server.commands_per_recv"] = served / recvs if recvs else 0.0
    config = agg if calls("config.load_config") else setup_agg
    loads = calls("config.load_config", config)
    config_ns = sum(r[1] for k, r in config.items() if k.startswith("config."))
    out["config.load_ms"] = config_ns / loads / 1e6 if loads else 0.0
    out["cli.import_ms"] = mean_ns("cli.import", 1) / 1e6
    out["cli.interpreter_ms"] = (statistics.mean(p["interpreter_ns"] for p in probes) / 1e6
                                 if probes else 0.0)
    traced_p50 = statistics.median(d for part in scaled(*windowed(traced)) for d in part)
    out["trace.overhead_share"] = traced_p50 / 1e6 / e2e["op_p50_ms"] - 1
    # self times partition each op, so what the op span keeps for itself is
    # the part no layer span covers; a command-line op runs in another
    # process, whose spans, import and start-up are added instead
    op_total = rec(agg, "op")[1]
    if probes:
        inside = rec(agg, "cli.run")[1] + rec(agg, "cli.import")[1] \
            + sum(p["interpreter_ns"] for p in probes)
    else:
        inside = op_total - rec(agg, "op")[2]
    out["trace.accounted_share"] = inside / op_total if op_total else 0.0
    return out


def self_ms_per_op(client: dict, server: dict, probes: list[dict], ops: int) -> dict:
    """Self time per op of each client-side span, grouped by layer, and the
    server thread's busy time, which overlaps the client's transport wait.
    ``op`` is what no layer span covers."""
    layers: dict[str, float] = {}
    for name, r in client["agg"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + r[2] / ops / 1e6
    if probes:
        # the op span's children ran in the command-line process
        layers["interpreter"] = sum(p["interpreter_ns"] for p in probes) / ops / 1e6
        layers["op"] -= sum(v for k, v in layers.items() if k != "op")
    layers = dict(sorted(layers.items()))
    layers["server_busy"] = server_busy_ns(server) / ops / 1e6
    return layers


def self_ms_at_p50(by_op: dict[int, dict[str, int]], durations: list[int]) -> dict:
    """Self ms per layer, averaged over the traced ops between the 45th and
    55th percentile of op time: where a median op spends its time.  The
    server thread's busy time overlaps the client's transport wait."""
    low, high = statistics.quantiles(durations, n=20)[8:10]
    middle = [op for op, d in enumerate(durations) if low <= d <= high]
    layers: dict[str, float] = {}
    for op in middle:
        for layer, ns in by_op.get(op, {}).items():
            layers[layer] = layers.get(layer, 0.0) + ns / len(middle) / 1e6
    layers["op_ms"] = statistics.mean(durations[op] for op in middle) / 1e6
    return dict(sorted(layers.items()))


def dispatch_stats(board) -> dict:
    if board is None:
        return {"max_steps": 0, "log_len": 0}
    log = board.dispatch_log
    steps = max((r.dispatch_tick - r.flag_set_tick for r in log), default=0)
    return {"max_steps": steps, "log_len": len(log)}


def write_spans(path: Path, spans: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns",
                            "op", "thread"]) + "\n")
        for span in sorted(spans, key=lambda s: s[3]):
            f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clockgen" / "__init__.py").is_file():
        print(f"error: no clockgen sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, command-line children included.  The
    # client and the server thread hold the interpreter lock in turn, so a
    # second CPU buys them no parallel Python work; what it adds is a
    # cross-CPU wake-up on every round trip, whose cost moved with where the
    # scheduler put the threads (poll_tcp: 3.1-3.4 ms per op on one CPU,
    # 4.2-5.8 ms on two, on a 2-vCPU VM).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import metrics
    import tracing
    from clockgen.sim import DISPATCH_STEP_BOUND
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = metrics.check_spec(spec)
    if args.workload not in WORKLOADS:
        problems.append(f"unknown workload {args.workload!r}, want one of {sorted(WORKLOADS)}")
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    w.setup()
    live_setup = time.perf_counter() - t0
    tracer = None
    try:
        warm = measure(w, WARMUP_S, 0)
        first = warm.attempted
        untraced = measure(w, args.seconds / (2 if args.trace else 1), first,
                           setups=True)
        traced = None
        if args.trace:
            first += untraced.attempted
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            if hasattr(w, "probe"):
                w.probe = True
            try:
                traced = measure(w, args.seconds / 2, first, tracer)
            finally:
                patches.undo()
                if hasattr(w, "probe"):
                    w.probe = False
        self_check = w.finish()
        dispatch = dispatch_stats(w.board)
    finally:
        w.teardown()
    if dispatch["max_steps"] > DISPATCH_STEP_BOUND:
        self_check.append(f"a command waited {dispatch['max_steps']} steps for "
                          f"dispatch, bound is {DISPATCH_STEP_BOUND}")

    # the live set-up is scaled by the speed at the start of the run
    e2e = end_to_end(untraced, [(0, live_setup)] + untraced.setups)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "samples": untraced.attempted, "cpu": cpu, **e2e,
              "calibration": getattr(w, "calibration", {}),
              "dispatch": dispatch, "self_check": self_check,
              "failures": untraced.failures + (traced.failures if traced else [])}
    names = metrics.END_TO_END
    if traced is not None:
        setup_tracer = tracing.Tracer()
        patches = tracing.install(setup_tracer)
        setup_tracer.op_id = 0
        try:
            w.setup()
        finally:
            setup_tracer.op_id = None
            patches.undo()
            w.teardown()
        probes = getattr(w, "probe_exports", [])
        client, server = client_and_server(tracer.export(), probes)
        setup_agg = setup_tracer.export().get("client", {}).get("agg", {})
        layers = per_layer(e2e, untraced, traced, client, server, setup_agg,
                           probes, dispatch)
        report["traced_samples"] = traced.attempted
        report["traced_op_p50_ms"] = statistics.median(traced.durations) / 1e6
        report["traced_op_mean_ms"] = statistics.mean(traced.durations) / 1e6
        report["self_ms_per_op"] = self_ms_per_op(client, server, probes,
                                                  traced.attempted)
        if not probes and traced.attempted >= 20:
            report["self_ms_at_p50"] = self_ms_at_p50(tracer.by_op(), traced.durations)
        report.update(layers)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans())
        names = metrics.PER_LAYER
        values = layers
    else:
        values = e2e
    for line in report["failures"] + self_check:
        print(f"failure: {line}", file=sys.stderr)

    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    result = {
        "correct": failed == 0 and not self_check,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, *_rest) in names.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
