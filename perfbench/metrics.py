"""Every metric the benchmark reports: unit, better direction, and for each
per-layer metric the end-to-end metric (and workload) it is expected to
move.  ``run.py`` refuses to measure when BENCHMARK.json disagrees with
these tables.

End-to-end metrics come from the untraced run (``--trace 0``) and carry a
regression bound in BENCHMARK.json; a metric there must never read 0 on
any workload.  The wire counts, drift, exactness, failure and memory
figures read 0 where they do not apply (no wire on plan_sweep, no plans on
poll_tcp, no failures at all), so they are reported with the per-layer set
of the traced run (``--trace 1``), taken from its untraced half, and
printed on the report line of every run.

All end-to-end times are scaled to a fixed machine speed by the reference
loop (``reference.py``); the report line keeps them as measured too.

``ops_per_s`` and ``op_tail_ms`` are taken in windows of at least
WINDOW_OPS consecutive ops and are the median over the windows:
``ops_per_s`` as a window's ops over its summed op time, ``op_tail_ms`` at
the highest percentile of TAIL_LADDER that still has at least
TAIL_MIN_BEYOND samples beyond it in a window.  The report line names the
percentile (``op_tail_pct``) and the window count.
"""

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
WINDOW_OPS = 100

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
}

_WIRE = "op_p50_ms on retune_tcp and poll_tcp"
_SERVE = "op_p50_ms on poll_tcp and retune_tcp; rss_growth_mb"

PER_LAYER = {
    # end-to-end figures that read 0 where they do not apply
    "round_trips_per_op": ("count", "lower", "op_p50_ms on poll_tcp, retune_tcp, cli_oneshot"),
    "commands_per_op": ("count", "lower", "op_p50_ms on retune_tcp, poll_tcp, cli_oneshot"),
    "failed_ratio": ("share", "lower", "correctness on every workload"),
    "drift_per_op": ("count", "lower", "correctness of untouched channels on retune_tcp"),
    "exact_share": ("share", "higher", "plan exactness on plan_sweep, retune_tcp, cli_oneshot"),
    "rss_growth_mb": ("MB", "lower", "memory over a run on poll_tcp, retune_tcp"),
    # planner
    "planner.plan_ms.int": ("ms", "lower", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    "planner.plan_ms.exactfrac": ("ms", "lower", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    "planner.plan_ms.approx": ("ms", "lower", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    "planner.stage_share.int": ("share", "higher", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    "planner.stage_share.exactfrac": ("share", "higher", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    "planner.stage_share.approx": ("share", "lower", "ops_per_s on plan_sweep; op_p50_ms on retune_tcp"),
    # host: device and bridge layers
    "host.set_frequency_self_ms": ("ms", "lower", "op_p50_ms on retune_tcp"),
    "host.bridge.reads_per_op": ("count", "lower", "round_trips_per_op, op_p50_ms on poll_tcp and retune_tcp"),
    "host.bridge.writes_per_op": ("count", "lower", "commands_per_op, op_p50_ms on retune_tcp"),
    "host.bridge.read_us_p50": ("us", "lower", _WIRE),
    # transport
    "transport.read_wait_us_p50": ("us", "lower", "op_p50_ms on poll_tcp"),
    "transport.send_calls_per_op": ("count", "lower", "op_p50_ms on poll_tcp"),
    "transport.bytes_per_op": ("bytes", "lower", "op_p50_ms on poll_tcp"),
    "transport.timeouts": ("count", "lower", "failed_ratio, op_tail_ms on poll_tcp"),
    # protocol and registers
    "protocol.encode_ns": ("ns", "lower", _WIRE),
    "protocol.decode_ns": ("ns", "lower", _WIRE),
    "registers.unpack_calls_per_op": ("count", "lower", _WIRE),
    "registers.unpack_self_us": ("us", "lower", _WIRE),
    "registers.pack_calls_per_op": ("count", "lower", "op_p50_ms on retune_tcp"),
    # readout and power
    "readout.decode_outputs_self_us": ("us", "lower", "op_p50_ms on poll_tcp"),
    "readout.decode_rails_self_us": ("us", "lower", "op_p50_ms on poll_tcp"),
    "power.plan_voltage_us": ("us", "lower", "op_p50_ms on retune_tcp"),
    # simulator and its TCP server (server thread)
    "sim.serve_us_per_command": ("us", "lower", _SERVE),
    "sim.commands_served_per_op": ("count", "lower", _SERVE),
    "sim.max_dispatch_steps": ("count", "lower", "correctness: firmware bound of 5 steps"),
    "sim.dispatch_log_len": ("count", "lower", "rss_growth_mb on poll_tcp and retune_tcp"),
    "server.busy_share": ("share", "lower", _SERVE),
    "server.commands_per_recv": ("count", "higher", _SERVE),
    # start-up path of one command-line run
    "config.load_ms": ("ms", "lower", "op_p50_ms on cli_oneshot; setup_s"),
    "cli.import_ms": ("ms", "lower", "op_p50_ms on cli_oneshot"),
    "cli.interpreter_ms": ("ms", "lower", "op_p50_ms on cli_oneshot"),
    # the trace itself
    "trace.overhead_share": ("share", "lower", "none: traced over untraced op_p50_ms, minus 1"),
    "trace.accounted_share": ("share", "higher", "none: share of traced op time inside layer spans"),
}


def check_spec(spec: dict) -> list[str]:
    """Differences between a parsed BENCHMARK.json and these tables."""
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec.get(key, [])}
        wanted = {name: row[:2] for name, row in table.items()}
        if listed != wanted:
            diff = sorted(set(listed.items()) ^ set(wanted.items()))
            problems.append(f"{key} differs from metrics.py: {diff}")
    return problems
