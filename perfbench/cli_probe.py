"""One traced ``clockgen`` command-line run, for the traced cli_oneshot.

Usage: python cli_probe.py CLI-ARGUMENTS...

Does what the installed ``clockgen`` script does, with the layer spans of
``tracing`` around it.  Its last line on stderr carries the start time of
the interpreter's first statement, the import time of ``clockgen.cli`` and
the span aggregates, as JSON after the marker ``perfbench-probe ``.
"""

import time

T0 = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

MARK = "perfbench-probe "


def main() -> int:
    started = time.perf_counter_ns()
    import clockgen.cli
    import_ns = time.perf_counter_ns() - started

    tracer = tracing.Tracer(keep_ops=0)
    tracing.install(tracer)
    tracer.op_id = 0
    try:
        return clockgen.cli.run(sys.argv[1:])
    finally:
        tracer.op_id = None
        export = tracer.export().get("client", {"agg": {}, "samples": {}})
        export["agg"]["cli.import"] = [1, import_ns, import_ns, {}, 0]
        sys.stdout.flush()
        print(MARK + json.dumps({"t0": T0, **export}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
