"""Spans recorded around the public calls into each layer of clockgen.

``install`` replaces the layer entry points with wrappers, in every
clockgen module that holds a reference to them, and ``Patches.undo`` puts
the originals back.  Nothing under ``src/`` changes.

A span has a name, a start, an end, a parent span and the op id current
when it started.  Aggregates (calls, total time, self time, errors, bytes)
are folded in as each span ends, so memory stays flat; raw spans are kept
only for the first few ops and written out at the end.  Self time is a
span's duration minus the time its children cover; children run on the
parent's thread, so they never overlap.

Spans on the benchmark's own thread count only inside an op, so the
untimed correctness checks leave no trace.  Spans on other threads (the
simulator server) always count.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from threading import get_ident
from time import perf_counter_ns

# spans whose individual durations are kept for percentiles
SAMPLED = ("host.bridge.read_register", "transport.read_bytes")


class _ThreadState:
    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.samples: dict[str, array] = {}
        self.spans: list[tuple] = []
        self.by_op: dict[int, dict[str, int]] = {}  # op -> layer -> self ns


class Tracer:
    def __init__(self, keep_ops: int = 8):
        self.op_id: int | None = None
        self.keep_ops = keep_ops
        self._main = get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, tag=None, size=None):
        """``fn`` inside a span.  ``tag(result)`` appends a suffix to the
        aggregate's name; ``size(args, result)`` adds to its byte count."""
        tracer, main = self, self._main
        sampled = name in SAMPLED
        layer = name.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op_id = tracer.op_id
            if op_id is None and get_ident() == main:
                return fn(*args, **kwargs)
            st = tracer._state()
            keep = op_id is not None and op_id < tracer.keep_ops
            # frame: [time covered by children, start, span id]
            frame = [0, perf_counter_ns(), next(tracer._ids) if keep else None]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors = tracer._close(st, frame, name, layer, sampled, op_id, keep)[3]
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                raise
            key = name if tag is None else f"{name}.{tag(result)}"
            rec = tracer._close(st, frame, key, layer, sampled, op_id, keep)
            if size is not None:
                rec[4] += size(args, result)
            return result

        return traced

    @staticmethod
    def _close(st, frame, key, layer, sampled, op_id, keep) -> list:
        """End the innermost span; returns its aggregate record
        ``[calls, total ns, self ns, {error type: count}, bytes]``."""
        end = perf_counter_ns()
        stack = st.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][0] += duration
        rec = st.agg.get(key)
        if rec is None:
            rec = st.agg[key] = [0, 0, 0, {}, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[0]
        if op_id is not None:
            layers = st.by_op.get(op_id)
            if layers is None:
                layers = st.by_op[op_id] = {}
            layers[layer] = layers.get(layer, 0) + duration - frame[0]
        if sampled:
            st.samples.setdefault(key, array("d")).append(duration)
        if keep:
            st.spans.append((frame[2], stack[-1][2] if stack else None,
                             key, frame[1], end, op_id, st.thread))
        return rec

    def export(self) -> dict:
        """Aggregates of every thread, keyed by thread role."""
        out = {}
        for st in self._threads:
            role = "client" if st.thread == "MainThread" else "server"
            merged = out.setdefault(role, {"agg": {}, "samples": {}})
            merge(merged, {"agg": st.agg,
                           "samples": {k: list(v) for k, v in st.samples.items()}})
        return out

    def spans(self) -> list[tuple]:
        return [span for st in self._threads for span in st.spans]

    def by_op(self) -> dict[int, dict[str, int]]:
        """Self ns per client layer of each op, and the server thread's busy
        ns while the op ran, as ``server_busy``."""
        out: dict[int, dict[str, int]] = {}
        for st in self._threads:
            client = st.thread == "MainThread"
            for op_id, layers in st.by_op.items():
                mine = out.setdefault(op_id, {})
                for layer, ns in layers.items():
                    layer = layer if client else "server_busy"
                    mine[layer] = mine.get(layer, 0) + ns
        return out


def merge(into: dict, part: dict) -> None:
    """Add one aggregate export (``{"agg", "samples"}``) into another."""
    for key, rec in part["agg"].items():
        cur = into["agg"].setdefault(key, [0, 0, 0, {}, 0])
        for i in (0, 1, 2, 4):
            cur[i] += rec[i]
        for kind, n in rec[3].items():
            cur[3][kind] = cur[3].get(kind, 0) + n
    for key, values in part["samples"].items():
        into["samples"].setdefault(key, []).extend(values)


def plan_stage(plan) -> str:
    """Planner stage that produced ``plan``, read off the plan itself."""
    if plan.rel_error:
        return "approx"
    if plan.feedback.b == 0 and plan.output.b == 0:
        return "int"
    return "exactfrac"


class Patches:
    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, tracer, module, attr, span, **kw):
        """Wrap a module-level function wherever clockgen re-exports it."""
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(span, original, **kw)
        for name, mod in list(sys.modules.items()):
            if name != "clockgen" and not name.startswith("clockgen."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def method(self, tracer, cls, attr, span, **kw):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(span, original, **kw))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap the public entry points of every layer."""
    import clockgen.cli  # noqa: F401  (loads every layer module)
    from clockgen.host import BridgeClient, DeviceHandle
    from clockgen.registers import RegisterMap
    from clockgen.sim import BoardState
    from clockgen.transport import TcpSession

    p = Patches()
    fn = functools.partial(p.function, tracer)
    fn("clockgen.planner", "plan_frequency", "planner.plan_frequency", tag=plan_stage)
    fn("clockgen.planner", "plan_phase", "planner.plan_phase")
    fn("clockgen.planner", "apply_plan", "planner.apply_plan")
    fn("clockgen.protocol", "encode_command", "protocol.encode_command")
    fn("clockgen.protocol", "decode_command", "protocol.decode_command")
    fn("clockgen.readout", "decode_outputs", "readout.decode_outputs")
    fn("clockgen.readout", "decode_rails", "readout.decode_rails")
    fn("clockgen.power", "plan_voltage", "power.plan_voltage")
    fn("clockgen.power", "apply_supply", "power.apply_supply")
    for attr in ("load_config", "load_synth_map", "load_pot_map"):
        fn("clockgen.config", attr, f"config.{attr}")
    fn("clockgen.cli", "run", "cli.run")

    m = functools.partial(p.method, tracer)
    for attr in ("set_frequency", "set_phase", "set_rail_voltage",
                 "enable_output", "read_outputs", "read_rails"):
        m(DeviceHandle, attr, f"host.{attr}")
    m(BridgeClient, "read_register", "host.bridge.read_register")
    m(BridgeClient, "write_register", "host.bridge.write_register")
    m(TcpSession, "write_bytes", "transport.write_bytes",
      size=lambda args, _result: len(args[1]))
    m(TcpSession, "read_bytes", "transport.read_bytes",
      size=lambda _args, result: len(result))
    m(RegisterMap, "unpack", "registers.unpack")
    m(RegisterMap, "pack", "registers.pack")
    for attr in ("ingest", "run_until_idle", "take_output"):
        m(BoardState, attr, f"sim.{attr}")
    return p
