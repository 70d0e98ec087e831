"""Command-line front end for scripted QA automation.

Each invocation performs exactly one device operation against either a
per-invocation in-process simulator or a TCP endpoint serving the byte
protocol; no subcommand reads status after it acts (``status`` is its own
operation).  ``simulate`` starts that endpoint.

Exit codes: 0 success, 1 domain error (planning, transport, parsing),
2 usage error.  ``--json`` prints one machine-readable document on stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .config import DEFAULT_TCP_PORT, load_config, load_pot_map, load_synth_map
from .errors import ClockgenError
from .host import DeviceHandle, bridge_init
from .planner import CHANNEL_COUNT, FrequencyPlan, PhasePlan, RationalDivider, as_fraction
from .power import SupplySetting
from .server import SimulatorServer
from .sim import BoardState
from .transport import SessionConfig

_FREQ_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*([kM]?)(?:Hz)?$")
_FREQ_SCALE = {"": 1, "k": 10**3, "M": 10**6}


def parse_frequency(text: str) -> Fraction:
    """Hz as an integer or with a k/M suffix; always parsed exactly."""
    match = _FREQ_RE.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"bad frequency {text!r} (examples: 200000000, 12.5M, 40k)"
        )
    return Fraction(match.group(1)) * _FREQ_SCALE[match.group(2)]


def _exact(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None


def _int0(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None


def _add_global_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # subparsers use SUPPRESS so a flag given before the subcommand survives
    parser.add_argument("--transport", metavar="sim|tcp:HOST:PORT",
                        default="sim" if top_level else argparse.SUPPRESS,
                        help="device endpoint (default: per-invocation simulator)")
    parser.add_argument("--map", metavar="FILE",
                        default=None if top_level else argparse.SUPPRESS,
                        help="synthesizer register map (default: shipped map)")
    parser.add_argument("--config", metavar="FILE",
                        default=None if top_level else argparse.SUPPRESS,
                        help="constraints and rail config (default: compiled-in)")
    parser.add_argument("--json", action="store_true",
                        default=False if top_level else argparse.SUPPRESS,
                        help="print one machine-readable JSON document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockgen",
        description="Control a four-output any-frequency clock generator "
                    "board (or its simulator).",
    )
    _add_global_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_global_options(p, top_level=False)
        return p

    p = add_command("simulate", "serve a simulated board over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_TCP_PORT)

    p = add_command("set-freq", "program one channel's frequency")
    p.add_argument("--channel", type=int, required=True, choices=range(CHANNEL_COUNT))
    p.add_argument("--hz", type=parse_frequency, required=True)

    p = add_command("set-phase", "program one channel's phase offset")
    p.add_argument("--channel", type=int, required=True, choices=range(CHANNEL_COUNT))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=_exact)
    group.add_argument("--degrees", type=_exact)

    for name, help_text in (("enable", "enable one output"),
                            ("disable", "disable one output")):
        p = add_command(name, help_text)
        p.add_argument("--channel", type=int, required=True, choices=range(CHANNEL_COUNT))

    p = add_command("set-rail", "program one supply rail voltage")
    p.add_argument("--rail", type=int, required=True)
    p.add_argument("--volts", type=_exact, required=True)

    p = add_command("reg", "raw register access")
    reg_sub = p.add_subparsers(dest="reg_command", required=True)
    pr = reg_sub.add_parser("read", help="read one register")
    _add_global_options(pr, top_level=False)
    pr.add_argument("address", type=_int0)
    pr.add_argument("--dev", type=_int0, default=None,
                    help="i2c address (default: the synthesizer)")
    pw = reg_sub.add_parser("write", help="write one register")
    _add_global_options(pw, top_level=False)
    pw.add_argument("address", type=_int0)
    pw.add_argument("value", type=_int0)
    pw.add_argument("--dev", type=_int0, default=None)

    add_command("status", "per-channel frequency/phase/enable and per-rail volts")
    return parser


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _divider_json(divider: RationalDivider) -> dict:
    return {"a": divider.a, "b": divider.b, "c": divider.c}


def _plan_result(channel: int, plan: FrequencyPlan) -> tuple[dict, str]:
    payload = {
        "channel": channel,
        "f_target": _frac(plan.f_target),
        "f_achieved": _frac(plan.f_achieved),
        "rel_error": _frac(plan.rel_error),
        "f_vco": _frac(plan.f_vco),
        "feedback": _divider_json(plan.feedback),
        "output": _divider_json(plan.output),
    }
    text = (
        f"channel {channel}: achieved {plan.f_achieved} Hz "
        f"(target {plan.f_target} Hz, rel error {plan.rel_error}), "
        f"vco {plan.f_vco} Hz, feedback {plan.feedback.value}, "
        f"output divider {plan.output.value}"
    )
    return payload, text


def _phase_result(channel: int, phase: PhasePlan) -> tuple[dict, str]:
    payload = {
        "channel": channel,
        "steps": phase.steps,
        "quantum": _frac(phase.quantum),
        "offset_achieved": _frac(phase.offset_achieved),
        "residual": _frac(phase.residual),
    }
    text = (
        f"channel {channel}: {phase.steps} step(s) of {float(phase.quantum):.6g} s, "
        f"offset {float(phase.offset_achieved):.6g} s "
        f"(residual {float(phase.residual):.3g} s)"
    )
    return payload, text


def _rail_result(rail_id: int, setting: SupplySetting) -> tuple[dict, str]:
    payload = {
        "rail": rail_id,
        "code": setting.code,
        "v_predicted": float(setting.v_predicted),
        "v_error": float(setting.v_error),
    }
    text = (
        f"rail {rail_id}: code {setting.code}, predicted "
        f"{float(setting.v_predicted):.6g} V "
        f"(error {float(setting.v_error):.3g} V)"
    )
    return payload, text


def _status_result(device: DeviceHandle) -> tuple[dict, str]:
    channels, rails = device.read_status()
    payload = {
        "channels": [
            {
                "channel": ch.channel,
                "enabled": ch.enabled,
                "f_out": _frac(ch.f_out),
                "phase_offset": _frac(ch.phase_offset),
                "problem": ch.problem,
            }
            for ch in channels
        ],
        "rails": [
            {"rail": rail_id, "volts": float(volts)}
            for rail_id, volts in sorted(rails.items())
        ],
    }
    lines = []
    for ch in channels:
        if ch.enabled and ch.f_out is not None:
            lines.append(
                f"channel {ch.channel}: enabled, {ch.f_out} Hz, "
                f"phase {float(ch.phase_offset):.6g} s"
            )
        elif ch.problem:
            lines.append(f"channel {ch.channel}: {'enabled' if ch.enabled else 'disabled'}"
                         f" ({ch.problem})")
        else:
            lines.append(f"channel {ch.channel}: disabled")
    for rail_id, volts in sorted(rails.items()):
        lines.append(f"rail {rail_id}: {float(volts):.6g} V")
    return payload, "\n".join(lines)


def dispatch(device: DeviceHandle, args: argparse.Namespace) -> tuple[dict, str]:
    """Run one subcommand against an open device handle."""
    if args.command == "set-freq":
        plan = device.set_frequency(args.channel, args.hz)
        return _plan_result(args.channel, plan)
    if args.command == "set-phase":
        phase = device.set_phase(args.channel, seconds=args.seconds,
                                 degrees=args.degrees)
        return _phase_result(args.channel, phase)
    if args.command in ("enable", "disable"):
        on = args.command == "enable"
        device.enable_output(args.channel, on)
        return ({"channel": args.channel, "enabled": on},
                f"channel {args.channel}: {'enabled' if on else 'disabled'}")
    if args.command == "set-rail":
        setting = device.set_rail_voltage(args.rail, args.volts)
        return _rail_result(args.rail, setting)
    if args.command == "reg":
        dev = args.dev if args.dev is not None else device.synth_address
        if args.reg_command == "read":
            value = device.bridge.read_register(dev, args.address)
            return ({"device": dev, "register": args.address, "value": value},
                    f"0x{value:02X}")
        device.bridge.write_register(dev, args.address, args.value)
        return ({"device": dev, "register": args.address, "value": args.value},
                f"wrote 0x{args.value:02X} to 0x{args.address:02X}")
    if args.command == "status":
        return _status_result(device)
    raise AssertionError(f"unhandled command {args.command}")


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, perform the command, print the result."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "simulate":
            board = BoardState(load_synth_map(args.map), load_config(args.config),
                               load_pot_map())
            try:
                server = SimulatorServer(board, args.host, args.port)
            except ValueError as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return 2
            server.start()
            try:
                print(f"simulator listening on {args.host}:{server.port}", file=sys.stderr)
                interrupted = server.serve_forever()
            except KeyboardInterrupt:
                # a client that read the port may interrupt before serving began
                server.stop()
                interrupted = True
            if not interrupted:
                reason = f": {server.error}" if server.error else ""
                print(f"error: simulator stopped serving{reason}", file=sys.stderr)
                return 1
            return 0

        try:
            session_config = SessionConfig.parse(args.transport)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2

        device = bridge_init(session_config, args.map, args.config)
        try:
            payload, text = dispatch(device, args)
        finally:
            device.close()
    except (ClockgenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(payload) if args.json else text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
