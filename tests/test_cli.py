import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import clockgen
from clockgen.cli import build_parser, dispatch, parse_frequency, run


def tcp(server):
    return f"tcp:127.0.0.1:{server.port}"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# -- frequency grammar ------------------------------------------------------------

def test_parse_frequency_forms():
    assert parse_frequency("200000000") == 200_000_000
    assert parse_frequency("200M") == 200_000_000
    assert parse_frequency("12.5M") == 12_500_000
    assert parse_frequency("40k") == 40_000
    assert parse_frequency("10MHz") == 10_000_000


def test_parse_frequency_is_exact():
    assert parse_frequency("33.333333M") == 33_333_333
    assert parse_frequency("0.005M") == 5_000
    assert parse_frequency("199999999") == 199_999_999


@pytest.mark.parametrize("bad", ["", "M", "12.5G", "1e6", "-5M"])
def test_parse_frequency_rejects(bad):
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_frequency(bad)


# -- one-shot invocations against the ephemeral simulator ---------------------------

def test_set_freq_json(capsys):
    payload = run_json(capsys, ["set-freq", "--channel", "0", "--hz", "200M",
                                "--json"])
    assert payload["f_achieved"] == "200000000"
    assert payload["rel_error"] == "0"
    assert set(payload["feedback"]) == {"a", "b", "c"}


def test_set_freq_below_band_exits_1(capsys):
    assert run(["set-freq", "--channel", "0", "--hz", "1000000"]) == 1
    assert "band" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert run(["set-freq", "--channel", "0"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2


def test_bad_transport_exits_2(capsys):
    assert run(["--transport", "carrier-pigeon", "status"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_a_rail_voltage_divided_by_zero_exits_2(capsys):
    assert run(["set-rail", "--rail", "0", "--volts", "1/0"]) == 2
    assert "bad number '1/0'" in capsys.readouterr().err


def test_a_register_address_that_is_no_integer_exits_2(capsys):
    assert run(["reg", "read", "0xZZ"]) == 2
    assert "bad integer '0xZZ'" in capsys.readouterr().err


def test_set_rail_json(capsys):
    payload = run_json(capsys, ["--json", "set-rail", "--rail", "0",
                                "--volts", "2.5"])
    assert payload == {"rail": 0, "code": 127, "v_predicted": 2.497734375,
                       "v_error": 0.002265625}


def test_reg_read_default_device(capsys):
    payload = run_json(capsys, ["--json", "reg", "read", "0x00"])
    assert payload == {"device": 0x70, "register": 0, "value": 0x38}


def test_reg_write_bad_device_address_exits_1(capsys):
    assert run(["reg", "write", "0x06", "0x01", "--dev", "0x80"]) == 1
    assert "7-bit" in capsys.readouterr().err


def test_status_fresh_board(capsys):
    payload = run_json(capsys, ["--json", "status"])
    assert {c["channel"] for c in payload["channels"]} == {0, 1, 2, 3}
    assert all(not c["enabled"] for c in payload["channels"])
    assert {r["rail"] for r in payload["rails"]} == {0, 1, 2, 3, 4}


# -- persistent workflows over tcp ---------------------------------------------------

def test_set_freq_then_status_over_tcp(capsys, tcp_server):
    endpoint = tcp(tcp_server)
    assert run(["--transport", endpoint, "set-freq", "--channel", "0",
                "--hz", "200000000"]) == 0
    capsys.readouterr()
    payload = run_json(capsys, ["--transport", endpoint, "--json", "status"])
    channel0 = payload["channels"][0]
    assert channel0["enabled"] is True
    assert channel0["f_out"] == "200000000"


def test_reg_write_then_read_over_tcp(capsys, tcp_server):
    endpoint = tcp(tcp_server)
    assert run(["--transport", endpoint, "reg", "write", "0x06", "0x5A"]) == 0
    capsys.readouterr()
    assert run(["--transport", endpoint, "reg", "read", "0x06"]) == 0
    assert capsys.readouterr().out.strip() == "0x5A"


def test_phase_workflow_over_tcp(capsys, tcp_server):
    endpoint = tcp(tcp_server)
    assert run(["--transport", endpoint, "set-freq", "--channel", "1",
                "--hz", "100M"]) == 0
    capsys.readouterr()
    payload = run_json(capsys, ["--transport", endpoint, "--json", "set-phase",
                                "--channel", "1", "--degrees", "45"])
    assert payload["channel"] == 1
    assert payload["steps"] == 3
    status = run_json(capsys, ["--transport", endpoint, "--json", "status"])
    assert status["channels"][1]["phase_offset"] == "3/2200000000"


def test_enable_disable_over_tcp(capsys, tcp_server):
    endpoint = tcp(tcp_server)
    assert run(["--transport", endpoint, "set-freq", "--channel", "2",
                "--hz", "10M"]) == 0
    assert run(["--transport", endpoint, "disable", "--channel", "2"]) == 0
    capsys.readouterr()
    payload = run_json(capsys, ["--transport", endpoint, "--json", "status"])
    assert payload["channels"][2]["enabled"] is False
    assert payload["channels"][2]["f_out"] is None
    assert run(["--transport", endpoint, "enable", "--channel", "2"]) == 0
    capsys.readouterr()
    payload = run_json(capsys, ["--transport", endpoint, "--json", "status"])
    assert payload["channels"][2]["f_out"] == "10000000"


def test_transport_port_out_of_range_exits_2(capsys, monkeypatch):
    import socket

    def refuse(*args, **kwargs):
        raise AssertionError("a connection was opened")

    monkeypatch.setattr(socket, "create_connection", refuse)
    assert run(["--transport", "tcp:127.0.0.1:99999", "status"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error:") == 1 and "99999" in err


def test_connection_refused_exits_1(capsys):
    assert run(["--transport", "tcp:127.0.0.1:1", "status"]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_subcommand_serves_the_protocol():
    import socket

    from clockgen import BridgeCommand, encode_command

    with simulator_process() as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
            sock.sendall(encode_command(BridgeCommand.write(0x70, 0x06, 0x77)))
            sock.sendall(encode_command(BridgeCommand.read(0x70, 0x06)))
            assert sock.recv(1) == b"\x77"
        proc.send_signal(signal.SIGINT)
        assert proc.wait(10) == 0


def test_unreadable_map_file_exits_1(capsys, tmp_path):
    assert run(["--map", str(tmp_path / "missing.map"), "status"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line", ["f_out_min_hz = 0", "f_out_min_hz = -5"])
def test_set_freq_under_a_non_positive_band_edge_exits_1(capsys, tmp_path, line):
    conf = tmp_path / "band.conf"
    conf.write_text(line + "\n")
    assert run(["--config", str(conf), "set-freq", "--channel", "0", "--hz", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "f_out_min must be positive" in err
    assert "Traceback" not in err


def test_simulate_on_a_busy_port_exits_1(capsys, tcp_server):
    assert run(["simulate", "--port", str(tcp_server.port)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "listening" not in err


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_simulate_port_out_of_range_exits_2(capsys, port):
    assert run(["simulate", "--port", port]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and port in err
    assert "listening" not in err


def _without_core_dumps():
    """In the child before it runs: the SIGABRT below leaves no core file."""
    import resource
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


@contextlib.contextmanager
def simulator_process(host="127.0.0.1"):
    """``clockgen simulate --host HOST --port 0`` in a child process, and
    the port it reports; the child is killed if the test leaves it running.

    The child runs with ``PYTHONFAULTHANDLER=1``.  When a wait on it in the
    test times out, it is sent ``SIGABRT``, so it writes every thread's
    traceback to stderr, and the test fails with that stderr in its
    message: a hang shows where the child was stuck."""
    src = str(Path(clockgen.__file__).parents[1])
    env = {**os.environ, "PYTHONFAULTHANDLER": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "clockgen.cli", "simulate",
                             "--host", host, "--port", "0"],
                            stderr=subprocess.PIPE, text=True, env=env,
                            preexec_fn=_without_core_dumps)
    try:
        line = proc.stderr.readline()
        match = re.fullmatch(rf"simulator listening on {re.escape(host)}:(\d+)\n", line)
        assert match and int(match.group(1)) != 0, line
        yield proc, int(match.group(1))
    except subprocess.TimeoutExpired as exc:
        proc.send_signal(signal.SIGABRT)
        try:
            _out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            _out, err = proc.communicate()
        pytest.fail(f"clockgen simulate still ran after {exc.timeout} s; "
                    f"its stderr after SIGABRT:\n{err}")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_a_simulator_that_outlives_its_wait_fails_with_its_tracebacks():
    with pytest.raises(pytest.fail.Exception) as failed:
        with simulator_process() as (proc, _port):
            proc.wait(0.5)  # no SIGINT was sent: it is still serving
    message = str(failed.value)
    assert "still ran after 0.5 s" in message
    assert "most recent call first" in message and "serve_forever" in message


def test_simulate_port_0_reports_the_bound_port(capsys):
    with simulator_process() as (proc, port):
        assert run(["--transport", f"tcp:127.0.0.1:{port}", "status"]) == 0
        proc.send_signal(signal.SIGINT)
        assert proc.wait(10) == 0


def test_simulate_serves_the_ipv6_loopback(capsys, ipv6_loopback):
    with simulator_process("::1") as (proc, port):
        assert run(["--transport", f"tcp:[::1]:{port}", "status"]) == 0
        proc.send_signal(signal.SIGINT)
        assert proc.wait(10) == 0


def test_simulate_exits_1_when_serving_ends(capsys, monkeypatch):
    monkeypatch.setattr(clockgen.SimulatorServer, "_serve", lambda self: None)
    codes = []
    runner = threading.Thread(target=lambda: codes.append(run(["simulate", "--port", "0"])),
                              daemon=True)
    runner.start()
    runner.join(5.0)
    assert codes == [1], "simulate kept waiting on a server that stopped serving"
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "stopped serving" in err


def test_simulate_names_why_serving_ended(capsys, monkeypatch):
    start = clockgen.SimulatorServer.start

    def start_then_close_listener(server):
        start(server)
        server._listener.close()  # accept fails, so serving ends

    monkeypatch.setattr(clockgen.SimulatorServer, "start", start_then_close_listener)
    codes = []
    runner = threading.Thread(target=lambda: codes.append(run(["simulate", "--port", "0"])),
                              daemon=True)
    runner.start()
    runner.join(5.0)
    assert codes == [1]
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert re.search(r"^error: simulator stopped serving: \[Errno \d+\] \w", err, re.M), err


# -- thin-shell property ----------------------------------------------------------------

class RecordingDevice:
    synth_address = 0x70

    def __init__(self):
        self.calls = []
        self.bridge = self

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append(name)
            if name == "set_frequency":
                from clockgen import plan_frequency
                return plan_frequency(25_000_000, args[1])
            if name == "set_phase":
                from clockgen import plan_frequency, plan_phase
                return plan_phase(plan_frequency(25_000_000, 10**8), seconds=0)
            if name == "set_rail_voltage":
                from clockgen import RailModel, plan_voltage
                return plan_voltage(RailModel(rail_id=0), args[1])
            if name == "read_register":
                return 0
            if name == "read_outputs":
                return []
            if name == "read_rails":
                return {}
            if name == "read_status":
                return [], {}
            return None
        return record


@pytest.mark.parametrize("argv,expected", [
    (["set-freq", "--channel", "0", "--hz", "10M"], ["set_frequency"]),
    (["set-phase", "--channel", "0", "--seconds", "0"], ["set_phase"]),
    (["enable", "--channel", "0"], ["enable_output"]),
    (["disable", "--channel", "0"], ["enable_output"]),
    (["set-rail", "--rail", "0", "--volts", "2.5"], ["set_rail_voltage"]),
    (["reg", "read", "0x06"], ["read_register"]),
    (["reg", "write", "0x06", "0x01"], ["write_register"]),
    (["status"], ["read_status"]),
])
def test_each_subcommand_maps_to_one_operation(argv, expected):
    args = build_parser().parse_args(argv)
    device = RecordingDevice()
    dispatch(device, args)
    assert device.calls == expected
