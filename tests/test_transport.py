import socket
import sys
import threading
import time

import pytest

from clockgen import (
    AlreadyOpenError,
    BoardState,
    BridgeCommand,
    ConnectError,
    ReadTimeoutError,
    SessionBusyError,
    SessionClosedError,
    SessionConfig,
    SimulatorServer,
    TransportError,
    bridge_init,
    encode_command,
    open_session,
)
from clockgen.protocol import COMMAND_LENGTH
from clockgen.transport import InProcessSession, TcpSession

WRITE_06 = encode_command(BridgeCommand.write(0x70, 0x06, 0xAB))
READ_06 = encode_command(BridgeCommand.read(0x70, 0x06))
READ_07 = encode_command(BridgeCommand.read(0x70, 0x07))


# -- session config --------------------------------------------------------------

def test_parse_sim_endpoint():
    config = SessionConfig.parse("sim")
    assert config.endpoint == "sim"


def test_parse_tcp_endpoint():
    config = SessionConfig.parse("tcp:10.1.2.3:5000")
    assert (config.endpoint, config.host, config.port) == ("tcp", "10.1.2.3", 5000)


def test_parse_tcp_endpoint_with_a_bracketed_ipv6_host():
    config = SessionConfig.parse("tcp:[::1]:5000")
    assert (config.endpoint, config.host, config.port) == ("tcp", "::1", 5000)


@pytest.mark.parametrize("spec", ["usb", "tcp:", "tcp:host", "tcp:host:port"])
def test_parse_bad_endpoint(spec):
    with pytest.raises(ValueError):
        SessionConfig.parse(spec)


@pytest.mark.parametrize("port", [0, -5, 99999])
def test_port_outside_the_tcp_range_is_refused(port):
    # the socket layer would wrap 99999 to 34463, another service's port
    with pytest.raises(ValueError):  # -5 already fails the format check
        SessionConfig.parse(f"tcp:127.0.0.1:{port}")
    with pytest.raises(ValueError, match="outside 1..65535"):
        SessionConfig(endpoint="tcp", port=port)


def test_empty_host_is_refused():
    with pytest.raises(ValueError, match="host"):
        SessionConfig(endpoint="tcp", host="")


def test_unknown_endpoint_is_refused():
    with pytest.raises(ValueError, match="unknown endpoint 'usb'"):
        SessionConfig(endpoint="usb")


def test_timeout_must_be_positive():
    with pytest.raises(ValueError):
        SessionConfig(read_timeout=0)


# -- in-process sessions ------------------------------------------------------------

def test_open_fresh_simulator(board):
    session = open_session(SessionConfig(), board)
    session.write_bytes(WRITE_06)
    assert board.devices[0x70].read(0x06) == 0xAB
    session.close()


def test_second_open_rejected(board):
    first = open_session(SessionConfig(), board)
    with pytest.raises(AlreadyOpenError):
        open_session(SessionConfig(), board)
    first.close()
    second = open_session(SessionConfig(), board)  # close allows a new session
    second.close()


def test_the_board_holds_its_one_session(board):
    first = open_session(SessionConfig(), board)
    assert board.session is first
    first.close()
    assert board.session is None
    second = open_session(SessionConfig(), board)
    first.close()  # a stale session's close leaves the open one alone
    assert board.session is second
    second.write_bytes(WRITE_06 + READ_06)
    assert second.read_bytes(1) == b"\xab"
    second.close()
    assert board.session is None


def test_write_after_close(board):
    session = open_session(SessionConfig(), board)
    session.close()
    with pytest.raises(SessionClosedError):
        session.write_bytes(WRITE_06)
    with pytest.raises(SessionClosedError):
        session.read_bytes(1)


def test_double_close_is_idempotent(board):
    session = open_session(SessionConfig(), board)
    session.close()
    session.close()


def test_stream_semantics_ignore_write_boundaries(board):
    session = open_session(SessionConfig(), board)
    data = WRITE_06 + encode_command(BridgeCommand.write(0x70, 0x07, 0xCD))
    session.write_bytes(data[:3])
    session.write_bytes(data[3:])
    assert board.devices[0x70].read(0x06) == 0xAB
    assert board.devices[0x70].read(0x07) == 0xCD
    session.close()


def test_read_returns_single_response(board):
    session = open_session(SessionConfig(), board)
    session.write_bytes(WRITE_06)
    session.write_bytes(READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()


def test_responses_in_command_order(board):
    session = open_session(SessionConfig(), board)
    session.write_bytes(WRITE_06)
    session.write_bytes(encode_command(BridgeCommand.write(0x70, 0x07, 0xCD)))
    session.write_bytes(READ_06 + READ_07)
    assert session.read_bytes(1) == b"\xab"
    assert session.read_bytes(1) == b"\xcd"
    session.close()


def test_read_with_no_pending_response_times_out(board):
    session = open_session(SessionConfig(), board)
    with pytest.raises(ReadTimeoutError):
        session.read_bytes(1)
    session.close()


def test_close_discards_unread_responses(board):
    session = open_session(SessionConfig(), board)
    session.write_bytes(WRITE_06 + READ_06)
    session.close()
    fresh = open_session(SessionConfig(), board)
    with pytest.raises(ReadTimeoutError):
        fresh.read_bytes(1)  # queue started clean
    # register state persisted across sessions
    fresh.write_bytes(READ_06)
    assert fresh.read_bytes(1) == b"\xab"
    fresh.close()


def test_open_session_helper_requires_simulator():
    with pytest.raises(ValueError):
        open_session(SessionConfig(endpoint="sim"))


def test_open_session_helper(board):
    session = open_session(SessionConfig(endpoint="sim"), simulator=board)
    session.write_bytes(WRITE_06 + READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()


def test_threads_racing_to_open_a_fresh_board_claim_it_once():
    # the server thread and callers in this process may race for a board,
    # and the first open boots it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            board = BoardState()
            ready = threading.Barrier(8)
            opened = []

            def contend():
                ready.wait(5.0)
                try:
                    opened.append(InProcessSession(board))
                except AlreadyOpenError:
                    pass

            threads = [threading.Thread(target=contend) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(opened) == 1 and board.session is opened[0]
            opened[0].close()
            assert board.session is None
    finally:
        sys.setswitchinterval(interval)


class BootFailure(Exception):
    pass


def _boot_fails_once(monkeypatch):
    """Make the next BoardState.boot raise BootFailure; later boots run."""
    boot = BoardState.boot
    failed = []

    def boot_once(board):
        if not failed:
            failed.append(True)
            raise BootFailure("power-init failed")
        boot(board)

    monkeypatch.setattr(BoardState, "boot", boot_once)


def test_a_board_whose_boot_fails_keeps_no_claim(monkeypatch, board):
    _boot_fails_once(monkeypatch)
    with pytest.raises(BootFailure):
        open_session(SessionConfig(), board)
    assert board.session is None and not board.session_lock.locked()
    session = open_session(SessionConfig(), board)  # boots, this time
    assert board.session is session
    session.write_bytes(WRITE_06 + READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()
    assert board.session is None and not board.session_lock.locked()


# -- tcp sessions ----------------------------------------------------------------------

def test_tcp_connect_refused():
    with pytest.raises(ConnectError):
        TcpSession.connect("127.0.0.1", 1, read_timeout=0.2)


def test_tcp_echo_roundtrip(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port)
    session.write_bytes(WRITE_06)
    session.write_bytes(READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()


def test_a_server_on_the_ipv6_loopback_serves_a_bracketed_endpoint(ipv6_loopback):
    server = SimulatorServer(BoardState(), host="::1", port=0)
    server.start()
    try:
        device = bridge_init(SessionConfig.parse(f"tcp:[::1]:{server.port}"))
        try:
            plan = device.set_frequency(0, 100_000_000)
            assert device.read_outputs()[0].f_out == plan.f_achieved
        finally:
            device.close()
    finally:
        server.stop()


def test_tcp_read_timeout(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port, read_timeout=0.2)
    with pytest.raises(ReadTimeoutError):
        session.read_bytes(1)
    session.close()


def test_tcp_read_fails_when_the_peer_closes_mid_read():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        session = TcpSession.connect("127.0.0.1", listener.getsockname()[1])
        conn, _peer = listener.accept()
        with conn:
            conn.sendall(b"\x01")  # one of the two bytes wanted
        with pytest.raises(SessionClosedError, match="closed by the device side"):
            session.read_bytes(2)
        session.close()


def test_a_server_refuses_a_second_start():
    server = SimulatorServer(BoardState(), port=0)
    server.start()
    try:
        port = server.port
        with pytest.raises(RuntimeError, match="already running"):
            server.start()
        assert server.port == port and server._thread.is_alive()
    finally:
        server.stop()


def test_a_server_whose_board_fails_to_boot_stops_with_the_error_and_no_claim(monkeypatch):
    _boot_fails_once(monkeypatch)
    board = BoardState()
    server = SimulatorServer(board, port=0)
    server.start()
    result = []
    waiter = threading.Thread(target=lambda: result.append(server.serve_forever()),
                              daemon=True)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as client:
        waiter.start()
        waiter.join(5.0)
        assert not waiter.is_alive(), "serving went on after the board failed to open"
        assert client.recv(1) == b""  # the client was turned away
    assert result == [False]
    assert isinstance(server.error, BootFailure)
    assert board.session is None and not board.session_lock.locked()


def test_tcp_stream_reassembles_partial_writes(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port)
    payload = WRITE_06 + READ_06
    for i in range(len(payload)):
        session.write_bytes(payload[i:i + 1])
    assert session.read_bytes(1) == b"\xab"
    session.close()


def test_tcp_register_state_persists_across_connections(tcp_server):
    first = TcpSession.connect("127.0.0.1", tcp_server.port)
    first.write_bytes(WRITE_06)
    first.close()
    second = TcpSession.connect("127.0.0.1", tcp_server.port)
    second.write_bytes(READ_06)
    assert second.read_bytes(1) == b"\xab"
    second.close()


def test_tcp_second_client_is_served_when_the_first_closes(tcp_server):
    first = TcpSession.connect("127.0.0.1", tcp_server.port)
    first.write_bytes(WRITE_06 + READ_06)
    assert first.read_bytes(1) == b"\xab"
    second = TcpSession.connect("127.0.0.1", tcp_server.port, read_timeout=5.0)
    second.write_bytes(READ_06)
    closer = threading.Timer(0.3, first.close)
    start = time.monotonic()
    closer.start()
    try:
        assert second.read_bytes(1) == b"\xab"
        assert time.monotonic() - start >= 0.3  # it waited for its turn
    finally:
        closer.join()
        second.close()


def test_a_board_serving_a_tcp_client_refuses_an_in_process_open(tcp_server):
    board = tcp_server.board
    client = TcpSession.connect("127.0.0.1", tcp_server.port)
    client.write_bytes(WRITE_06 + READ_06)
    assert client.read_bytes(1) == b"\xab"
    with pytest.raises(AlreadyOpenError):
        bridge_init(SessionConfig(), simulator=board)
    client.close()
    deadline = time.monotonic() + 5.0
    while board.session is not None:  # released once the server sees the close
        assert time.monotonic() < deadline, "the server kept the board"
        time.sleep(0.005)
    local = bridge_init(SessionConfig(), simulator=board)
    assert local.bridge.read_register(0x70, 0x06) == 0xAB
    local.close()


def test_a_tcp_client_of_a_board_open_in_process_is_refused_at_once(tcp_server):
    board = tcp_server.board
    local = open_session(SessionConfig(), board)
    local.write_bytes(WRITE_06)

    def state():
        return ({a: d.snapshot() for a, d in board.devices.items()},
                board.commands_served)

    before = state()
    refused = TcpSession.connect("127.0.0.1", tcp_server.port, read_timeout=5.0)
    start = time.monotonic()
    try:
        refused.write_bytes(encode_command(BridgeCommand.write(0x70, 0x06, 0x11)) + READ_06)
        with pytest.raises(SessionClosedError):
            refused.read_bytes(1)
        assert time.monotonic() - start < 2.0  # closed, not timed out
    finally:
        refused.close()
    assert state() == before
    local.close()
    served = TcpSession.connect("127.0.0.1", tcp_server.port, read_timeout=5.0)
    served.write_bytes(READ_06)
    assert served.read_bytes(1) == b"\xab"
    served.close()


def test_a_served_boards_own_ingest_and_take_output_see_every_byte(tcp_server):
    # what the benchmark's ServedCounter relies on: it replaces these two
    # on the board instance and compares its counts with the client's
    board = tcp_server.board
    cls = type(board)
    seen = {"in": 0, "out": 0}

    def ingest(data):
        seen["in"] += len(data)
        return cls.ingest(board, data)

    def take_output():
        out = cls.take_output(board)
        seen["out"] += len(out)
        return out

    board.ingest, board.take_output = ingest, take_output
    device = bridge_init(SessionConfig(endpoint="tcp", port=tcp_server.port))
    try:
        assert device.read_outputs() == board.query_outputs()
        assert device.read_rails() == board.query_rails()
    finally:
        device.close()
    assert (seen["in"] // COMMAND_LENGTH, seen["in"] % COMMAND_LENGTH) == (66, 0)
    assert seen["out"] == 66


def test_tcp_write_after_close(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port)
    session.close()
    with pytest.raises(TransportError):
        session.write_bytes(WRITE_06)


def test_open_session_helper_tcp(tcp_server):
    config = SessionConfig(endpoint="tcp", host="127.0.0.1", port=tcp_server.port)
    session = open_session(config)
    session.write_bytes(WRITE_06 + READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()


def test_tcp_pipelined_burst_keeps_order(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port, read_timeout=5.0)
    burst = bytearray()
    for value in range(100):
        burst += encode_command(BridgeCommand.write(0x70, 0x08, value))
        burst += encode_command(BridgeCommand.read(0x70, 0x08))
    session.write_bytes(bytes(burst))
    replies = session.read_bytes(100)
    assert list(replies) == list(range(100))
    session.close()


def test_tcp_survives_undecodable_frames(tcp_server):
    session = TcpSession.connect("127.0.0.1", tcp_server.port)
    session.write_bytes(bytes([0x33, 0x44, 0x55, 0x66]))  # discarded frame
    session.write_bytes(WRITE_06 + READ_06)
    assert session.read_bytes(1) == b"\xab"
    session.close()


class _SignallingSocket:
    """A socket that sets ``receiving`` when a read starts to wait on it,
    and ``sending`` when a write starts."""

    def __init__(self, sock):
        self._sock = sock
        self.receiving = threading.Event()
        self.sending = threading.Event()

    def recv(self, size):
        self.receiving.set()
        return self._sock.recv(size)

    def sendall(self, data):
        self.sending.set()
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_tcp_session_refuses_a_second_caller_while_one_reads():
    ours, peer = socket.socketpair()
    sock = _SignallingSocket(ours)
    session = TcpSession(sock, read_timeout=5.0)
    got = []
    reader = threading.Thread(target=lambda: got.append(session.read_bytes(1)))
    reader.start()
    try:
        assert sock.receiving.wait(5.0)
        with pytest.raises(SessionBusyError):
            session.write_bytes(b"late")
    finally:
        peer.sendall(b"\x2a")
        reader.join(5.0)
    assert got == [b"\x2a"]
    # the refused call left nothing behind: the session works again
    session.write_bytes(b"ping")
    assert peer.recv(4) == b"ping"
    peer.sendall(b"\x07")
    assert session.read_bytes(1) == b"\x07"
    session.close()
    peer.close()


def test_tcp_session_refuses_a_reader_while_a_blocked_write_holds_it():
    ours, peer = socket.socketpair()
    peer.settimeout(5.0)
    sock = _SignallingSocket(ours)
    session = TcpSession(sock, read_timeout=5.0)
    payload = bytes(16 << 20)  # far past the socket buffers: sendall blocks
    writer = threading.Thread(target=session.write_bytes, args=(payload,))
    writer.start()
    received = 0
    try:
        assert sock.sending.wait(5.0)
        with pytest.raises(SessionBusyError):
            session.read_bytes(1)
    finally:
        while received < len(payload):
            chunk = peer.recv(1 << 20)
            if not chunk:
                break
            received += len(chunk)
        writer.join(5.0)
    assert received == len(payload) and not writer.is_alive()
    session.close()
    peer.close()


def test_tcp_write_to_a_closed_peer_fails_as_a_closed_session():
    ours, peer = socket.socketpair()
    peer.close()
    session = TcpSession(ours, read_timeout=1.0)
    with pytest.raises(SessionClosedError, match="send failed: "):
        session.write_bytes(WRITE_06)
    session.close()
