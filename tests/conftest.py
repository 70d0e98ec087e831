import socket
import threading

import pytest

from clockgen import (
    BoardState,
    BridgeClient,
    DeviceHandle,
    SessionConfig,
    SimulatorServer,
    bridge_init,
    open_session,
)


@pytest.fixture(scope="session", autouse=True)
def no_simulator_server_outlives_the_session():
    """Every test stops the simulator servers it starts."""
    yield
    alive = [t for t in threading.enumerate() if t.name == "clockgen-sim"]
    assert not alive, f"{len(alive)} simulator server thread(s) still running"


@pytest.fixture
def ipv6_loopback():
    """Skip the test where the machine has no IPv6 loopback."""
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        pytest.skip("no IPv6 loopback")


@pytest.fixture
def board():
    return BoardState()


@pytest.fixture
def session(board):
    s = open_session(SessionConfig(), board)
    yield s
    s.close()


@pytest.fixture
def device(board):
    handle = bridge_init(SessionConfig(), simulator=board)
    yield handle
    handle.close()


@pytest.fixture
def tcp_server():
    server = SimulatorServer(BoardState(), port=0)
    server.start()
    yield server
    server.stop()


class CountingSession:
    """Transport stub wrapper counting wire traffic."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = 0
        self.reads = 0
        self.written = bytearray()
        self.write_sizes = []

    def write_bytes(self, data):
        self.writes += 1
        self.written.extend(data)
        self.write_sizes.append(len(data))
        self.inner.write_bytes(data)

    def reset(self):
        self.writes = self.reads = 0
        self.written.clear()
        self.write_sizes.clear()

    def read_bytes(self, n):
        self.reads += 1
        return self.inner.read_bytes(n)

    def close(self):
        self.inner.close()


@pytest.fixture
def counting_device(board):
    s = CountingSession(open_session(SessionConfig(), board))
    handle = DeviceHandle(BridgeClient(s), board.synth_map,
                          board.config, board.pot_map)
    yield handle, s
    handle.close()
