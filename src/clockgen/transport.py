"""Session layer: open/read/write/close over interchangeable byte channels.

Two endpoints are provided: an in-process channel straight into a simulated
:class:`BoardState` (the test double) and a TCP client carrying the same raw
bytes.  The stream has no extra framing; fixed-length commands and responses
keep it self-delimiting.  A session belongs to one logical owner; the device
side allows exactly one session at a time, mirroring exclusive access to a
USB device.  A simulated board keeps its own claim rules
(:meth:`BoardState.open`, :meth:`BoardState.release`), which record the open
session in ``board.session``; :class:`InProcessSession` is their one caller
and the one place that pumps the board.  :class:`SimulatorServer` serves
each TCP client through one, so an in-process open and a TCP client exclude
each other.
"""

from __future__ import annotations

import socket
import threading
import time

from .config import DEFAULT_TCP_PORT
from .errors import (
    ConnectError,
    ReadTimeoutError,
    SessionBusyError,
    SessionClosedError,
)
from .value import Value, setfield


class SessionConfig(Value):
    """Where to connect and how long reads may wait."""

    def __init__(self, endpoint: str = "sim", host: str = "127.0.0.1",
                 port: int = DEFAULT_TCP_PORT, read_timeout: float = 1.0):
        if endpoint not in ("sim", "tcp"):
            raise ValueError(f"unknown endpoint {endpoint!r}")
        if not host:
            raise ValueError("host must not be empty")
        if not 1 <= port <= 65535:
            raise ValueError(f"port {port} outside 1..65535")
        if read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        setfield(self, "endpoint", endpoint)
        setfield(self, "host", host)
        setfield(self, "port", port)
        setfield(self, "read_timeout", read_timeout)

    @classmethod
    def parse(cls, text: str) -> "SessionConfig":
        """Parse an endpoint string: ``sim`` or ``tcp:HOST:PORT``, with an
        IPv6 host in brackets (``tcp:[::1]:PORT``)."""
        if text == "sim":
            return cls(endpoint="sim")
        if text.startswith("tcp:"):
            rest = text[4:]
            host, sep, port_s = rest.rpartition(":")
            if not sep or not host or not port_s.isdigit():
                raise ValueError(f"bad tcp endpoint {text!r}, want tcp:HOST:PORT")
            if host.startswith("[") and host.endswith("]"):
                host = host[1:-1]
            return cls(endpoint="tcp", host=host, port=int(port_s))
        raise ValueError(f"unknown transport {text!r}, want sim or tcp:HOST:PORT")


class InProcessSession:
    """Session straight into a simulated :class:`BoardState`.

    The board keeps the claim rules (:meth:`BoardState.open` and
    :meth:`BoardState.release`) and this session is their one caller: the
    first open boots the board, an open while another session holds it
    raises :class:`AlreadyOpenError`, whether a caller in this process or
    :class:`SimulatorServer` serving a TCP client opened that one, and a
    boot that fails leaves the board free.  The session is open while the
    board records it in ``board.session``.  While open it owns the board's
    event pump: bytes written are ingested and the firmware runs until
    idle, so responses are ready at once.  Closing keeps the registers,
    clears the command and response queues and frees the board.
    """

    def __init__(self, board: BoardState):
        self._board = board
        self._rx = bytearray()
        board.open(self)

    def write_bytes(self, data: bytes) -> None:
        self._require_open()
        self._board.ingest(data)
        self._board.run_until_idle()

    def read_bytes(self, n: int) -> bytes:
        self._require_open()
        self._rx.extend(self._board.take_output())
        if len(self._rx) < n:
            # nothing can arrive asynchronously in-process, so waiting out
            # the timeout would change nothing; fail fast
            raise ReadTimeoutError(
                f"wanted {n} byte(s), {len(self._rx)} available"
            )
        out = bytes(self._rx[:n])
        del self._rx[:n]
        return out

    def close(self) -> None:
        self._board.release(self)  # a no-op once the board is not ours

    def _require_open(self) -> None:
        if self._board.session is not self:
            raise SessionClosedError("session is closed")


class TcpSession:
    """Client session carrying raw protocol bytes over TCP."""

    def __init__(self, sock: socket.socket, read_timeout: float):
        self._sock = sock
        self._timeout = read_timeout
        self._lock = threading.Lock()  # held by the one call using the socket
        self._rx = bytearray()

    @classmethod
    def connect(cls, host: str, port: int, read_timeout: float = 1.0) -> "TcpSession":
        # an ASCII host goes to getaddrinfo as bytes, which spares loading
        # the idna codec (and unicodedata) that a str host needs
        address = host.encode() if host.isascii() else host
        try:
            sock = socket.create_connection((address, port), timeout=read_timeout)
        except OSError as exc:
            raise ConnectError(f"cannot connect to {host}:{port}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, read_timeout)

    def write_bytes(self, data: bytes) -> None:
        self._require_open()
        if not self._lock.acquire(blocking=False):
            raise SessionBusyError("concurrent use of one session")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise SessionClosedError(f"send failed: {exc}") from exc
        finally:
            self._lock.release()

    def read_bytes(self, n: int) -> bytes:
        """Exactly ``n`` bytes or a timeout error; never partial success.
        Bytes received before a timeout stay buffered for the next read."""
        self._require_open()
        deadline = time.monotonic() + self._timeout
        if not self._lock.acquire(blocking=False):
            raise SessionBusyError("concurrent use of one session")
        try:
            while len(self._rx) < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReadTimeoutError(
                        f"wanted {n} byte(s), {len(self._rx)} arrived in time"
                    )
                self._sock.settimeout(remaining)
                try:
                    chunk = self._sock.recv(4096)
                except socket.timeout:
                    continue
                except OSError as exc:
                    raise SessionClosedError(f"receive failed: {exc}") from exc
                if not chunk:
                    raise SessionClosedError("connection closed by the device side")
                self._rx.extend(chunk)
            out = bytes(self._rx[:n])
            del self._rx[:n]
            return out
        finally:
            self._lock.release()

    def close(self) -> None:
        # a closed socket refuses shutdown with OSError, and closing it
        # again is a no-op, so a second close is one too
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _require_open(self) -> None:
        # the session is open while its socket is
        if self._sock.fileno() < 0:
            raise SessionClosedError("session is closed")


def open_session(config: SessionConfig, simulator: BoardState | None = None):
    """Open a session per ``config``.

    The in-process endpoint needs the target :class:`BoardState`; TCP
    needs only the address.
    """
    if config.endpoint == "sim":
        if simulator is None:
            raise ValueError("in-process endpoint requires a BoardState")
        return InProcessSession(simulator)
    return TcpSession.connect(config.host, config.port, config.read_timeout)
