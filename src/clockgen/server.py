"""TCP front end for the simulated board.

Serves the raw byte protocol on a socket so the host stack (or any other
client) can drive the simulator exactly as it would real hardware.  The
server is a socket relay: it serves each client through its own
:class:`~clockgen.transport.InProcessSession`, which claims the board
(booting it on the first open), pumps it, and on close keeps the registers,
clears the queues and frees the board.  So one client at a time, and none
while the board is open in this process: such a client's connection is
closed at once.  Any other failure to serve, a failed accept or a board
whose boot raised, ends serving with that exception in ``error``.
"""

from __future__ import annotations

import socket
import threading

from .config import DEFAULT_TCP_PORT
from .errors import AlreadyOpenError
from .sim import BoardState
from .transport import InProcessSession

_POLL_S = 0.1


class SimulatorServer:
    """Relays TCP clients, one at a time, to a board from a single service
    thread, each through an in-process session on the board."""

    def __init__(self, board: BoardState, host: str = "127.0.0.1",
                 port: int = DEFAULT_TCP_PORT):
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} outside 0..65535")
        self.board = board
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._running = False
        self.error: Exception | None = None  # why serving ended on its own

    def start(self) -> None:
        """Bind, listen, and serve from a background thread.  A host with a
        colon, an IPv6 address, is bound over IPv6."""
        if self._running:
            raise RuntimeError("server already running")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listener = socket.create_server((self.host, self.port), family=family, backlog=1)
        listener.settimeout(_POLL_S)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="clockgen-sim")
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def serve_forever(self) -> bool:
        """After :meth:`start`, serve until interrupted (True) or until
        serving ends on its own (False, with the exception that ended it in
        ``error``); for the command line."""
        try:
            while self._thread.is_alive():
                self._thread.join(_POLL_S)
            return False
        except KeyboardInterrupt:
            return True
        finally:
            self.stop()

    def _serve(self) -> None:
        try:
            while self._running:
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    try:
                        session = InProcessSession(self.board)
                    except AlreadyOpenError:
                        continue  # the board is open elsewhere: close at once
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.settimeout(_POLL_S)
                    try:
                        self._serve_client(conn, session)
                    finally:
                        session.close()  # registers persist, queues start clean
        except Exception as exc:
            # a failed accept or a board that cannot be opened (its boot
            # raised) ends serving; serve_forever reports it
            self.error = exc

    def _serve_client(self, conn: socket.socket, session: InProcessSession) -> None:
        while self._running:
            try:
                data = conn.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return
            session.write_bytes(data)
            if out := self.board.take_output():
                try:
                    conn.sendall(out)
                except OSError:
                    return
