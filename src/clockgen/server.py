"""TCP front end for the simulated board.

Serves the raw byte protocol on a socket so the host stack (or any other
client) can drive the simulator exactly as it would real hardware.  One
client at a time; the board's register state persists across connections
while the firmware queues start clean, mirroring the in-process session
semantics.
"""

from __future__ import annotations

import socket
import threading

from .config import DEFAULT_TCP_PORT
from .sim import BoardState, Phase

_POLL_S = 0.1


class SimulatorServer:
    """Owns a board and pumps it from a single service thread."""

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
        self.error: OSError | None = None  # why serving ended on its own

    def start(self) -> None:
        """Bind, listen, and serve from a background thread."""
        if self._running:
            raise RuntimeError("server already running")
        if self.board.firmware.phase is not Phase.MAIN_LOOP:
            self.board.boot()
        listener = socket.create_server((self.host, self.port), backlog=1)
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
        serving ends on its own (False, with the socket error that ended it
        in ``error``); for the command line."""
        try:
            while self._thread.is_alive():
                self._thread.join(_POLL_S)
            return False
        except KeyboardInterrupt:
            return True
        finally:
            self.stop()

    def _serve(self) -> None:
        while self._running:
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError as exc:
                self.error = exc
                break
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(_POLL_S)
                self._serve_client(conn)
            # next session starts with clean queues, registers persist
            self.board.firmware.clear_queues()

    def _serve_client(self, conn: socket.socket) -> None:
        while self._running:
            try:
                data = conn.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return
            self.board.ingest(data)
            self.board.run_until_idle()
            out = self.board.take_output()
            if out:
                try:
                    conn.sendall(out)
                except OSError:
                    return
