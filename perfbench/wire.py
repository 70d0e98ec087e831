"""Wire-traffic counters kept outside the program under test.

``CountingSession`` wraps the client's session and counts what the host
stack asks of it: ``read_bytes`` calls (round trips) and bytes each way.
``ServedCounter`` counts at the simulator end what the board was fed and
what it answered.  The two views must agree over a run; that agreement is
the benchmark's self-check of its own counters.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from clockgen.protocol import COMMAND_LENGTH


@dataclass(frozen=True)
class Wire:
    """Traffic totals; subtracting two snapshots gives an interval's.

    Bytes out are command bytes, bytes in are response bytes.  ``writes``
    counts the client's ``write_bytes`` calls, or at the board its
    receives.
    """

    round_trips: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    writes: int = 0

    @property
    def commands(self) -> int:
        return self.bytes_out // COMMAND_LENGTH

    def __add__(self, other: "Wire") -> "Wire":
        return Wire(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def __sub__(self, other: "Wire") -> "Wire":
        return Wire(*(a - b for a, b in zip(astuple(self), astuple(other))))


class CountingSession:
    """Session wrapper: counts round trips and bytes on their way through."""

    def __init__(self, inner):
        self._inner = inner
        self.round_trips = self.bytes_out = self.bytes_in = self.writes = 0

    def write_bytes(self, data):
        self.writes += 1
        self.bytes_out += len(data)
        return self._inner.write_bytes(data)

    def read_bytes(self, n, *args, **kwargs):
        self.round_trips += 1
        out = self._inner.read_bytes(n, *args, **kwargs)
        self.bytes_in += len(out)
        return out

    def close(self):
        return self._inner.close()

    def snapshot(self) -> Wire:
        return Wire(self.round_trips, self.bytes_out, self.bytes_in, self.writes)


class ServedCounter:
    """Counts the bytes a board ingests and the response bytes it hands out.

    Installed on one board instance; it calls the class's methods at call
    time, so wrappers placed on the class later still run.  Each ingest
    call is one receive by the TCP server, and each response byte answers
    one read command.
    """

    def __init__(self, board):
        self.bytes_in = self.bytes_out = self.ingests = 0
        cls = type(board)

        def ingest(data):
            self.ingests += 1
            self.bytes_in += len(data)
            return cls.ingest(board, data)

        def take_output():
            out = cls.take_output(board)
            self.bytes_out += len(out)
            return out

        board.ingest = ingest
        board.take_output = take_output

    def snapshot(self) -> Wire:
        """The board's view: responses stand for round trips."""
        return Wire(self.bytes_out, self.bytes_in, self.bytes_out, self.ingests)
