"""Blocking HTTP/1.1 keep-alive client and the closed loop that drives it.

The benchmark drives the server from one client process over one
keep-alive connection: it sends its next operation only when the
previous reply has arrived (a closed loop), so exactly one request is
in flight at a time and the offered load adapts to the server's speed.
"""

from __future__ import annotations

import gc
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Tuple


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.host = f"{host}:{port}"

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request and return ``(status, reply body)``."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = self.reader.read(length) if length else b""
        if len(payload) != length:
            raise ConnectionError("reply body truncated")
        return status, payload

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Outcome:
    """What an operation hands back: every reply status, the reply bytes
    received, and whatever the workload keeps for its output checks."""

    statuses: Tuple[int, ...]
    nbytes: int
    keep: Any = None


# An operation sends one or more requests on a connection.
Operation = Callable[[Connection], Outcome]


@dataclass
class Record:
    """One operation as the client saw it; ``index`` is its position in
    the workload's stream."""

    index: int
    start: float
    end: float
    outcome: Outcome
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(s == 200 for s in self.outcome.statuses)


def closed_loop(host: str, port: int, stream: Iterable[Operation],
                deadline: float) -> Tuple[List[Record], float, float]:
    """Run ``stream`` in a closed loop on one fresh connection.

    The loop stops early only if the wall clock (``time.perf_counter()``)
    passes ``deadline``, a safety cap that a healthy run never reaches,
    or if the connection fails.  Returns the records and the window
    ``(start, end)`` of the whole phase.  The client's garbage collector
    is off meanwhile, so its pauses, which grow with the records kept,
    do not land in the server's latencies.
    """
    conn = Connection(host, port)
    records: List[Record] = []
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        for i, op in enumerate(stream):
            t0 = time.perf_counter()
            if t0 >= deadline:
                break
            try:
                outcome = op(conn)
            except (OSError, ValueError) as exc:
                records.append(Record(i, t0, time.perf_counter(),
                                      Outcome((), 0),
                                      f"{type(exc).__name__}: {exc}"))
                break
            records.append(Record(i, t0, time.perf_counter(), outcome))
    finally:
        end = time.perf_counter()
        gc.enable()
        conn.close()
    return records, start, end
