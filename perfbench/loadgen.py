"""The single-process load generator.

One thread drives every traffic connection through non-blocking
sockets and ``select``. Requests are pre-encoded (see ``inputs``), so
the loop only copies bytes, counts response lines and takes
timestamps. Responses arrive in request order per connection; every
line that starts with ``{"id":`` answers the oldest unanswered request,
and every ``{"push":...}`` line before it belongs to that request.

Phases:

- :func:`run_all` sends a fixed list of requests, keeping ``depth`` in
  flight per connection, and waits for every answer (opens, warm-up).
- :func:`saturated` is a closed loop: each connection keeps ``depth``
  requests in flight until the deadline, then stops sending and waits
  for the stragglers.
- :func:`paced` is an open loop at a fixed offered rate; each request
  is timed from when it was *due*, so a stall is charged to every
  request it delays.

All times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), the same clock the traced server processes stamp spans with.
"""

from __future__ import annotations

import select
import socket
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence

from inputs import Request, Traffic

clock = time.perf_counter

#: A response line starts a line with this prefix (pushes start with
#: ``{"push"``).
_RESPONSE = b'\n{"id":'
_TAIL = len(_RESPONSE) - 1


class ServerGone(ConnectionError):
    """The server closed a traffic connection or stopped answering."""


class Connection:
    """One pipelined NDJSON connection and everything it exchanged."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.requests: List[Request] = []
        self.due = array("d")
        self.sent = array("d")
        self.answered = array("d")
        self.chunks: List[bytes] = []
        self.acked_records = 0
        self._out = bytearray()
        self._tail = b"\n"

    @property
    def outstanding(self) -> int:
        return len(self.requests) - len(self.answered)

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def queue(self, request: Request, due: float, now: float) -> None:
        self.requests.append(request)
        self.due.append(due)
        self.sent.append(now)
        self._out += request.line

    def flush(self) -> None:
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            del self._out[:sent]

    def receive(self, now: float) -> None:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not data:
            raise ServerGone("server closed a traffic connection")
        self.chunks.append(data)
        answers = (self._tail + data).count(_RESPONSE)
        self._tail = (self._tail + data)[-_TAIL:]
        first = len(self.answered)
        for index in range(first, first + answers):
            self.answered.append(now)
            self.acked_records += self.requests[index].records

    def received(self) -> bytes:
        return b"".join(self.chunks)

    def close(self) -> None:
        self.sock.close()


def _pump(conns: Sequence[Connection], timeout: Optional[float]) -> float:
    """Wait for I/O (or ``timeout``), then move bytes both ways."""
    by_sock: Dict[socket.socket, Connection] = {c.sock: c for c in conns}
    writers = [c.sock for c in conns if c.wants_write]
    readable, writable, _ = select.select(
        list(by_sock), writers, [], timeout
    )
    now = clock()
    for sock in writable:
        by_sock[sock].flush()
    for sock in readable:
        by_sock[sock].receive(now)
    return now


def _settle(conns: Sequence[Connection], limit: float) -> float:
    """Wait until every sent request is answered; ``limit`` seconds at
    most. Returns the time the last answer arrived."""
    deadline = clock() + limit
    now = clock()
    while any(c.outstanding or c.wants_write for c in conns):
        remaining = deadline - now
        if remaining <= 0:
            raise ServerGone(
                f"{sum(c.outstanding for c in conns)} requests unanswered "
                f"after {limit:.0f}s"
            )
        now = _pump(conns, remaining)
    return max(
        (c.answered[-1] for c in conns if len(c.answered)), default=now
    )


def run_all(
    conns: Sequence[Connection], batches: Sequence[Sequence[Request]],
    depth: int, limit: float,
) -> None:
    """Send ``batches[i]`` on ``conns[i]`` with ``depth`` in flight per
    connection; return once every request is answered."""
    pending = [iter(batch) for batch in batches]
    live = set(range(len(conns)))
    deadline = clock() + limit
    now = clock()
    while live:
        for index in list(live):
            conn = conns[index]
            while conn.outstanding < depth:
                request = next(pending[index], None)
                if request is None:
                    live.discard(index)
                    break
                conn.queue(request, now, now)
            conn.flush()
        if not live:
            break
        if clock() > deadline:
            raise ServerGone(f"requests unanswered after {limit:.0f}s")
        now = _pump(conns, max(0.0, deadline - clock()))
    _settle(conns, max(1.0, deadline - clock()))


def saturated(
    conns: Sequence[Connection], traffic: Sequence[Traffic], depth: int,
    seconds: float, probe: Callable[[], List[float]], limit: float,
) -> dict:
    """Closed loop for ``seconds``. ``probe`` returns each server
    process's CPU seconds; it is read at the start and at the
    deadline."""
    start = clock()
    cpu_start = probe()
    base = [len(c.requests) for c in conns]
    records_start = sum(c.acked_records for c in conns)
    deadline = start + seconds
    now = start
    while now < deadline:
        for conn, source in zip(conns, traffic):
            while conn.outstanding < depth:
                conn.queue(source.next(), now, now)
            conn.flush()
        now = _pump(conns, max(0.0, deadline - now))
    end = clock()
    cpu_end = probe()
    records = sum(c.acked_records for c in conns) - records_start
    answered = sum(len(c.answered) for c in conns) - sum(base)
    last = _settle(conns, limit)
    return {
        "start": start,
        "end": end,
        "quiet": last,
        "seconds": end - start,
        "records": records,
        "answered": answered,
        "sent": sum(len(c.requests) for c in conns) - sum(base),
        "cpu_s": [b - a for a, b in zip(cpu_start, cpu_end)],
        "first_request": base,
    }


def paced(
    conns: Sequence[Connection], traffic: Sequence[Traffic], rate: float,
    seconds: float, limit: float,
) -> dict:
    """Open loop: request ``i`` is due at ``start + i / rate`` and goes
    out on connection ``i % len(conns)``. Latencies and lateness are
    listed in due order."""
    total = paced_requests(rate, seconds)
    base = [len(c.requests) for c in conns]
    start = clock()
    sent = 0
    now = start
    while sent < total:
        due = start + sent / rate
        while sent < total and due <= now:
            index = sent % len(conns)
            conns[index].queue(traffic[index].next(), due, now)
            conns[index].flush()
            sent += 1
            due = start + sent / rate
        if sent < total:
            now = _pump(conns, max(0.0, due - clock()))
    last = _settle(conns, limit)
    timings = sorted(
        (conn.due[index], conn.answered[index], conn.sent[index])
        for conn, first in zip(conns, base)
        for index in range(first, len(conn.requests))
    )
    latencies = [answered - due for due, answered, _ in timings]
    lateness = [sent - due for due, _, sent in timings]
    return {
        "start": start,
        "quiet": last,
        "sent": total,
        "latencies": latencies,
        "lateness": lateness,
        "first_request": base,
    }


def paced_requests(rate: float, seconds: float) -> int:
    """Requests an open-loop phase of ``seconds`` at ``rate`` sends."""
    return int(rate * seconds)
