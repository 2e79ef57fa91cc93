"""The asyncio phase-classification server.

One :class:`PhaseService` hosts a :class:`~repro.service.session.SessionRegistry`
behind the NDJSON protocol (:mod:`repro.service.protocol`). Each TCP
connection gets two tasks:

- a **reader** that parses request lines into a *bounded*
  ``asyncio.Queue``. When the worker falls behind, ``queue.put`` blocks
  the reader, the socket stops being drained, and the kernel's TCP
  receive window closes — backpressure reaches the client without any
  explicit flow-control messages.
- a **worker** that pops requests, executes them against the registry,
  and writes interval pushes followed by the matching response. All
  writes happen on the worker, so message order per connection is the
  protocol order: pushes for an observe precede that observe's ack.

Admission control: the session cap refuses/evicts at ``open`` (see the
registry), a connection cap closes surplus sockets at accept, and during
shutdown new requests are refused with ``shutting_down``.

Graceful drain: :meth:`NdjsonServer.shutdown` stops accepting
connections and new request lines, but every request already queued is
still executed and its responses/pushes flushed before sockets close —
no interval is lost or double-classified across a drain, which the test
suite proves by snapshotting at shutdown and replaying. Every shutdown
drains; :data:`DRAIN_TIMEOUT` bounds each of its waits.

The connection lifecycle (admission, the read loop, the drain order,
signals, thread hosting) lives in :class:`NdjsonServer`, which the
cluster's :class:`~repro.cluster.dispatcher.ClusterDispatcher` shares.

Durability (``data_dir=...``): the service builds a
:class:`~repro.persistence.manager.PersistenceManager`, recovers the
registry from the last checkpoints plus journal replay before binding,
and from then on journals every successful open/observe/close *before*
acknowledging it, checkpoints dirty sessions on a timer (and at
shutdown), and lets the registry evict idle sessions to disk instead of
destroying them — they hydrate back on their next touch.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import threading
import time
from typing import Dict, List, Mapping, Optional

from repro.errors import (
    ClusterError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker
from repro.telemetry import Telemetry

#: Requests about the server rather than a session: answered even while
#: draining, and by the dispatcher itself in a cluster.
SERVER_REQUESTS = (
    protocol.PingRequest,
    protocol.StatsRequest,
    protocol.ClusterRequest,
)

#: Seconds a drain waits, per connection, for queued work to finish, so
#: a stalled client cannot wedge a shutdown. Both front ends use it, and
#: a cluster supervisor SIGKILLs a worker that has not exited after it.
DRAIN_TIMEOUT = 30.0

#: The longest the idle sweep sleeps between passes, in seconds. A TTL
#: under 20 s is swept every quarter of the TTL instead.
SWEEP_INTERVAL = 5.0

#: The counts behind a next-phase prediction scoreboard: predictions
#: scored against the interval that followed, those that matched, and
#: the same two for predictions marked confident.
PREDICTION_COUNTS = (
    "scored", "correct", "confident_scored", "confident_correct",
)


class _Connection:
    """Per-connection state: the socket pair, the bounded ingest queue,
    and the reader/worker task pair."""

    __slots__ = ("reader", "writer", "queue", "tasks")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        # Items come from the server's _parse_line, plus ("bad",
        # id-or-None, error) and None (end of input). Bounded: this
        # queue is the backpressure.
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.tasks: List["asyncio.Task"] = []


class NdjsonServer:
    """The connection lifecycle of an NDJSON front end.

    Owns the :attr:`telemetry` hub (an in-memory one when none is
    passed), the constructor checks, connection admission, the read
    loop, :meth:`shutdown`'s drain order, :meth:`begin_drain`,
    :meth:`serve_forever`, signal handling, and the uptime, queue-depth
    and connection-count bookkeeping. A subclass supplies what differs:

    - :meth:`_parse_line` turns one request line into a queue item, and
      :meth:`_work_id` names the items refused while draining;
    - :meth:`_work_loop` executes queued items, the only writer on the
      connection's socket;
    - its background tasks, appended to ``_tasks`` in :meth:`start`, and
      :meth:`_stop_backend`, which runs once every connection is closed.
    """

    _connection_type = _Connection

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int,
        queue_size: int,
        telemetry: "Optional[Telemetry]",
        uds_path: Optional[str] = None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        if max_connections <= 0:
            raise ConfigurationError(
                f"max_connections must be positive, got {max_connections}"
            )
        if queue_size <= 0:
            raise ConfigurationError(
                f"queue_size must be positive, got {queue_size}"
            )
        if http_port is not None and http_port < 0:
            raise ConfigurationError(
                f"http_port must be >= 0, got {http_port}"
            )
        if telemetry is None:
            telemetry = Telemetry()
        self.host = host
        self.port = port
        self.uds_path = uds_path
        self.http_host = http_host if http_host is not None else host
        self.http_port = http_port
        self.max_connections = max_connections
        self.queue_size = queue_size
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_refused = 0
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self.telemetry = telemetry
        self._gateway = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task"] = None
        self._tasks: List["asyncio.Task"] = []
        telemetry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since service construction",
            read=lambda: self.uptime_seconds,
        )
        telemetry.counter(
            "repro_service_requests_total",
            "Requests executed by the service (including refusals)",
            read=lambda: self.requests_served,
        )
        telemetry.counter(
            "repro_service_errors_total",
            "Requests answered with an error response",
            read=lambda: self.errors_returned,
        )
        telemetry.gauge(
            "repro_service_connections",
            "Open client connections",
            read=lambda: len(self._connections),
        )

    # -- what a subclass supplies ---------------------------------------------

    def _parse_line(self, line: bytes) -> tuple:
        """Turn one non-blank request line into a queue item."""
        raise NotImplementedError

    def _work_id(self, item: tuple) -> Optional[int]:
        """The request id of an item that does work, which is refused
        while draining; ``None`` for items answered even then."""
        raise NotImplementedError

    async def _work_loop(self, connection: _Connection) -> None:
        """Execute queued items until the ``None`` sentinel."""
        raise NotImplementedError

    async def _stop_backend(self) -> None:
        """Tear down what serves requests, once every client connection
        is closed."""
        raise NotImplementedError

    def _make_gateway(self):
        # Imported lazily: the NDJSON service must not pay for the
        # HTTP gateway unless it was asked for.
        from repro.obs import HttpGateway

        return HttpGateway(self, host=self.http_host, port=self.http_port)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServiceUnavailableError("service is already started")
        self._stopped = asyncio.Event()
        if self.uds_path is not None:
            try:
                os.unlink(self.uds_path)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.uds_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._gateway = self._make_gateway()
            await self._gateway.start()
            self.http_port = self._gateway.port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def gateway(self):
        """The running HTTP gateway, or ``None``."""
        return self._gateway

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_mono

    def ingest_queue_depth(self) -> int:
        """Requests currently buffered across all connection queues —
        the live backpressure signal."""
        return sum(
            connection.queue.qsize()
            for connection in self._connections.values()
        )

    def drain_on_signals(self) -> None:
        """Make SIGINT and SIGTERM start a draining :meth:`shutdown`.
        Call from inside the running event loop."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    def begin_drain(self, grace: float = 0.5) -> None:
        """Flip to draining *now* and schedule the real shutdown.

        ``/readyz`` (and ``ping``) report not-ready immediately; the
        full :meth:`shutdown` runs after ``grace`` seconds so probes
        and load balancers get a window to observe the transition
        before sockets disappear. Idempotent while already draining.
        """
        if self._draining:
            return
        self._draining = True

        async def _later() -> None:
            await asyncio.sleep(grace)
            await self.shutdown()

        self._drain_task = asyncio.ensure_future(_later())

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (from another task or a
        signal handler)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Drain and stop the server.

        Stop accepting connections, stop reading new request lines,
        execute everything already queued, flush all responses and
        interval pushes, then close the sockets. The backend stops next
        and the HTTP gateway last, even if the backend's stop raises.
        """
        if self._server is None:
            return
        self._draining = True
        drain_task = self._drain_task
        if drain_task is not None and drain_task is not asyncio.current_task():
            # A direct shutdown supersedes a scheduled begin_drain one.
            self._drain_task = None
            drain_task.cancel()
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if self.uds_path is not None:
            try:
                os.unlink(self.uds_path)
            except OSError:
                pass
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()

        connections = list(self._connections.values())
        # Stop the readers (no new requests), then let each worker
        # finish its queue. The sentinel wakes idle workers; both waits
        # are bounded so a stalled client cannot wedge the shutdown.
        for connection in connections:
            for task in connection.tasks[:1]:  # the reader
                task.cancel()
        for connection in connections:
            try:
                await asyncio.wait_for(
                    connection.queue.put(None), DRAIN_TIMEOUT
                )
            except asyncio.TimeoutError:
                pass
        for connection in connections:
            for task in connection.tasks[1:]:  # the worker
                try:
                    await asyncio.wait_for(
                        asyncio.shield(task), DRAIN_TIMEOUT
                    )
                except (asyncio.CancelledError, Exception):
                    pass
        for connection in connections:
            for task in connection.tasks:
                task.cancel()
            await self._close_connection(connection)
        self._connections.clear()

        try:
            await self._stop_backend()
        finally:
            if self._gateway is not None:
                # The gateway goes down last so /healthz and /readyz
                # stay observable for the whole drain — a load balancer
                # sees the not-ready signal before the port disappears.
                gateway, self._gateway = self._gateway, None
                await gateway.shutdown()
            if self._stopped is not None:
                self._stopped.set()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._draining or len(self._connections) >= self.max_connections:
            # Admission control at the socket level: no request to
            # answer yet, so refuse by closing.
            self.connections_refused += 1
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            return
        connection = self._connection_type(reader, writer, self.queue_size)
        self._connections[id(connection)] = connection
        reader_task = asyncio.ensure_future(self._read_loop(connection))
        worker_task = asyncio.ensure_future(self._work_loop(connection))
        connection.tasks = [reader_task, worker_task]
        try:
            await worker_task
        except asyncio.CancelledError:
            pass
        finally:
            reader_task.cancel()
            if self._connections.pop(id(connection), None) is not None:
                await self._close_connection(connection)

    async def _close_connection(self, connection: _Connection) -> None:
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self, connection: _Connection) -> None:
        """Turn request lines into queue items (the await on ``put`` is
        what backpressures the socket)."""
        try:
            while True:
                try:
                    line = await connection.reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError
                ) as error:  # line longer than MAX_LINE_BYTES
                    await connection.queue.put(
                        ("bad", None, ProtocolError(
                            f"request line exceeds the "
                            f"{protocol.MAX_LINE_BYTES}-byte limit: {error}"
                        ))
                    )
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                if not line.endswith(b"\n"):
                    # The last line before EOF may lack its newline. A
                    # cluster forwards lines as received, so the worker
                    # would wait for the rest: complete it here.
                    line += b"\n"
                item = self._parse_line(line)
                if self._draining:
                    request_id = self._work_id(item)
                    if request_id is not None:
                        # Lines read after drain began: typed refusal,
                        # so the client knows the work was NOT ingested.
                        item = ("bad", request_id, ServiceUnavailableError(
                            "service is draining; no new work is accepted"
                        ))
                await connection.queue.put(item)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            # Unblock the worker even when cancelled mid-drain.
            try:
                connection.queue.put_nowait(None)
            except asyncio.QueueFull:
                pass


class PhaseService(NdjsonServer):
    """A streaming phase-classification service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port, exposed as
        :attr:`port` after :meth:`start`.
    max_sessions, idle_ttl, evict_lru:
        Session registry policy (see :class:`SessionRegistry`). With an
        ``idle_ttl``, idle sessions are swept every quarter of it, and
        at least every :data:`SWEEP_INTERVAL` seconds.
    max_connections:
        Concurrent-connection cap; surplus accepts are closed
        immediately.
    queue_size:
        Per-connection ingest queue bound — the backpressure depth, in
        requests.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` hub the service records
        into: request/error counters, ingest- and request-latency
        histograms, connection/session gauges, and lifecycle events. A
        service given none builds an in-memory hub of its own.
    data_dir:
        Enable the durable session tier rooted here (journal +
        checkpoints). Construction recovers whatever the directory
        holds — including after ``kill -9``.
    checkpoint_interval:
        Seconds between checkpoint sweeps: each checkpoints the dirty
        sessions and leaves the journal one segment.
    sync:
        Journal durability mode (``none`` / ``batch`` / ``always``);
        see :mod:`repro.persistence.journal`. Only meaningful with a
        ``data_dir``.
    uds_path:
        When given, listen on this Unix domain socket instead of the
        TCP ``host``/``port`` pair. This is the cluster worker mode:
        the dispatcher proxies client frames over per-worker Unix
        sockets, which skip the TCP stack and are unreachable from off
        the box. A stale socket file from a previous incarnation is
        unlinked before binding.
    http_host, http_port:
        When ``http_port`` is given (0 picks a free port), run the
        :class:`~repro.obs.HttpGateway` alongside the NDJSON listener:
        health/readiness probes, a Prometheus ``/metrics`` scrape
        target, a JSON session API, live SSE events, and the built-in
        dashboard at ``/``. ``http_host`` defaults to ``host``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 64,
        idle_ttl: Optional[float] = None,
        evict_lru: bool = True,
        max_connections: int = 64,
        queue_size: int = 32,
        telemetry: "Optional[Telemetry]" = None,
        data_dir: Optional[str] = None,
        checkpoint_interval: float = 30.0,
        sync: str = "batch",
        uds_path: Optional[str] = None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        super().__init__(
            host, port,
            max_connections=max_connections,
            queue_size=queue_size,
            telemetry=telemetry,
            uds_path=uds_path,
            http_host=http_host,
            http_port=http_port,
        )
        if checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}"
            )
        telemetry = self.telemetry
        self.registry = SessionRegistry(
            max_sessions=max_sessions,
            idle_ttl=idle_ttl,
            evict_lru=evict_lru,
            telemetry=telemetry,
        )
        self.checkpoint_interval = checkpoint_interval
        self._persistence = None
        self.sessions_recovered = 0
        if data_dir is not None:
            # Imported lazily: the persistence package depends on the
            # service package, not the other way around.
            from repro.persistence import PersistenceManager

            self._persistence = PersistenceManager(
                data_dir, self.registry, sync=sync, telemetry=telemetry
            )
            self.sessions_recovered = (
                self._persistence.recovered["recovered_live"]
            )
        self.checkpoint_failures = 0
        #: The next-phase scoreboard's counts, keyed by
        #: :data:`PREDICTION_COUNTS`.
        self.prediction_counts = dict.fromkeys(PREDICTION_COUNTS, 0)
        from repro import __version__ as _version

        telemetry.gauge(
            "repro_service_info",
            "Constant 1; process identity in the labels.",
            labels={
                "version": _version,
                "pid": os.getpid(),
                "started": int(self.started_at),
            },
        ).set(1)
        for key, name, help in (
            ("scored", "repro_service_predictions_total",
             "Next-phase predictions scored against the next interval"),
            ("correct", "repro_service_predictions_correct_total",
             "Scored next-phase predictions that matched"),
            ("confident_scored",
             "repro_service_predictions_confident_total",
             "Scored predictions the predictor marked confident"),
            ("confident_correct",
             "repro_service_predictions_confident_correct_total",
             "Confident scored predictions that matched"),
        ):
            telemetry.counter(
                name, help,
                read=functools.partial(self.prediction_counts.get, key),
            )
        self._m_branches = telemetry.counter(
            "repro_service_branches_total",
            "Branch records ingested via observe",
        )
        self._m_intervals = telemetry.counter(
            "repro_service_intervals_total",
            "Interval reports pushed to clients",
        )
        self._h_request = telemetry.histogram(
            "repro_service_request_seconds",
            "Wall time to execute one request",
        )
        self._h_ingest = telemetry.histogram(
            "repro_service_ingest_seconds",
            "Mean per-branch ingest latency, one sample per observe",
        )
        telemetry.counter(
            "repro_service_checkpoint_failures_total",
            "Checkpoint sweeps that raised",
            read=lambda: self.checkpoint_failures,
        )

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting connections, and start the idle sweep
        and checkpoint timers."""
        await super().start()
        if self.idle_ttl_enabled:
            self._tasks.append(asyncio.ensure_future(self._sweep_idle()))
        if self._persistence is not None:
            self._tasks.append(
                asyncio.ensure_future(self._checkpoint_loop())
            )
        self.telemetry.emit(
            "service_start", host=self.host, port=self.port,
            max_sessions=self.registry.max_sessions,
            recovered=self.sessions_recovered,
            durable=self._persistence is not None,
            http_port=self.http_port,
        )

    @property
    def idle_ttl_enabled(self) -> bool:
        return self.registry.idle_ttl is not None

    @property
    def persistence(self):
        """The :class:`~repro.persistence.manager.PersistenceManager`
        backing this service, or ``None`` when RAM-only."""
        return self._persistence

    async def _stop_backend(self) -> None:
        if self._persistence is not None:
            # Final checkpoint so a graceful stop leaves the data dir
            # ready to recover every session — the registry teardown
            # below destroys only the RAM copies.
            self._sweep()
            self._persistence.close()
        closed = self.registry.close_all()
        self.telemetry.emit(
            "service_stop", sessions_closed=closed,
            requests=self.requests_served,
        )

    async def _sweep_idle(self) -> None:
        interval = min(SWEEP_INTERVAL, self.registry.idle_ttl / 4)
        while True:
            await asyncio.sleep(interval)
            self.registry.expire_idle()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            self._sweep()

    def _sweep(self) -> None:
        try:
            self._persistence.checkpoint_all()
        except Exception as error:
            # One failed sweep (disk full, transient I/O) must not kill
            # the loop or the stop: it is counted, and the journal keeps
            # everything the next sweep or a recovery needs.
            self.checkpoint_failures += 1
            self.telemetry.emit(
                "checkpoint_sweep_failed",
                error=f"{type(error).__name__}: {error}",
            )

    # -- connection handling ---------------------------------------------------

    def _parse_line(self, line: bytes) -> tuple:
        try:
            return ("request", protocol.parse_request(line))
        except ProtocolError as error:
            return ("bad", _best_effort_id(line), error)

    def _work_id(self, item: tuple) -> Optional[int]:
        if item[0] == "request" and not isinstance(item[1], SERVER_REQUESTS):
            return item[1].id
        return None

    async def _work_loop(self, connection: _Connection) -> None:
        """Execute queued requests; the only writer on this socket.

        Each cycle drains everything immediately available from the
        queue and executes it in request order. All of a cycle's
        payloads are serialized into one buffer and written with a
        single ``writer.write`` — one syscall per cycle instead of one
        per line.
        """
        while True:
            item = await connection.queue.get()
            if item is None:
                break
            batch: List[object] = [item]
            while True:
                try:
                    extra = connection.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                batch.append(extra)
                if extra is None:
                    break
            stop = False
            chunks: List[bytes] = []
            for item in batch:
                if item is None:
                    stop = True
                    break
                started = time.perf_counter()
                if item[0] == "bad":
                    _, request_id, error = item
                    payloads = [protocol.error_response(
                        request_id if request_id is not None else -1,
                        protocol.error_code_for(error),
                        str(error),
                    )]
                    self.errors_returned += 1
                else:
                    payloads = self._execute(item[1])
                for payload in payloads:
                    chunks.append(protocol.encode(payload))
                self.requests_served += 1
                self._h_request.observe(time.perf_counter() - started)
            if chunks:
                try:
                    connection.writer.write(b"".join(chunks))
                    await connection.writer.drain()
                except (ConnectionError, RuntimeError):
                    break
            if stop:
                break

    # -- request execution -----------------------------------------------------

    def _execute(self, request: protocol.Request) -> List[dict]:
        """Run one request; returns the wire payloads to send, pushes
        first, the response to ``request`` last."""
        # Requests already queued when a drain begins are still
        # executed — the drain guarantee — so there is deliberately no
        # draining check here; refusal happens at the read loop.
        try:
            if isinstance(request, protocol.ObserveRequest):
                return self._handle_observe(request)
            return [protocol.ok_response(
                request.id, self._handle_simple(request)
            )]
        except Exception as error:
            self.errors_returned += 1
            if isinstance(error, ReproError):
                return [protocol.error_response(
                    request.id, protocol.error_code_for(error), str(error)
                )]
            return [protocol.error_response(
                request.id, "internal", f"{type(error).__name__}: {error}",
            )]

    def _handle_simple(self, request: protocol.Request) -> dict:
        if isinstance(request, protocol.PingRequest):
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
            }
        if isinstance(request, protocol.StatsRequest):
            stats = dict(self.registry.stats())
            stats.update(
                requests=self.requests_served,
                errors=self.errors_returned,
                connections=len(self._connections),
                uptime_seconds=self.uptime_seconds,
                predictions=self.prediction_accuracy(),
            )
            if self._persistence is not None:
                stats["persistence"] = self._persistence.stats()
                stats["checkpoint_failures"] = self.checkpoint_failures
            return stats
        if isinstance(request, protocol.OpenRequest):
            session = self.registry.open(
                name=request.session,
                config=request.config,
                interval_instructions=request.interval_instructions,
                snapshot=request.snapshot,
            )
            if self._persistence is not None:
                try:
                    self._persistence.log_open(
                        session,
                        config=request.config,
                        interval_instructions=(
                            session.tracker.interval_instructions
                        ),
                        snapshot=request.snapshot,
                    )
                except Exception:
                    # An open the journal does not hold would make
                    # every later observe on the name unrecoverable.
                    self.registry.close(session.name)
                    raise
            return {
                "session": session.name,
                "restored": request.snapshot is not None,
                "interval_instructions":
                    session.tracker.interval_instructions,
            }
        if isinstance(request, protocol.CloseRequest):
            # Journaled before the registry lets the session go: a
            # close the journal refuses leaves it open, so the next
            # sweep still checkpoints the records it has not covered.
            session = self.registry.close(
                request.session,
                journal=None if self._persistence is None
                else self._persistence.log_close,
            )
            return {
                "session": session.name,
                "intervals": session.tracker.intervals_observed,
                "branches": session.tracker.branches_observed,
            }
        if isinstance(request, protocol.PredictRequest):
            session = self.registry.get(request.session)
            return self._predict_result(session)
        if isinstance(request, protocol.ClusterRequest):
            # A worker answers the diagnostics action so a dispatcher
            # can aggregate the same shape the dashboard renders; every
            # other cluster action belongs to the dispatcher.
            if request.action == "diagnostics":
                return self.diagnostics()
            raise ClusterError(
                f"action {request.action!r} requires a cluster "
                f"dispatcher; this is a single phase service"
            )
        assert isinstance(request, protocol.SnapshotRequest)
        session = self.registry.get(request.session)
        return {"snapshot": snapshot_tracker(session.tracker)}

    @staticmethod
    def _predict_result(session: Session) -> dict:
        tracker = session.tracker
        pending = tracker.next_phase.pending_prediction
        return {
            "session": session.name,
            "intervals": tracker.intervals_observed,
            "current_phase": tracker.current_phase,
            "predicted_next_phase": (
                pending.phase_id if pending is not None else None
            ),
            "prediction_confident": (
                pending.confident if pending is not None else False
            ),
            "prediction_source": (
                pending.source if pending is not None else None
            ),
            "predicted_length_class":
                tracker.length_predictor.outstanding_prediction,
        }

    def _handle_observe(
        self, request: protocol.ObserveRequest
    ) -> List[dict]:
        session = self.registry.get(request.session)
        tracker = session.tracker
        # The prediction the first report is scored against: the one
        # the tracker holds, which a restored snapshot carries too.
        pending = tracker.next_phase.pending_prediction
        if self._persistence is not None and len(request.pcs):
            # Journaled (and flushed per the sync mode) before it is
            # applied, so a batch the journal refuses changes nothing
            # and a client's retry is not counted twice; and before the
            # ack, so an acknowledged batch is as durable as the sync
            # mode promises. The decoder and ``open`` have already
            # refused everything ``observe_batch`` would.
            self._persistence.log_observe(
                session, request.pcs, request.counts, cpi=request.cpi,
            )
        started = time.perf_counter()
        reports = tracker.observe_batch(
            request.pcs, request.counts, cpi=request.cpi
        )
        elapsed = time.perf_counter() - started
        if len(request.pcs):
            self._h_ingest.observe(elapsed / len(request.pcs))
        self._m_branches.inc(len(request.pcs))
        self._m_intervals.inc(len(reports))
        self._score_predictions(pending, reports)
        payloads = []
        for report in reports:
            # Serialized once: the event and the push carry the same
            # fields. One event per boundary (not per branch); with
            # neither a JSONL sink nor an SSE subscriber it is a
            # one-check no-op inside the hub.
            fields = report.to_dict()
            self.telemetry.emit("interval", session=session.name, **fields)
            payloads.append(protocol.interval_push(session.name, fields))
        payloads.append(protocol.ok_response(request.id, {
            "intervals": len(reports),
            "branches": len(request.pcs),
        }))
        return payloads

    def _score_predictions(self, pending, reports) -> None:
        """Score each report's interval against the next-phase
        prediction outstanding when it closed: ``pending`` (the
        tracker's before the batch) for the first, and the previous
        report's for each later one."""
        counts = self.prediction_counts
        predicted = pending.phase_id if pending is not None else None
        confident = pending is not None and pending.confident
        for report in reports:
            if predicted is not None:
                correct = int(predicted == report.phase_id)
                counts["scored"] += 1
                counts["correct"] += correct
                if confident:
                    counts["confident_scored"] += 1
                    counts["confident_correct"] += correct
            predicted = report.predicted_next_phase
            confident = report.prediction_confident

    def prediction_accuracy(self) -> Dict[str, object]:
        """Service-level next-phase predictor scoreboard."""
        return prediction_scoreboard(self.prediction_counts)

    def diagnostics(self) -> Dict[str, object]:
        """The operational state the dashboard renders: per-phase
        occupancy across live sessions, predictor accuracy, ingest
        backpressure, and persistence stats."""
        occupancy: Dict[str, int] = {}
        for session in self.registry.sessions():
            phase = session.tracker.current_phase
            key = "none" if phase is None else str(phase)
            occupancy[key] = occupancy.get(key, 0) + 1
        diagnostics: Dict[str, object] = {
            "uptime_seconds": self.uptime_seconds,
            "draining": self._draining,
            "requests": self.requests_served,
            "errors": self.errors_returned,
            "connections": len(self._connections),
            "connections_refused": self.connections_refused,
            "ingest_queue_depth": self.ingest_queue_depth(),
            "phase_occupancy": occupancy,
            "prediction": self.prediction_accuracy(),
            "registry": dict(self.registry.stats()),
            "persistence": (
                self._persistence.stats()
                if self._persistence is not None else None
            ),
        }
        if self._persistence is not None:
            diagnostics["checkpoint_failures"] = self.checkpoint_failures
        return diagnostics


def prediction_scoreboard(
    *counts: Optional[Mapping[str, object]],
) -> Dict[str, object]:
    """The next-phase predictor scoreboard: the :data:`PREDICTION_COUNTS`
    summed over ``counts`` (one mapping per service; a missing mapping
    or count reads 0), each with its accuracy."""
    scored, correct, confident, confident_correct = (
        sum((each or {}).get(key) or 0 for each in counts)
        for key in PREDICTION_COUNTS
    )
    return {
        "scored": scored,
        "correct": correct,
        "accuracy": correct / scored if scored else None,
        "confident_scored": confident,
        "confident_correct": confident_correct,
        "confident_accuracy": (
            confident_correct / confident if confident else None
        ),
    }


def _best_effort_id(line: bytes) -> Optional[int]:
    """Recover the request id from a line that failed validation, so
    the error response can still be matched to its request."""
    try:
        payload = json.loads(line)
    except Exception:
        return None
    if isinstance(payload, dict):
        request_id = payload.get("id")
        if isinstance(request_id, int) and not isinstance(request_id, bool):
            return request_id
    return None


# -- thread hosting -----------------------------------------------------------

#: Seconds :meth:`ServiceHandle.start` waits for the server to bind.
_START_TIMEOUT = 120.0
#: Seconds :meth:`ServiceHandle.stop` waits for the drain, and then for
#: the thread.
_STOP_TIMEOUT = 60.0


class ServiceHandle:
    """A running server — a :class:`PhaseService` or a cluster
    dispatcher — on a background thread (tests, demos, benchmarks).
    Use as a context manager or call :meth:`stop`.

    Its waits only bound how long it blocks, so they are sized for a
    cluster, whose workers take seconds to start and to drain.
    """

    def __init__(self, service: NdjsonServer) -> None:
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def host(self) -> str:
        return self.service.host

    def start(self) -> "ServiceHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-phase-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(_START_TIMEOUT):
            raise ServiceUnavailableError(
                "service failed to start within the timeout"
            )
        if self._error is not None:
            raise ServiceUnavailableError(
                f"service failed to start: {self._error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as error:
            self._error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_until_complete(self.service.serve_forever())
        finally:
            loop.close()

    def stop(self) -> None:
        """Drain the service and join the thread. Idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), loop
        )
        try:
            future.result(_STOP_TIMEOUT)
        except Exception:
            pass
        thread.join(_STOP_TIMEOUT)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(**kwargs: object) -> ServiceHandle:
    """Build a :class:`PhaseService` and run it on a daemon thread;
    returns a started :class:`ServiceHandle` (``handle.port`` is live)."""
    service = PhaseService(**kwargs)  # type: ignore[arg-type]
    return ServiceHandle(service).start()
