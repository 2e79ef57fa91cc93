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

Graceful drain: :meth:`PhaseService.shutdown` (``drain=True``) stops
accepting connections and new request lines, but every request already
queued is still executed and its responses/pushes flushed before sockets
close — no interval is lost or double-classified across a drain, which
the test suite proves by snapshotting at shutdown and replaying.

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
import json
import os
import threading
import time
from typing import Dict, List, Optional, TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


class _Connection:
    """Per-connection state: the socket pair, the bounded ingest queue,
    and the reader/worker task pair."""

    __slots__ = ("reader", "writer", "queue", "tasks", "peer")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        # Items are ("request", Request), ("bad", id-or-None, error), or
        # None (end of input). Bounded: this queue is the backpressure.
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.tasks: List["asyncio.Task"] = []
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"


class PhaseService:
    """A streaming phase-classification service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port, exposed as
        :attr:`port` after :meth:`start`.
    max_sessions, idle_ttl, evict_lru:
        Session registry policy (see :class:`SessionRegistry`).
    max_connections:
        Concurrent-connection cap; surplus accepts are closed
        immediately.
    queue_size:
        Per-connection ingest queue bound — the backpressure depth, in
        requests.
    sweep_interval:
        Seconds between idle-session sweeps (only meaningful with an
        ``idle_ttl``).
    drain_timeout:
        Upper bound, per connection, on waiting for queued work to
        finish during a graceful shutdown — a stalled client cannot
        wedge the drain.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub; the service
        records request/error counters, ingest- and request-latency
        histograms, connection/session gauges, and lifecycle events.
    data_dir:
        Enable the durable session tier rooted here (journal +
        checkpoints). Construction recovers whatever the directory
        holds — including after ``kill -9``.
    checkpoint_interval:
        Seconds between periodic checkpoint-dirty-sessions sweeps
        (each followed by journal compaction).
    sync:
        Journal durability mode (``none`` / ``batch`` / ``always``);
        see :mod:`repro.persistence.journal`. Only meaningful with a
        ``data_dir``.
    pool_slots:
        When set, back default-configured sessions with a shared
        :class:`~repro.core.pool.TrackerPool` of this initial capacity
        (the structure-of-arrays fast path; the pool grows on demand).
        Sessions opened with non-default configuration overrides fall
        back to scalar trackers transparently.
    coalesce, coalesce_window:
        Enable cross-session ingest coalescing: queued observe requests
        across all connections (and the HTTP gateway) are drained per
        scheduling round and the pool-backed sessions' records run
        through one fused :meth:`TrackerPool.observe_fanin` pass, with
        reports and acks fanned back per connection in exact protocol
        order (see :mod:`repro.service.coalesce` and DESIGN.md §11).
        ``coalesce_window`` adds a fixed gather delay per round; the
        default 0 coalesces only already-runnable work. Most effective
        together with ``pool_slots``; non-pool sessions inside a round
        fall back to the per-session path.
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
        dashboard at ``/``. ``http_host`` defaults to ``host``. A
        service with a gateway but no ``telemetry`` gets an in-memory
        hub automatically so the scrape surface is never empty.
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
        sweep_interval: float = 5.0,
        drain_timeout: float = 30.0,
        telemetry: "Optional[Telemetry]" = None,
        data_dir: Optional[str] = None,
        checkpoint_interval: float = 30.0,
        sync: str = "batch",
        pool_slots: Optional[int] = None,
        coalesce: bool = False,
        coalesce_window: float = 0.0,
        uds_path: Optional[str] = None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        if coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {coalesce_window}"
            )
        if max_connections <= 0:
            raise ConfigurationError(
                f"max_connections must be positive, got {max_connections}"
            )
        if queue_size <= 0:
            raise ConfigurationError(
                f"queue_size must be positive, got {queue_size}"
            )
        if checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}"
            )
        if http_port is not None and http_port < 0:
            raise ConfigurationError(
                f"http_port must be >= 0, got {http_port}"
            )
        if http_port is not None and telemetry is None:
            # The gateway exists to expose telemetry; an operator who
            # asks for the HTTP surface gets an in-memory hub for free.
            from repro.telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry()
        self.host = host
        self.port = port
        self.uds_path = uds_path
        self.http_host = http_host if http_host is not None else host
        self.http_port = http_port
        self._gateway = None
        self.max_connections = max_connections
        self.queue_size = queue_size
        self.sweep_interval = sweep_interval
        self.drain_timeout = drain_timeout
        self.coalesce = coalesce
        self.coalesce_window = coalesce_window
        self._coalescer = None
        pool = None
        if pool_slots is not None:
            if pool_slots <= 0:
                raise ConfigurationError(
                    f"pool_slots must be positive, got {pool_slots}"
                )
            # Imported lazily: the service protocol surface should not
            # pay the numpy pool import unless the fast path is on.
            from repro.core.pool import TrackerPool
            from repro.service.session import build_config

            pool = TrackerPool(
                capacity=pool_slots, config=build_config(None),
                telemetry=telemetry,
            )
        self.registry = SessionRegistry(
            max_sessions=max_sessions,
            idle_ttl=idle_ttl,
            evict_lru=evict_lru,
            telemetry=telemetry,
            pool=pool,
        )
        self.checkpoint_interval = checkpoint_interval
        self._persistence = None
        self.sessions_recovered = 0
        if data_dir is not None:
            # Imported lazily: the persistence package depends on the
            # service package, not the other way around.
            from repro.persistence import PersistenceManager

            self._persistence = PersistenceManager(
                data_dir, sync=sync, telemetry=telemetry
            )
            self.sessions_recovered = self._persistence.install_into(
                self.registry
            )
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_refused = 0
        self.checkpoint_failures = 0
        self.predictions_scored = 0
        self.predictions_correct = 0
        self.confident_scored = 0
        self.confident_correct = 0
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._sweeper: Optional["asyncio.Task"] = None
        self._checkpointer: Optional["asyncio.Task"] = None
        self._drain_task: Optional["asyncio.Task"] = None
        self._telemetry = telemetry
        if telemetry is not None:
            from repro import __version__ as _version
            import os as _os

            telemetry.gauge(
                "repro_service_info",
                "Constant 1; process identity in the labels.",
                labels={
                    "version": _version,
                    "pid": _os.getpid(),
                    "started": int(self.started_at),
                },
            ).set(1)
            self._g_uptime = telemetry.gauge(
                "repro_service_uptime_seconds",
                "Seconds since service construction (updated on scrape).",
            )
            self._m_pred_scored = telemetry.counter(
                "repro_service_predictions_total",
                "Next-phase predictions scored against the next interval",
            )
            self._m_pred_correct = telemetry.counter(
                "repro_service_predictions_correct_total",
                "Scored next-phase predictions that matched",
            )
            self._m_pred_confident = telemetry.counter(
                "repro_service_predictions_confident_total",
                "Scored predictions the predictor marked confident",
            )
            self._m_pred_confident_correct = telemetry.counter(
                "repro_service_predictions_confident_correct_total",
                "Confident scored predictions that matched",
            )
            self._m_requests = telemetry.counter(
                "repro_service_requests_total",
                "Requests executed by the service (including refusals)",
            )
            self._m_errors = telemetry.counter(
                "repro_service_errors_total",
                "Requests answered with an error response",
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
            self._g_connections = telemetry.gauge(
                "repro_service_connections",
                "Open client connections",
            )
            self._m_checkpoint_failures = telemetry.counter(
                "repro_service_checkpoint_failures_total",
                "Periodic checkpoint sweeps that raised",
            )
            if coalesce:
                self._m_coalesce_rounds = telemetry.counter(
                    "repro_service_coalesce_rounds_total",
                    "Coalesced ingest scheduling rounds executed",
                )
                self._m_coalesce_fallbacks = telemetry.counter(
                    "repro_service_coalesce_fallbacks_total",
                    "Observes in a round executed on the per-session "
                    "path (non-pool sessions)",
                )
                self._h_round_size = telemetry.histogram(
                    "repro_service_coalesce_round_size",
                    "Observe requests fused per scheduling round",
                    start=1.0, factor=2.0, count=16,
                )
                self._g_coalesced_sessions = telemetry.gauge(
                    "repro_service_coalesced_sessions",
                    "Distinct pool-backed sessions in the last "
                    "coalesced round",
                )

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
        if self.coalesce:
            # Imported lazily alongside its numpy dependency chain: the
            # scheduler only exists when coalescing was asked for.
            from repro.service.coalesce import IngestCoalescer

            self._coalescer = IngestCoalescer(
                self._coalesce_round, window=self.coalesce_window
            )
            self._coalescer.start()
        if self.idle_ttl_enabled:
            self._sweeper = asyncio.ensure_future(self._sweep_idle())
        if self._persistence is not None:
            self._checkpointer = asyncio.ensure_future(
                self._checkpoint_loop()
            )
        if self.http_port is not None:
            # Imported lazily: the NDJSON service must not pay for the
            # HTTP gateway unless it was asked for.
            from repro.obs import HttpGateway

            self._gateway = HttpGateway(
                self, host=self.http_host, port=self.http_port
            )
            await self._gateway.start()
            self.http_port = self._gateway.port
        if self._telemetry is not None:
            self._telemetry.emit(
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

    @property
    def telemetry(self) -> "Optional[Telemetry]":
        return self._telemetry

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def gateway(self):
        """The running :class:`~repro.obs.HttpGateway`, or ``None``."""
        return self._gateway

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_mono

    def touch_uptime(self) -> float:
        """Refresh the uptime gauge (called on scrape) and return it."""
        uptime = self.uptime_seconds
        if self._telemetry is not None:
            self._g_uptime.set(uptime)
        return uptime

    def ingest_queue_depth(self) -> int:
        """Requests currently buffered across all connection queues —
        the live backpressure signal."""
        return sum(
            connection.queue.qsize()
            for connection in self._connections.values()
        )

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
            await self.shutdown(drain=True)

        self._drain_task = asyncio.ensure_future(_later())

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (from another task or a
        signal handler)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain=True`` (the default): stop accepting connections,
        stop reading new request lines, execute everything already
        queued, flush all responses and interval pushes, then close the
        sockets. With ``drain=False``: cancel everything immediately.
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
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._checkpointer is not None:
            self._checkpointer.cancel()
            self._checkpointer = None

        connections = list(self._connections.values())
        if drain:
            # Stop the readers (no new requests), then let each worker
            # finish its queue. The sentinel wakes idle workers; both
            # waits are bounded so a stalled client cannot wedge the
            # shutdown.
            for connection in connections:
                for task in connection.tasks[:1]:  # the reader
                    task.cancel()
            for connection in connections:
                try:
                    await asyncio.wait_for(
                        connection.queue.put(None), self.drain_timeout
                    )
                except asyncio.TimeoutError:
                    pass
            for connection in connections:
                for task in connection.tasks[1:]:  # the worker
                    try:
                        await asyncio.wait_for(
                            asyncio.shield(task), self.drain_timeout
                        )
                    except (asyncio.CancelledError, Exception):
                        pass
        if self._coalescer is not None:
            # After the workers: every queued observe has been rounded
            # and acked (the drain guarantee); stopping earlier would
            # strand workers awaiting their round.
            coalescer, self._coalescer = self._coalescer, None
            await coalescer.stop()
        for connection in connections:
            for task in connection.tasks:
                task.cancel()
            await self._close_connection(connection)
        self._connections.clear()

        if self._persistence is not None:
            # Final checkpoint so a graceful stop leaves the data dir
            # ready to recover every session — the registry teardown
            # below destroys only the RAM copies.
            self._persistence.checkpoint_all(self.registry.sessions())
            self._persistence.compact()
            self._persistence.close()
        closed = self.registry.close_all()
        if self._telemetry is not None:
            self._telemetry.emit(
                "service_stop", drained=drain, sessions_closed=closed,
                requests=self.requests_served,
            )
        if self._gateway is not None:
            # The gateway goes down last so /healthz and /readyz stay
            # observable for the whole drain — a load balancer sees the
            # not-ready signal before the port disappears.
            gateway, self._gateway = self._gateway, None
            await gateway.shutdown()
        if self._stopped is not None:
            self._stopped.set()

    async def _sweep_idle(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            self.registry.expire_idle()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                self._persistence.checkpoint_all(self.registry.sessions())
                self._persistence.compact()
            except Exception as error:
                # One failed sweep (disk full, transient I/O) must not
                # kill the loop: with no checkpoints the journal grows
                # unboundedly and recovery time degrades silently.
                self.checkpoint_failures += 1
                if self._telemetry is not None:
                    self._telemetry.emit(
                        "checkpoint_sweep_failed",
                        error=f"{type(error).__name__}: {error}",
                    )
                    self._m_checkpoint_failures.inc()

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
        connection = _Connection(reader, writer, self.queue_size)
        self._connections[id(connection)] = connection
        if self._telemetry is not None:
            self._g_connections.set(len(self._connections))
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
            if self._telemetry is not None:
                self._g_connections.set(len(self._connections))

    async def _close_connection(self, connection: _Connection) -> None:
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self, connection: _Connection) -> None:
        """Parse request lines into the bounded queue (the await on
        ``put`` is what backpressures the socket)."""
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
                try:
                    request = protocol.parse_request(line)
                except ProtocolError as error:
                    request_id = _best_effort_id(line)
                    await connection.queue.put(("bad", request_id, error))
                    continue
                if self._draining and not isinstance(
                    request,
                    (
                        protocol.PingRequest,
                        protocol.StatsRequest,
                        protocol.ClusterRequest,
                    ),
                ):
                    # Lines read after drain began: typed refusal, so
                    # the client knows the work was NOT ingested.
                    await connection.queue.put(("bad", request.id,
                                                ServiceUnavailableError(
                        "service is draining; no new work is accepted"
                    )))
                    continue
                await connection.queue.put(("request", request))
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            # Unblock the worker even when cancelled mid-drain.
            try:
                connection.queue.put_nowait(None)
            except asyncio.QueueFull:
                pass

    async def _work_loop(self, connection: _Connection) -> None:
        """Execute queued requests; the only writer on this socket.

        Each cycle drains everything immediately available from the
        queue. With coalescing enabled, observe requests are submitted
        to the ingest scheduler (joining the cross-connection round)
        and any other request acts as an ordering barrier: earlier
        observes' results are collected first, so responses always
        leave in request order and a close never overtakes its
        session's in-flight observe. All of a cycle's payloads are
        serialized into one buffer and written with a single
        ``writer.write`` — one syscall per cycle instead of one per
        line, which also benefits the uncoalesced path.
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
            # (future, request, submit time) triples for coalesced
            # observes whose results have not been collected yet, in
            # request order.
            pending: List[tuple] = []

            async def _collect_pending() -> None:
                for future, request, submitted in pending:
                    try:
                        payloads = await future
                    except Exception as error:
                        # A scheduler fault must answer the request,
                        # not strand the connection.
                        payloads = self._error_payloads(
                            request.id, error
                        )
                    for payload in payloads:
                        chunks.append(protocol.encode(payload))
                    self.requests_served += 1
                    if self._telemetry is not None:
                        self._m_requests.inc()
                        self._h_request.observe(
                            time.perf_counter() - submitted
                        )
                pending.clear()

            for item in batch:
                if item is None:
                    stop = True
                    break
                started = time.perf_counter()
                if (
                    item[0] == "request"
                    and self._coalescer is not None
                    and self._coalescer.running
                    and isinstance(item[1], protocol.ObserveRequest)
                ):
                    pending.append(
                        (self._coalescer.submit(item[1]), item[1], started)
                    )
                    continue
                await _collect_pending()  # the ordering barrier
                if item[0] == "bad":
                    _, request_id, error = item
                    payloads = [protocol.error_response(
                        request_id if request_id is not None else -1,
                        protocol.error_code_for(error),
                        str(error),
                    )]
                    self.errors_returned += 1
                    if self._telemetry is not None:
                        self._m_errors.inc()
                else:
                    payloads = self._execute(item[1])
                for payload in payloads:
                    chunks.append(protocol.encode(payload))
                self.requests_served += 1
                if self._telemetry is not None:
                    self._m_requests.inc()
                    self._h_request.observe(time.perf_counter() - started)
            await _collect_pending()
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
            return self._error_payloads(request.id, error)

    def _error_payloads(
        self, request_id: int, error: Exception
    ) -> List[dict]:
        """Count and encode one refusal (typed) or failure (internal)."""
        self.errors_returned += 1
        if self._telemetry is not None:
            self._m_errors.inc()
        if isinstance(error, ReproError):
            return [protocol.error_response(
                request_id, protocol.error_code_for(error), str(error)
            )]
        return [protocol.error_response(
            request_id, "internal", f"{type(error).__name__}: {error}",
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
                uptime_seconds=self.touch_uptime(),
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
                self._persistence.log_open(
                    session.name,
                    config=request.config,
                    interval_instructions=(
                        session.tracker.interval_instructions
                    ),
                    snapshot=request.snapshot,
                )
            return {
                "session": session.name,
                "restored": not session.recyclable,
                "interval_instructions":
                    session.tracker.interval_instructions,
            }
        if isinstance(request, protocol.CloseRequest):
            session = self.registry.close(request.session)
            if self._persistence is not None:
                self._persistence.log_close(session.name)
            return {
                "session": session.name,
                "intervals": session.tracker.intervals_observed,
                "branches": session.branches_ingested,
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
        started = time.perf_counter()
        reports = session.tracker.observe_batch(
            request.pcs, request.counts, cpi=request.cpi
        )
        elapsed = time.perf_counter() - started
        if self._telemetry is not None and len(request.pcs):
            self._h_ingest.observe(elapsed / len(request.pcs))
        return self._finish_observe(session, request, reports)

    def _finish_observe(
        self,
        session: Session,
        request: protocol.ObserveRequest,
        reports,
    ) -> List[dict]:
        """The shared post-classification tail of an observe: session
        bookkeeping, journaling, prediction scoring, interval events,
        and the wire payloads (pushes first, ack last). Used by both
        the per-session path and the coalesced round executor so the
        two produce byte-identical streams by construction."""
        session.branches_ingested += len(request.pcs)
        session.intervals_pushed += len(reports)
        if self._persistence is not None and len(request.pcs):
            # Journaled (and flushed per the sync mode) before the ack
            # below is written: an acknowledged batch is as durable as
            # the sync mode promises. In a coalesced round every
            # submission logs here before any future resolves, so the
            # whole round is journaled before the first ack leaves.
            self._persistence.log_observe(
                session.name, request.pcs, request.counts,
                cpi=request.cpi,
            )
        if self._telemetry is not None:
            self._m_branches.inc(len(request.pcs))
            self._m_intervals.inc(len(reports))
        for report in reports:
            self._score_prediction(session, report)
        if self._telemetry is not None and reports:
            # One event per boundary (not per branch); with neither a
            # JSONL sink nor an SSE subscriber these are one-check
            # no-ops inside the hub.
            for report in reports:
                self._telemetry.emit(
                    "interval", session=session.name,
                    **report.to_dict(),
                )
        payloads = [
            protocol.interval_push(session.name, report.to_dict())
            for report in reports
        ]
        payloads.append(protocol.ok_response(request.id, {
            "intervals": len(reports),
            "branches": len(request.pcs),
        }))
        return payloads

    # -- coalesced ingest rounds ----------------------------------------------

    async def execute_observe(
        self, request: protocol.ObserveRequest
    ) -> List[dict]:
        """Execute one observe through the ingest coalescer when it is
        running, else inline — the entry point shared by the NDJSON
        workers and the HTTP gateway's observe-batch endpoint."""
        coalescer = self._coalescer
        if coalescer is not None and coalescer.running:
            return await coalescer.submit(request)
        return self._execute(request)

    def _coalesce_round(self, submissions) -> None:
        """Execute one coalesced ingest round.

        Sessions on pool slots contribute their record slices to a
        single fused :meth:`TrackerPool.observe_fanin` pass; everything
        else (scalar trackers, lookup failures) takes the per-session
        path. Every submission's future is resolved with its wire
        payloads — pushes first, ack last, identical to the inline
        path — and journaling for the whole round happens before any
        future resolves.

        Ordering: submissions arrive in per-connection request order,
        a session's submissions are grouped and its whole group takes
        exactly one path per round (fused or per-session — never a
        mid-round flip that could reorder a session's requests), and
        same-session slices are concatenated in submission order, so a
        record-by-record replay would interleave exactly the way the
        uncoalesced worker loop does.
        """
        from collections import OrderedDict

        # Group submissions per session, keeping submission order both
        # across groups (insertion order) and within each group. The
        # lookup runs per submission — exactly the inline path's LRU /
        # hydration touches — and the group always uses the *latest*
        # resolved Session object (a mid-round evict-and-hydrate
        # replaces it for every queued request of that session).
        groups: "OrderedDict[str, dict]" = OrderedDict()
        for submission in submissions:
            request = submission.request
            try:
                session = self.registry.get(request.session)
            except Exception as error:
                submission.resolve(
                    self._error_payloads(request.id, error)
                )
                continue
            group = groups.get(request.session)
            if group is None:
                groups[request.session] = {
                    "session": session, "subs": [submission],
                }
            else:
                group["session"] = session
                group["subs"].append(submission)

        def _per_session(group: dict) -> None:
            """Today's path for a whole group, in request order."""
            for submission in group["subs"]:
                submission.resolve(self._execute(submission.request))
            if self._telemetry is not None:
                self._m_coalesce_fallbacks.inc(len(group["subs"]))

        fused = []
        for group in groups.values():
            if self.registry.pool_slot(group["session"]) is None:
                # Foreign-config scalar trackers (and pool-exhaustion
                # fallbacks) keep the per-session path.
                _per_session(group)
            else:
                fused.append(group)

        # A scalar group's (or another pooled group's) hydration may
        # have LRU-evicted a fused session after its lookup; demote any
        # stale group to the per-session path, whose own registry.get
        # re-hydrates it correctly. Each iteration demotes at least one
        # group, so this terminates even under eviction ping-pong.
        while True:
            stale = [
                group for group in fused
                if self.registry.pool_slot(group["session"]) is None
            ]
            if not stale:
                break
            fused = [group for group in fused if group not in stale]
            for group in stale:
                _per_session(group)

        records = 0
        live_count = len(fused)
        if fused:
            segments = []
            flat: List[tuple] = []  # (submission, session) per segment
            for group in fused:
                session = group["session"]
                slot = self.registry.pool_slot(session)
                for submission in group["subs"]:
                    request = submission.request
                    segments.append((
                        slot, request.pcs, request.counts, request.cpi,
                    ))
                    flat.append((submission, session))
                    records += len(request.pcs)
            started = time.perf_counter()
            try:
                fanned = self.registry.pool.observe_fanin(segments)
            except Exception as error:  # pragma: no cover - defensive
                for submission, _ in flat:
                    submission.resolve(self._error_payloads(
                        submission.request.id, error
                    ))
                fanned = None
            if fanned is not None:
                elapsed = time.perf_counter() - started
                if self._telemetry is not None and records:
                    # Per-record ingest latency, attributed per round:
                    # the fused pass is one unit of work.
                    self._h_ingest.observe(elapsed / records)
                for (submission, session), reports in zip(flat, fanned):
                    try:
                        payloads = self._finish_observe(
                            session, submission.request, reports
                        )
                    except Exception as error:  # pragma: no cover
                        payloads = self._error_payloads(
                            submission.request.id, error
                        )
                    submission.resolve(payloads)

        if self._telemetry is not None:
            self._m_coalesce_rounds.inc()
            self._h_round_size.observe(len(submissions))
            self._g_coalesced_sessions.set(live_count)

    def _score_prediction(self, session: Session, report) -> None:
        """Score the session's outstanding next-phase prediction against
        the interval that just closed, then remember the new one."""
        predicted = session.predicted_next_phase
        if predicted is not None:
            correct = predicted == report.phase_id
            self.predictions_scored += 1
            self.predictions_correct += int(correct)
            if session.prediction_confident:
                self.confident_scored += 1
                self.confident_correct += int(correct)
            if self._telemetry is not None:
                self._m_pred_scored.inc()
                if correct:
                    self._m_pred_correct.inc()
                if session.prediction_confident:
                    self._m_pred_confident.inc()
                    if correct:
                        self._m_pred_confident_correct.inc()
        session.predicted_next_phase = report.predicted_next_phase
        session.prediction_confident = report.prediction_confident

    def prediction_accuracy(self) -> Dict[str, object]:
        """Service-level next-phase predictor scoreboard."""
        scored = self.predictions_scored
        confident = self.confident_scored
        return {
            "scored": scored,
            "correct": self.predictions_correct,
            "accuracy": (
                self.predictions_correct / scored if scored else None
            ),
            "confident_scored": confident,
            "confident_correct": self.confident_correct,
            "confident_accuracy": (
                self.confident_correct / confident if confident else None
            ),
        }

    def diagnostics(self) -> Dict[str, object]:
        """The operational state the dashboard renders: per-phase
        occupancy across live sessions, predictor accuracy, pool slot
        utilization, ingest backpressure, and persistence stats."""
        occupancy: Dict[str, int] = {}
        for session in self.registry.sessions():
            phase = session.tracker.current_phase
            key = "none" if phase is None else str(phase)
            occupancy[key] = occupancy.get(key, 0) + 1
        pool = self.registry.pool
        diagnostics: Dict[str, object] = {
            "uptime_seconds": self.touch_uptime(),
            "draining": self._draining,
            "requests": self.requests_served,
            "errors": self.errors_returned,
            "connections": len(self._connections),
            "connections_refused": self.connections_refused,
            "ingest_queue_depth": self.ingest_queue_depth(),
            "phase_occupancy": occupancy,
            "prediction": self.prediction_accuracy(),
            "registry": dict(self.registry.stats()),
            "pool": (
                {
                    "capacity": pool.capacity,
                    "active_slots": pool.active_slots,
                    "utilization": (
                        pool.active_slots / pool.capacity
                        if pool.capacity else None
                    ),
                }
                if pool is not None else None
            ),
            "persistence": (
                self._persistence.stats()
                if self._persistence is not None else None
            ),
        }
        if self.coalesce:
            coalescer = self._coalescer
            if coalescer is not None:
                diagnostics["coalesce"] = dict(
                    enabled=True, **coalescer.stats()
                )
            else:
                diagnostics["coalesce"] = {
                    "enabled": True,
                    "window": self.coalesce_window,
                    "rounds": 0,
                }
        if self._persistence is not None:
            diagnostics["checkpoint_failures"] = self.checkpoint_failures
        return diagnostics


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


class ServiceHandle:
    """A running service on a background thread (tests, demos, the
    benchmark). Use as a context manager or call :meth:`stop`."""

    def __init__(self, service: PhaseService, drain: bool = True) -> None:
        self.service = service
        self.drain = drain
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

    def start(self, timeout: float = 10.0) -> "ServiceHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-phase-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
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

    def stop(self, drain: Optional[bool] = None, timeout: float = 10.0) -> None:
        """Shut the service down (draining by default) and join the
        thread. Idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        should_drain = self.drain if drain is None else drain
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=should_drain), loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(**kwargs: object) -> ServiceHandle:
    """Build a :class:`PhaseService` and run it on a daemon thread;
    returns a started :class:`ServiceHandle` (``handle.port`` is live)."""
    service = PhaseService(**kwargs)  # type: ignore[arg-type]
    return ServiceHandle(service).start()
