"""The cluster front end: one public NDJSON endpoint, N worker processes.

:class:`ClusterDispatcher` owns the TCP socket clients connect to and
proxies every session operation to the worker that owns the session.
Clients speak the exact same protocol as against a single
:class:`~repro.service.server.PhaseService` — the cluster is invisible
except for the extra ``cluster`` control-plane op.

Proxy design, in order of importance:

- **Raw-line forwarding.** The dispatcher routes on a byte-regex over
  the line prefix (our wire form always emits ``op``, ``id``,
  ``session`` first) and forwards the client's bytes to the worker
  unmodified; worker push/response lines travel back equally untouched.
  The dispatcher never re-serializes a report, which is what makes the
  byte-for-byte identity guarantee cheap to keep — and keeps the single
  dispatcher process out of the JSON-parsing business on the hot path.
  Lines the regex cannot take (escaped session names, anonymous opens)
  fall back to a full parse.
- **Per-(client, worker) channels.** Each client connection gets its
  own Unix-socket channel to each worker it talks to. The worker sees
  one connection per client, so per-connection request ordering and
  request-id uniqueness hold exactly as they would single-process, and
  the worker's bounded ingest queue backpressures that client alone.
  Responses need no id matching: a channel is used sequentially, so the
  first non-push line *is* the response.
- **Routing table over hash.** ``shard_of(session)`` → rendezvous
  owner decides where a session *opens*; from then on the dispatcher's
  session table is authoritative. Migration flips the table entry, so
  the shard map can change shape (grow, drain) without stranding live
  sessions.
- **Supervised workers.** A health loop notices crashed workers and
  restarts them on the same socket and data dir; channels reconnect
  with a bounded retry window, so a mid-restart request waits instead
  of failing. Read-only ops are resent after a reconnect; mutating ops
  whose connection died after the send fail with error code
  ``cluster`` (their fate on the worker is unknown).

Migration itself lives in :mod:`repro.cluster.migration`.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ClusterError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.cluster.migration import SessionMigrator
from repro.cluster.routing import DEFAULT_SHARDS, ShardMap
from repro.cluster.supervisor import (
    ClusterSupervisor,
    DOWN,
    STOPPED,
    UP,
    WorkerHandle,
)

#: Fast-path router: matches the canonical wire prefix our encoder (and
#: the bundled client) emits — ``op``, ``id``, ``session`` first, with a
#: session name that needs no JSON escaping. Anything else falls back to
#: a full parse; the fast path is an optimization, never a requirement.
_FAST_ROUTE = re.compile(
    rb'^\{"op":"(observe|predict|snapshot|close)",'
    rb'"id":(-?\d+),'
    rb'"session":"([A-Za-z0-9._:\-]{1,200})"[,}]'
)

#: Worker lines that are interval pushes (vs responses). The server
#: encodes with ``separators=(",", ":")`` and dict insertion order, so
#: the prefix is stable.
_PUSH_PREFIX = b'{"push"'

_NOT_FOUND_MARKER = b'"code":"session_not_found"'


class _WorkerChannel:
    """One Unix-socket connection from the dispatcher to a worker.

    Used strictly sequentially (guarded by a lock): send one line, read
    pushes until the response line. Reconnects transparently inside a
    bounded retry window, which is what rides out a supervised worker
    restart. ``resendable`` exchanges may be re-sent after a mid-read
    disconnect; others fail with :class:`ClusterError` because the
    worker may already have executed them.
    """

    def __init__(
        self,
        worker_id: str,
        uds_path: str,
        retry_window: float = 20.0,
    ) -> None:
        self.worker_id = worker_id
        self.uds_path = uds_path
        self.retry_window = retry_window
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def drop(self) -> None:
        """Forget the current connection (next use reconnects)."""
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _ensure_connected(self, deadline: float) -> None:
        while self._writer is None:
            try:
                self._reader, self._writer = (
                    await asyncio.open_unix_connection(
                        self.uds_path, limit=protocol.MAX_LINE_BYTES
                    )
                )
                return
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"worker {self.worker_id} unreachable at "
                        f"{self.uds_path}: {error}"
                    ) from None
                await asyncio.sleep(0.1)

    async def exchange(
        self, raw_line: bytes, resendable: bool
    ) -> Tuple[List[bytes], bytes]:
        """Send one request line; returns ``(push_lines, response_line)``."""
        async with self._lock:
            deadline = time.monotonic() + self.retry_window
            while True:
                try:
                    await self._ensure_connected(deadline)
                    assert self._writer is not None
                    self._writer.write(raw_line)
                    await self._writer.drain()
                    sent = True
                except ClusterError:
                    raise
                except (OSError, ConnectionError) as error:
                    # The send did not complete: a resend is safe for
                    # everyone... unless the drain failure left the
                    # line's fate ambiguous for a mutating op.
                    self.drop()
                    if not resendable or time.monotonic() >= deadline:
                        raise ClusterError(
                            f"connection to worker {self.worker_id} "
                            f"failed while sending: {error}"
                        ) from None
                    await asyncio.sleep(0.1)
                    continue
                try:
                    pushes: List[bytes] = []
                    assert self._reader is not None
                    while True:
                        line = await self._reader.readline()
                        if not line:
                            raise ConnectionError("EOF from worker")
                        if line.startswith(_PUSH_PREFIX):
                            pushes.append(line)
                            continue
                        return pushes, line
                except (OSError, ConnectionError, ValueError) as error:
                    self.drop()
                    if resendable and time.monotonic() < deadline:
                        await asyncio.sleep(0.1)
                        continue
                    raise ClusterError(
                        f"connection to worker {self.worker_id} lost "
                        f"mid-request ({error}); the request's fate on "
                        f"the worker is unknown"
                    ) from None

    async def request(
        self, request: protocol.Request, resendable: bool = False
    ) -> dict:
        """Control-plane convenience: send a typed request, return the
        ``result`` dict, raising the typed exception on refusal."""
        raw = protocol.encode(protocol.request_payload(request))
        _, line = await self.exchange(raw, resendable=resendable)
        message = protocol.parse_server_message(line)
        assert isinstance(message, protocol.Response)
        message.raise_for_error()
        return message.result


class _ClientConnection:
    """Dispatcher-side state for one public TCP client."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.tasks: List["asyncio.Task"] = []
        self.channels: Dict[str, _WorkerChannel] = {}


class ClusterDispatcher:
    """The public endpoint of a sharded multi-process phase service.

    Parameters mirror :class:`~repro.service.server.PhaseService` where
    they mean the same thing; worker-fleet knobs (``workers``,
    ``runtime_dir``, ``data_root``, per-worker capacity) are new.
    ``data_root=None`` runs a RAM-only cluster; with a data root each
    worker persists to ``<data_root>/<worker_id>`` and recovers it on
    restart.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        runtime_dir: str,
        data_root: Optional[str] = None,
        num_shards: int = DEFAULT_SHARDS,
        queue_size: int = 32,
        max_connections: int = 64,
        drain_timeout: float = 30.0,
        telemetry=None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
        worker_max_sessions: int = 1024,
        sync: str = "batch",
        checkpoint_interval: float = 30.0,
        idle_ttl: Optional[float] = None,
        max_restarts: int = 5,
        ready_timeout: float = 60.0,
        retry_window: float = 20.0,
        migration_timeout: float = 30.0,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers}"
            )
        if workers > num_shards:
            raise ConfigurationError(
                f"workers ({workers}) cannot exceed num_shards "
                f"({num_shards}); extra workers would own no shards"
            )
        if http_port is not None and telemetry is None:
            from repro.telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry()
        self.host = host
        self.port = port
        self.http_host = http_host if http_host is not None else host
        self.http_port = http_port
        self.initial_workers = workers
        self.queue_size = queue_size
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self.retry_window = retry_window
        self.migration_timeout = migration_timeout
        self._telemetry = telemetry
        self.supervisor = ClusterSupervisor(
            runtime_dir,
            data_root=data_root,
            sync=sync,
            checkpoint_interval=checkpoint_interval,
            max_sessions=worker_max_sessions,
            idle_ttl=idle_ttl,
            queue_size=queue_size,
            max_connections=max_connections + 8,
            max_restarts=max_restarts,
            ready_timeout=ready_timeout,
            telemetry=telemetry,
        )
        self.shard_map = ShardMap(num_shards=num_shards)
        self.migrator = SessionMigrator(self)
        # session -> owning worker id; authoritative once a session is
        # open (the shard map only decides where sessions *start*).
        self._sessions: Dict[str, str] = {}
        # session -> gate Event; present while that session migrates.
        self._gates: Dict[str, asyncio.Event] = {}
        # session -> requests currently executing on a worker.
        self._inflight: Dict[str, int] = {}
        self._control: Dict[str, _WorkerChannel] = {}
        self._restarting: set = set()
        self._connections: Dict[int, _ClientConnection] = {}
        self._names = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._health_task: Optional["asyncio.Task"] = None
        self._drain_task: Optional["asyncio.Task"] = None
        self._gateway = None
        self._draining = False
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_refused = 0
        self.migrations_completed = 0
        self.migrations_failed = 0
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._init_metrics()

    def _init_metrics(self) -> None:
        telemetry = self._telemetry
        self._g_workers = self._g_migrations = None
        self._worker_gauges: Dict[str, dict] = {}
        if telemetry is None:
            return
        self._g_workers = telemetry.gauge(
            "repro_cluster_workers", "Live workers in the shard map"
        )
        self._g_uptime = telemetry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the dispatcher started",
        )
        self._m_migrations = telemetry.counter(
            "repro_cluster_migrations_total",
            "Completed live session migrations",
        )
        self._m_migrations_failed = telemetry.counter(
            "repro_cluster_migrations_failed_total",
            "Session migrations that failed and rolled back",
        )
        self._m_requests = telemetry.counter(
            "repro_service_requests_total",
            "Requests executed (dispatcher-side count)",
        )
        self._m_errors = telemetry.counter(
            "repro_service_errors_total",
            "Requests answered with an error response",
        )

    def _worker_metrics(self, worker_id: str) -> Optional[dict]:
        """Per-worker labeled gauge handles, created on first use."""
        if self._telemetry is None:
            return None
        gauges = self._worker_gauges.get(worker_id)
        if gauges is None:
            labels = {"worker": worker_id}
            telemetry = self._telemetry
            gauges = {
                "up": telemetry.gauge(
                    "repro_cluster_worker_up",
                    "1 when the worker process is up", labels=labels,
                ),
                "sessions": telemetry.gauge(
                    "repro_cluster_worker_sessions",
                    "Sessions routed to the worker", labels=labels,
                ),
                "shards": telemetry.gauge(
                    "repro_cluster_worker_shards",
                    "Shards the worker owns", labels=labels,
                ),
                "restarts": telemetry.gauge(
                    "repro_cluster_worker_restarts_total",
                    "Times the supervisor restarted the worker",
                    labels=labels,
                ),
            }
            self._worker_gauges[worker_id] = gauges
        return gauges

    def refresh_cluster_metrics(self) -> None:
        """Recompute the ``repro_cluster_*`` gauges (called on scrape
        and after topology changes)."""
        if self._telemetry is None:
            return
        self._g_workers.set(len(self.shard_map))
        occupancy = (
            self.shard_map.occupancy() if len(self.shard_map) else {}
        )
        sessions_per_worker: Dict[str, int] = {}
        for owner in self._sessions.values():
            sessions_per_worker[owner] = (
                sessions_per_worker.get(owner, 0) + 1
            )
        for worker_id, handle in self.supervisor.workers.items():
            gauges = self._worker_metrics(worker_id)
            gauges["up"].set(1.0 if handle.state == UP else 0.0)
            gauges["sessions"].set(sessions_per_worker.get(worker_id, 0))
            gauges["shards"].set(occupancy.get(worker_id, 0))
            gauges["restarts"].set(handle.restarts)

    # -- properties the gateway leans on ---------------------------------------

    @property
    def telemetry(self):
        return self._telemetry

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def gateway(self):
        return self._gateway

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_mono

    def touch_uptime(self) -> float:
        uptime = self.uptime_seconds
        if self._telemetry is not None:
            self._g_uptime.set(uptime)
        return uptime

    def ingest_queue_depth(self) -> int:
        return sum(
            connection.queue.qsize()
            for connection in self._connections.values()
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ServiceUnavailableError("dispatcher is already started")
        self._stopped = asyncio.Event()
        handles = await asyncio.gather(*(
            self.supervisor.start_worker()
            for _ in range(self.initial_workers)
        ))
        for handle in handles:
            self._admit_worker(handle)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._health_task = asyncio.ensure_future(self._health_loop())
        if self.http_port is not None:
            from repro.obs import ClusterGateway

            self._gateway = ClusterGateway(
                self, host=self.http_host, port=self.http_port
            )
            await self._gateway.start()
            self.http_port = self._gateway.port
        self.refresh_cluster_metrics()
        self._emit(
            "cluster_start", host=self.host, port=self.port,
            workers=list(self.shard_map.workers),
            num_shards=self.shard_map.num_shards,
            http_port=self.http_port,
        )

    def _admit_worker(self, handle: WorkerHandle) -> None:
        self.shard_map.add_worker(handle.worker_id)
        self._control[handle.worker_id] = _WorkerChannel(
            handle.worker_id, handle.uds_path, self.retry_window
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    def begin_drain(self, grace: float = 0.5) -> None:
        """Flip to draining now; full shutdown after ``grace`` seconds
        (same contract as ``PhaseService.begin_drain``)."""
        if self._draining:
            return
        self._draining = True

        async def _later() -> None:
            await asyncio.sleep(grace)
            await self.shutdown(drain=True)

        self._drain_task = asyncio.ensure_future(_later())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the cluster: drain client connections, then stop the
        workers gracefully (each drains and checkpoints)."""
        if self._server is None:
            return
        self._draining = True
        drain_task = self._drain_task
        if drain_task is not None and drain_task is not asyncio.current_task():
            self._drain_task = None
            drain_task.cancel()
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None

        connections = list(self._connections.values())
        if drain:
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
        for connection in connections:
            for task in connection.tasks:
                task.cancel()
            await self._close_client(connection)
        self._connections.clear()

        await self.supervisor.stop_all(timeout=self.drain_timeout)
        for channel in self._control.values():
            await channel.close()
        self._control.clear()
        self._emit(
            "cluster_stop", drained=drain,
            requests=self.requests_served,
            migrations=self.migrations_completed,
        )
        if self._gateway is not None:
            gateway, self._gateway = self._gateway, None
            await gateway.shutdown()
        if self._stopped is not None:
            self._stopped.set()

    async def _health_loop(self) -> None:
        """Detect crashed workers and restart them on the same socket
        and data dir; channels ride the restart via their retry window."""
        while True:
            await asyncio.sleep(0.25)
            for handle in self.supervisor.crashed_workers():
                worker_id = handle.worker_id
                if worker_id in self._restarting:
                    continue
                self._restarting.add(worker_id)
                asyncio.ensure_future(self._restart_worker(worker_id))

    async def _restart_worker(self, worker_id: str) -> None:
        try:
            await self.supervisor.restart_worker(worker_id)
        except ClusterError as error:
            # Restart budget exhausted (or the worker was stopped
            # mid-crash): stop routing *new* sessions to it. Existing
            # table entries fail loudly per-request.
            if worker_id in self.shard_map and len(self.shard_map) > 1:
                self.shard_map.remove_worker(worker_id)
            self._emit(
                "cluster_worker_abandoned", worker=worker_id,
                error=str(error),
            )
        finally:
            self._restarting.discard(worker_id)
            self.refresh_cluster_metrics()

    # -- routing ---------------------------------------------------------------

    def route(self, session: str) -> str:
        """The worker that owns ``session`` — table entry when live,
        rendezvous owner otherwise."""
        owner = self._sessions.get(session)
        if owner is None:
            owner = self.shard_map.owner_of(session)
        return owner

    def control_channel(self, worker_id: str) -> _WorkerChannel:
        channel = self._control.get(worker_id)
        if channel is None:
            raise ClusterError(f"no such worker: {worker_id!r}")
        return channel

    async def _gate_wait(self, session: str) -> None:
        """Block while ``session`` is being migrated."""
        while True:
            gate = self._gates.get(session)
            if gate is None:
                return
            await gate.wait()

    def _client_channel(
        self, connection: _ClientConnection, worker_id: str
    ) -> _WorkerChannel:
        channel = connection.channels.get(worker_id)
        if channel is None:
            handle = self.supervisor.workers.get(worker_id)
            if handle is None:
                raise ClusterError(f"no such worker: {worker_id!r}")
            channel = _WorkerChannel(
                worker_id, handle.uds_path, self.retry_window
            )
            connection.channels[worker_id] = channel
        return channel

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._draining or len(self._connections) >= self.max_connections:
            self.connections_refused += 1
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            return
        connection = _ClientConnection(reader, writer, self.queue_size)
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
                await self._close_client(connection)

    async def _close_client(self, connection: _ClientConnection) -> None:
        # May race its counterpart in shutdown(): detach the channel
        # dict before the first await so both runs see a stable list.
        channels, connection.channels = list(
            connection.channels.values()
        ), {}
        for channel in channels:
            await channel.close()
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self, connection: _ClientConnection) -> None:
        """Parse just enough of each line to route it; queue the raw
        bytes. The bounded queue backpressures exactly like the
        single-process service."""
        try:
            while True:
                try:
                    line = await connection.reader.readline()
                except (asyncio.LimitOverrunError, ValueError) as error:
                    await connection.queue.put(
                        ("bad", None, ProtocolError(
                            f"request line exceeds the "
                            f"{protocol.MAX_LINE_BYTES}-byte limit: "
                            f"{error}"
                        ))
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                item = self._classify_line(line)
                if (
                    self._draining
                    and item[0] in ("open", "fwd")
                ):
                    request_id = item[2] if item[0] == "fwd" else item[1].id
                    await connection.queue.put(("bad", request_id,
                                                ServiceUnavailableError(
                        "service is draining; no new work is accepted"
                    )))
                    continue
                await connection.queue.put(item)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            try:
                connection.queue.put_nowait(None)
            except asyncio.QueueFull:
                pass

    def _classify_line(self, line: bytes) -> tuple:
        """Turn one raw request line into a queue item:
        ``("fwd", raw, id, op, session)`` for the proxy fast path,
        ``("open", request)``, ``("local", request)`` for ops the
        dispatcher answers itself, or ``("bad", id, error)``.
        """
        match = _FAST_ROUTE.match(line)
        if match is not None:
            op = match.group(1).decode("ascii")
            request_id = int(match.group(2))
            session = match.group(3).decode("ascii")
            return ("fwd", line, request_id, op, session)
        try:
            request = protocol.parse_request(line)
        except ProtocolError as error:
            from repro.service.server import _best_effort_id

            return ("bad", _best_effort_id(line), error)
        if isinstance(request, (
            protocol.PingRequest,
            protocol.StatsRequest,
            protocol.ClusterRequest,
        )):
            return ("local", request)
        if isinstance(request, protocol.OpenRequest):
            return ("open", request)
        # A routable op the regex could not take (e.g. an escaped
        # session name): re-encode canonically and forward that.
        raw = protocol.encode(protocol.request_payload(request))
        return ("fwd", raw, request.id, request.op, request.session)

    async def _work_loop(self, connection: _ClientConnection) -> None:
        while True:
            item = await connection.queue.get()
            if item is None:
                break
            self.requests_served += 1
            if self._telemetry is not None:
                self._m_requests.inc()
            request_id: Optional[int] = None
            try:
                kind = item[0]
                if kind == "bad":
                    _, request_id, error = item
                    raise error
                if kind == "local":
                    request = item[1]
                    request_id = request.id
                    result = await self._execute_local(request)
                    payloads = [
                        protocol.encode(
                            protocol.ok_response(request.id, result)
                        )
                    ]
                elif kind == "open":
                    request = item[1]
                    request_id = request.id
                    payloads = await self._handle_open(connection, request)
                else:
                    _, raw, request_id, op, session = item
                    payloads = await self._forward(
                        connection, raw, request_id, op, session
                    )
            except ReproError as error:
                self.errors_returned += 1
                if self._telemetry is not None:
                    self._m_errors.inc()
                payloads = [protocol.encode(protocol.error_response(
                    request_id if request_id is not None else -1,
                    protocol.error_code_for(error),
                    str(error),
                ))]
            except Exception as error:  # pragma: no cover - defensive
                self.errors_returned += 1
                if self._telemetry is not None:
                    self._m_errors.inc()
                payloads = [protocol.encode(protocol.error_response(
                    request_id if request_id is not None else -1,
                    "internal",
                    f"{type(error).__name__}: {error}",
                ))]
            try:
                for payload in payloads:
                    connection.writer.write(payload)
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                break

    # -- request execution -----------------------------------------------------

    async def _forward(
        self,
        connection: _ClientConnection,
        raw: bytes,
        request_id: int,
        op: str,
        session: str,
    ) -> List[bytes]:
        await self._gate_wait(session)
        worker_id = self.route(session)
        channel = self._client_channel(connection, worker_id)
        resendable = op in ("predict", "snapshot")
        self._inflight[session] = self._inflight.get(session, 0) + 1
        try:
            pushes, response = await channel.exchange(raw, resendable)
        finally:
            remaining = self._inflight.get(session, 1) - 1
            if remaining:
                self._inflight[session] = remaining
            else:
                self._inflight.pop(session, None)
        if op == "close" and response.startswith(b'{"id":') and (
            b'"ok":true' in response
        ):
            self._sessions.pop(session, None)
        elif _NOT_FOUND_MARKER in response:
            # The worker no longer knows the session (evicted without
            # persistence, or a RAM-only worker restarted): drop the
            # stale route so a future open hashes fresh.
            self._sessions.pop(session, None)
        return pushes + [response]

    async def _handle_open(
        self, connection: _ClientConnection, request: protocol.OpenRequest
    ) -> List[bytes]:
        session = request.session
        if session is None:
            # Anonymous opens get a cluster-unique name here: name
            # allocation must be global, not per-worker, or two workers
            # could hand out the same name.
            while True:
                session = f"session-{next(self._names)}"
                if session not in self._sessions:
                    break
            request = protocol.OpenRequest(
                id=request.id,
                session=session,
                config=request.config,
                interval_instructions=request.interval_instructions,
                snapshot=request.snapshot,
            )
        await self._gate_wait(session)
        worker_id = self.route(session)
        channel = self._client_channel(connection, worker_id)
        raw = protocol.encode(protocol.request_payload(request))
        self._inflight[session] = self._inflight.get(session, 0) + 1
        try:
            pushes, response = await channel.exchange(raw, resendable=False)
        finally:
            remaining = self._inflight.get(session, 1) - 1
            if remaining:
                self._inflight[session] = remaining
            else:
                self._inflight.pop(session, None)
        if response.startswith(b'{"id":') and b'"ok":true' in response:
            self._sessions[session] = worker_id
        return pushes + [response]

    async def _execute_local(self, request: protocol.Request) -> dict:
        if isinstance(request, protocol.PingRequest):
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
                "cluster": True,
            }
        if isinstance(request, protocol.StatsRequest):
            return await self.aggregate_stats()
        assert isinstance(request, protocol.ClusterRequest)
        return await self._execute_cluster(request)

    async def _execute_cluster(
        self, request: protocol.ClusterRequest
    ) -> dict:
        action = request.action
        params = request.params
        if action == "status":
            return self.cluster_status()
        if action == "diagnostics":
            return await self.aggregate_diagnostics()
        if action == "migrate":
            session = params.get("session")
            if not isinstance(session, str) or not session:
                raise ClusterError(
                    "migrate requires params.session (a session name)"
                )
            target = params.get("worker")
            if target is not None and not isinstance(target, str):
                raise ClusterError("migrate params.worker must be a string")
            return await self.migrator.migrate(session, target)
        if action == "drain-worker":
            worker = params.get("worker")
            if not isinstance(worker, str) or not worker:
                raise ClusterError(
                    "drain-worker requires params.worker (a worker id)"
                )
            return await self.migrator.drain_worker(worker)
        if action == "rebalance":
            return await self.migrator.rebalance()
        if action == "grow":
            count = params.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool) or (
                count <= 0
            ):
                raise ClusterError("grow params.count must be a positive int")
            return await self.grow(count)
        raise ClusterError(
            f"unknown cluster action {action!r}; expected one of "
            f"status, diagnostics, migrate, drain-worker, rebalance, grow"
        )

    # -- cluster control plane -------------------------------------------------

    async def grow(self, count: int = 1) -> dict:
        """Add ``count`` fresh workers to the fleet and shard map.

        New shards route to them immediately; existing sessions stay
        put until :meth:`SessionMigrator.rebalance` moves them.
        """
        if len(self.shard_map) + count > self.shard_map.num_shards:
            raise ClusterError(
                f"cannot grow to {len(self.shard_map) + count} workers: "
                f"only {self.shard_map.num_shards} shards exist"
            )
        added = []
        for _ in range(count):
            handle = await self.supervisor.start_worker()
            self._admit_worker(handle)
            added.append(handle.worker_id)
        self.refresh_cluster_metrics()
        self._emit("cluster_grown", added=added,
                   workers=list(self.shard_map.workers))
        return {
            "added": added,
            "workers": list(self.shard_map.workers),
        }

    def cluster_status(self) -> dict:
        """Topology without touching the workers: supervisor states,
        shard ownership, session placement, migration counters."""
        sessions_per_worker: Dict[str, int] = {}
        for owner in self._sessions.values():
            sessions_per_worker[owner] = (
                sessions_per_worker.get(owner, 0) + 1
            )
        workers = {}
        occupancy = (
            self.shard_map.occupancy() if len(self.shard_map) else {}
        )
        for worker_id, handle in sorted(self.supervisor.workers.items()):
            entry = handle.to_dict()
            entry["shards"] = occupancy.get(worker_id, 0)
            entry["sessions"] = sessions_per_worker.get(worker_id, 0)
            entry["in_map"] = worker_id in self.shard_map
            workers[worker_id] = entry
        return {
            "workers": workers,
            "shard_map": self.shard_map.to_dict(),
            "sessions": len(self._sessions),
            "migrations": {
                "completed": self.migrations_completed,
                "failed": self.migrations_failed,
                "in_progress": len(self._gates),
            },
            "draining": self._draining,
            "uptime_seconds": self.touch_uptime(),
        }

    async def _gather_from_workers(
        self, request_factory
    ) -> Dict[str, dict]:
        """Run one control request against every up worker; skips
        workers that are down or unreachable (their absence is visible
        in the status section)."""
        results: Dict[str, dict] = {}
        for worker_id in self.shard_map.workers:
            handle = self.supervisor.workers.get(worker_id)
            if handle is None or handle.state != UP:
                continue
            channel = self.control_channel(worker_id)
            try:
                results[worker_id] = await channel.request(
                    request_factory(channel.next_id()), resendable=True
                )
            except (ClusterError, ReproError):
                continue
        return results

    async def aggregate_stats(self) -> dict:
        """Cluster-wide ``stats``: worker counters summed, same
        top-level keys a single service reports, plus ``cluster`` and
        ``per_worker`` sections."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.StatsRequest(id=rid)
        )
        totals: Dict[str, object] = {}
        sum_keys = (
            "live", "opened", "closed", "evicted", "expired",
            "evicted_saved", "evicted_lost", "evicted_recycled",
            "hydrated", "adopted", "requests", "errors", "connections",
        )
        for key in sum_keys:
            totals[key] = sum(
                stats.get(key, 0) or 0 for stats in per_worker.values()
            )
        prediction = {
            key: sum(
                (stats.get("predictions") or {}).get(key, 0) or 0
                for stats in per_worker.values()
            )
            for key in (
                "scored", "correct", "confident_scored",
                "confident_correct",
            )
        }
        scored = prediction["scored"]
        confident = prediction["confident_scored"]
        prediction["accuracy"] = (
            prediction["correct"] / scored if scored else None
        )
        prediction["confident_accuracy"] = (
            prediction["confident_correct"] / confident
            if confident else None
        )
        totals["predictions"] = prediction
        totals["uptime_seconds"] = self.touch_uptime()
        totals["cluster"] = {
            "workers": len(self.shard_map),
            "dispatcher_requests": self.requests_served,
            "dispatcher_errors": self.errors_returned,
            "sessions_routed": len(self._sessions),
            "migrations_completed": self.migrations_completed,
        }
        totals["per_worker"] = per_worker
        return totals

    async def aggregate_diagnostics(self) -> dict:
        """Cluster-wide diagnostics in the same shape a single
        service's ``diagnostics()`` produces (so the dashboard renders
        unchanged), plus a ``cluster`` section for the worker panel."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.ClusterRequest(
                id=rid, action="diagnostics"
            )
        )
        occupancy: Dict[str, int] = {}
        registry: Dict[str, object] = {}
        prediction = {
            "scored": 0, "correct": 0,
            "confident_scored": 0, "confident_correct": 0,
        }
        queue_depth = self.ingest_queue_depth()
        requests = errors = 0
        for diag in per_worker.values():
            for phase, count in (diag.get("phase_occupancy") or {}).items():
                occupancy[phase] = occupancy.get(phase, 0) + count
            for key, value in (diag.get("registry") or {}).items():
                if isinstance(value, (int, float)):
                    registry[key] = (registry.get(key, 0) or 0) + value
            for key in prediction:
                prediction[key] += (
                    (diag.get("prediction") or {}).get(key, 0) or 0
                )
            queue_depth += diag.get("ingest_queue_depth", 0) or 0
            requests += diag.get("requests", 0) or 0
            errors += diag.get("errors", 0) or 0
        scored = prediction["scored"]
        confident = prediction["confident_scored"]
        prediction_out = dict(prediction)
        prediction_out["accuracy"] = (
            prediction["correct"] / scored if scored else None
        )
        prediction_out["confident_accuracy"] = (
            prediction["confident_correct"] / confident
            if confident else None
        )
        status = self.cluster_status()
        status["per_worker"] = {
            worker_id: {
                "requests": diag.get("requests"),
                "errors": diag.get("errors"),
                "ingest_queue_depth": diag.get("ingest_queue_depth"),
                "registry_live": (diag.get("registry") or {}).get("live"),
            }
            for worker_id, diag in per_worker.items()
        }
        return {
            "uptime_seconds": self.touch_uptime(),
            "draining": self._draining,
            "requests": requests,
            "errors": errors,
            "connections": len(self._connections),
            "connections_refused": self.connections_refused,
            "ingest_queue_depth": queue_depth,
            "phase_occupancy": occupancy,
            "prediction": prediction_out,
            "registry": registry,
            "persistence": None,
            "cluster": status,
        }

    def _emit(self, event: str, **fields: object) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(event, **fields)


# -- thread hosting ------------------------------------------------------------


class ClusterHandle:
    """A running cluster on a background thread (tests, benchmarks,
    demos) — the cluster counterpart of
    :class:`~repro.service.server.ServiceHandle`."""

    def __init__(
        self, dispatcher: ClusterDispatcher, drain: bool = True
    ) -> None:
        self.dispatcher = dispatcher
        self.drain = drain
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.dispatcher.port

    @property
    def host(self) -> str:
        return self.dispatcher.host

    def run_control(self, coroutine, timeout: float = 60.0):
        """Run a dispatcher coroutine (migrate, drain_worker, …) on the
        cluster's loop from the calling thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def start(self, timeout: float = 120.0) -> "ClusterHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceUnavailableError(
                "cluster failed to start within the timeout"
            )
        if self._error is not None:
            raise ServiceUnavailableError(
                f"cluster failed to start: {self._error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.dispatcher.start())
        except BaseException as error:
            self._error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_until_complete(self.dispatcher.serve_forever())
        finally:
            loop.close()

    def stop(
        self, drain: Optional[bool] = None, timeout: float = 60.0
    ) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        should_drain = self.drain if drain is None else drain
        future = asyncio.run_coroutine_threadsafe(
            self.dispatcher.shutdown(drain=should_drain), loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        thread.join(timeout)

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_cluster_in_thread(**kwargs: object) -> ClusterHandle:
    """Build a :class:`ClusterDispatcher` and run it on a daemon
    thread; returns a started handle (``handle.port`` is live and all
    workers are ready)."""
    dispatcher = ClusterDispatcher(**kwargs)  # type: ignore[arg-type]
    return ClusterHandle(dispatcher).start()
