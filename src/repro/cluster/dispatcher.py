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
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import (
    ClusterError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.service.server import (
    SERVER_REQUESTS,
    NdjsonServer,
    ServiceHandle,
    _best_effort_id,
    _Connection,
    prediction_scoreboard,
)
from repro.cluster.migration import SessionMigrator
from repro.cluster.routing import DEFAULT_SHARDS, ShardMap
from repro.cluster.supervisor import ClusterSupervisor, UP, WorkerHandle

#: Fast-path router: matches the canonical request head
#: (:data:`~repro.service.protocol.REQUEST_HEAD`) of a session op.
#: Anything else falls back to a full parse; the fast path is an
#: optimization, never a requirement.
_FAST_ROUTE = re.compile(
    protocol.REQUEST_HEAD % b"observe|predict|snapshot|close" + rb"[,}]"
)

#: Worker lines that are interval pushes (vs responses). The server
#: encodes with ``separators=(",", ":")`` and dict insertion order, so
#: the prefix is stable.
_PUSH_PREFIX = b'{"push"'

_NOT_FOUND_MARKER = b'"code":"session_not_found"'

#: Seconds a worker channel keeps reconnecting and resending before a
#: request fails: long enough to ride out a supervised worker restart.
RETRY_WINDOW = 20.0


class _WorkerChannel:
    """One Unix-socket connection from the dispatcher to a worker.

    Used strictly sequentially (guarded by a lock): send one line, read
    pushes until the response line. Reconnects transparently inside a
    bounded retry window, which is what rides out a supervised worker
    restart. ``resendable`` exchanges may be re-sent after a mid-read
    disconnect; others fail with :class:`ClusterError` because the
    worker may already have executed them.
    """

    def __init__(self, worker_id: str, uds_path: str) -> None:
        self.worker_id = worker_id
        self.uds_path = uds_path
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
            deadline = time.monotonic() + RETRY_WINDOW
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


class _ClientConnection(_Connection):
    """A public client connection plus its channels to workers."""

    __slots__ = ("channels",)

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ) -> None:
        super().__init__(reader, writer, queue_size)
        self.channels: Dict[str, _WorkerChannel] = {}


class ClusterDispatcher(NdjsonServer):
    """The public endpoint of a sharded multi-process phase service.

    Parameters mirror :class:`~repro.service.server.PhaseService` where
    they mean the same thing, and the connection lifecycle (admission,
    drain, signals) is the same :class:`NdjsonServer` code; worker-fleet
    knobs (``workers``, ``runtime_dir``, ``data_root``, per-worker
    capacity) are new. ``data_root=None`` runs a RAM-only cluster; with
    a data root each worker persists to ``<data_root>/<worker_id>`` and
    recovers it on restart.

    This is the one place cluster options become a worker's
    :class:`~repro.service.server.PhaseService` arguments:
    ``worker_max_sessions``, ``idle_ttl``, ``queue_size``, ``sync``,
    ``checkpoint_interval``, and ``max_connections`` plus 8: headroom
    for the dispatcher's own control and readiness connections beside
    one channel per client connection.
    """

    _connection_type = _ClientConnection

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        runtime_dir: str,
        data_root: Optional[str] = None,
        queue_size: int = 32,
        max_connections: int = 64,
        telemetry=None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
        worker_max_sessions: int = 1024,
        sync: str = "batch",
        checkpoint_interval: float = 30.0,
        idle_ttl: Optional[float] = None,
    ) -> None:
        super().__init__(
            host, port,
            max_connections=max_connections,
            queue_size=queue_size,
            telemetry=telemetry,
            http_host=http_host,
            http_port=http_port,
        )
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers}"
            )
        if workers > DEFAULT_SHARDS:
            raise ConfigurationError(
                f"workers ({workers}) cannot exceed the {DEFAULT_SHARDS} "
                f"shards; extra workers would own no shards"
            )
        telemetry = self.telemetry
        self.initial_workers = workers
        self.supervisor = ClusterSupervisor(
            runtime_dir,
            data_root=data_root,
            service={
                "max_sessions": worker_max_sessions,
                "idle_ttl": idle_ttl,
                "max_connections": max_connections + 8,
                "queue_size": queue_size,
                "checkpoint_interval": checkpoint_interval,
                "sync": sync,
            },
            telemetry=telemetry,
        )
        self.shard_map = ShardMap()
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
        self._names = itertools.count(1)
        self.migrations_completed = 0
        self.migrations_failed = 0
        telemetry.gauge(
            "repro_cluster_workers", "Live workers in the shard map",
            read=lambda: len(self.shard_map),
        )
        telemetry.counter(
            "repro_cluster_migrations_total",
            "Completed live session migrations",
            read=lambda: self.migrations_completed,
        )
        telemetry.counter(
            "repro_cluster_migrations_failed_total",
            "Session migrations that failed and rolled back",
            read=lambda: self.migrations_failed,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the workers, then bind: a client never meets an empty
        shard map."""
        if self._server is not None:
            raise ServiceUnavailableError("dispatcher is already started")
        handles = await asyncio.gather(*(
            self.supervisor.start_worker()
            for _ in range(self.initial_workers)
        ))
        for handle in handles:
            self._admit_worker(handle)
        await super().start()
        self._tasks.append(asyncio.ensure_future(self._health_loop()))
        self.telemetry.emit(
            "cluster_start", host=self.host, port=self.port,
            workers=list(self.shard_map.workers),
            num_shards=self.shard_map.num_shards,
            http_port=self.http_port,
        )

    def _make_gateway(self):
        from repro.obs import ClusterGateway

        return ClusterGateway(self, host=self.http_host, port=self.http_port)

    def _admit_worker(self, handle: WorkerHandle) -> None:
        worker_id = handle.worker_id
        self.shard_map.add_worker(worker_id)
        self._control[worker_id] = _WorkerChannel(worker_id, handle.uds_path)
        # The handle survives restarts, and a stopped worker keeps its
        # series (up 0), as it keeps its entry in ``cluster status``.
        for name, help, read in (
            ("repro_cluster_worker_up", "1 when the worker process is up",
             lambda: handle.state == UP),
            ("repro_cluster_worker_sessions",
             "Sessions routed to the worker",
             lambda: list(self._sessions.values()).count(worker_id)),
            ("repro_cluster_worker_shards", "Shards the worker owns",
             lambda: len(self.shard_map.shards_of(worker_id))),
            ("repro_cluster_worker_restarts_total",
             "Times the supervisor restarted the worker",
             lambda: handle.restarts),
        ):
            self.telemetry.gauge(
                name, help, labels={"worker": worker_id}, read=read
            )

    async def _stop_backend(self) -> None:
        """Stop the workers gracefully (each drains and checkpoints)."""
        await self.supervisor.stop_all()
        for channel in self._control.values():
            await channel.close()
        self._control.clear()
        self.telemetry.emit(
            "cluster_stop", requests=self.requests_served,
            migrations=self.migrations_completed,
        )

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
            self.telemetry.emit(
                "cluster_worker_abandoned", worker=worker_id,
                error=str(error),
            )
        finally:
            self._restarting.discard(worker_id)

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
            channel = _WorkerChannel(worker_id, handle.uds_path)
            connection.channels[worker_id] = channel
        return channel

    # -- connection handling ---------------------------------------------------

    async def _close_connection(self, connection: _ClientConnection) -> None:
        # May race its counterpart in shutdown(): detach the channel
        # dict before the first await so both runs see a stable list.
        channels, connection.channels = list(
            connection.channels.values()
        ), {}
        for channel in channels:
            await channel.close()
        await super()._close_connection(connection)

    def _parse_line(self, line: bytes) -> tuple:
        """Parse just enough of one raw request line to route it; the
        queue item is ``("fwd", id, raw, op, session)`` for the proxy
        fast path, ``("open", id, request)``, ``("local", id, request)``
        for ops the dispatcher answers itself, or ``("bad", id, error)``.
        """
        match = _FAST_ROUTE.match(line)
        if match is not None:
            op = match.group(1).decode("ascii")
            request_id = int(match.group(2))
            session = match.group(3).decode("ascii")
            return ("fwd", request_id, line, op, session)
        try:
            request = protocol.parse_request(line)
        except ProtocolError as error:
            return ("bad", _best_effort_id(line), error)
        if isinstance(request, SERVER_REQUESTS):
            return ("local", request.id, request)
        if isinstance(request, protocol.OpenRequest):
            return ("open", request.id, request)
        # A routable op the regex could not take (e.g. an escaped
        # session name): re-encode canonically and forward that.
        raw = protocol.encode(protocol.request_payload(request))
        return ("fwd", request.id, raw, request.op, request.session)

    def _work_id(self, item: tuple) -> Optional[int]:
        return item[1] if item[0] in ("fwd", "open") else None

    async def _work_loop(self, connection: _ClientConnection) -> None:
        """Execute queued items in order; the only writer on this
        socket."""
        while True:
            item = await connection.queue.get()
            if item is None:
                break
            self.requests_served += 1
            kind, request_id = item[0], item[1]
            try:
                if kind == "bad":
                    raise item[2]
                if kind == "local":
                    result = await self._execute_local(item[2])
                    payloads = [protocol.encode(
                        protocol.ok_response(request_id, result)
                    )]
                elif kind == "open":
                    payloads = await self._handle_open(connection, item[2])
                else:
                    payloads = await self._forward(connection, *item[2:])
            except Exception as error:
                self.errors_returned += 1
                payloads = [protocol.encode(protocol.error_response(
                    request_id if request_id is not None else -1,
                    protocol.error_code_for(error),
                    str(error) if isinstance(error, ReproError)
                    else f"{type(error).__name__}: {error}",
                ))]
            try:
                for payload in payloads:
                    connection.writer.write(payload)
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                break

    # -- request execution -----------------------------------------------------

    async def _exchange(
        self,
        connection: _ClientConnection,
        session: str,
        raw: bytes,
        resendable: bool,
    ) -> Tuple[str, List[bytes]]:
        """Send ``raw`` to the worker that owns ``session``, counting it
        in flight (a migration waits for zero); returns that worker's id
        and the lines it answered, pushes first."""
        await self._gate_wait(session)
        worker_id = self.route(session)
        channel = self._client_channel(connection, worker_id)
        self._inflight[session] = self._inflight.get(session, 0) + 1
        try:
            pushes, response = await channel.exchange(raw, resendable)
        finally:
            remaining = self._inflight.get(session, 1) - 1
            if remaining:
                self._inflight[session] = remaining
            else:
                self._inflight.pop(session, None)
        return worker_id, pushes + [response]

    async def _forward(
        self,
        connection: _ClientConnection,
        raw: bytes,
        op: str,
        session: str,
    ) -> List[bytes]:
        _, lines = await self._exchange(
            connection, session, raw, resendable=op in ("predict", "snapshot")
        )
        response = lines[-1]
        if op == "close" and response.startswith(b'{"id":') and (
            b'"ok":true' in response
        ):
            self._sessions.pop(session, None)
        elif _NOT_FOUND_MARKER in response:
            # The worker no longer knows the session (evicted without
            # persistence, or a RAM-only worker restarted): drop the
            # stale route so a future open hashes fresh.
            self._sessions.pop(session, None)
        return lines

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
        raw = protocol.encode(protocol.request_payload(request))
        worker_id, lines = await self._exchange(
            connection, session, raw, resendable=False
        )
        response = lines[-1]
        if response.startswith(b'{"id":') and b'"ok":true' in response:
            self._sessions[session] = worker_id
        return lines

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
        self.telemetry.emit("cluster_grown", added=added,
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
            "uptime_seconds": self.uptime_seconds,
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
        """Cluster-wide ``stats``: the workers' own documents summed
        (:func:`sum_documents`), so the keys are those one service
        reports, plus ``cluster`` and ``per_worker`` sections."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.StatsRequest(id=rid)
        )
        totals = sum_documents(per_worker.values())
        totals["predictions"] = prediction_scoreboard(*(
            stats.get("predictions") for stats in per_worker.values()
        ))
        totals["uptime_seconds"] = self.uptime_seconds
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
        """Cluster-wide diagnostics: the workers' own documents summed
        (:func:`sum_documents`), in the shape one service's
        ``diagnostics()`` has (so the dashboard renders unchanged),
        plus a ``cluster`` section for the worker panel. Uptime,
        draining and client connections are the dispatcher's own, and
        its queue depth adds to the workers'."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.ClusterRequest(
                id=rid, action="diagnostics"
            )
        )
        diagnostics = sum_documents(per_worker.values())
        diagnostics.update(
            uptime_seconds=self.uptime_seconds,
            draining=self._draining,
            connections=len(self._connections),
            connections_refused=self.connections_refused,
            ingest_queue_depth=(
                self.ingest_queue_depth()
                + diagnostics.get("ingest_queue_depth", 0)
            ),
            prediction=prediction_scoreboard(*(
                diag.get("prediction") for diag in per_worker.values()
            )),
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
        diagnostics["cluster"] = status
        return diagnostics


def sum_documents(documents: Iterable[Mapping]) -> dict:
    """The field-wise sum of JSON documents of one shape (the workers'
    ``stats`` or ``diagnostics``): numbers add, nested objects sum the
    same way, and any other value (a flag, ``null``) is the first
    document's. A field some documents lack counts as absent there."""
    total: dict = {}
    for document in documents:
        for key, value in document.items():
            if key not in total:
                total[key] = (
                    sum_documents([value]) if isinstance(value, dict)
                    else value
                )
            elif isinstance(value, dict):
                if isinstance(total[key], dict):
                    total[key] = sum_documents([total[key], value])
            elif _is_number(value) and _is_number(total[key]):
                total[key] += value
    return total


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def start_cluster_in_thread(**kwargs: object) -> ServiceHandle:
    """Build a :class:`ClusterDispatcher` and run it on a daemon
    thread; returns a started
    :class:`~repro.service.server.ServiceHandle` (``handle.port`` is
    live, all workers are ready, ``handle.service`` is the dispatcher).
    """
    dispatcher = ClusterDispatcher(**kwargs)  # type: ignore[arg-type]
    return ServiceHandle(dispatcher).start()
