"""Synchronous client SDK for the phase-classification service.

:class:`PhaseServiceClient` speaks the NDJSON protocol over one TCP
connection. Interval pushes that arrive while waiting for a response
are buffered and returned by :meth:`observe` (or drained explicitly via
:meth:`drain_reports`), so callers see a simple request/response API
while the server streams boundaries as they happen.

Failure semantics — the part worth reading twice:

- **Application errors** (the server answered, refusing the request)
  are raised as the typed exceptions of :mod:`repro.errors` —
  :class:`~repro.errors.SessionNotFoundError`,
  :class:`~repro.errors.ServiceOverloadedError`, and friends — exactly
  as mapped by the wire error code. The connection stays usable.
- **Transport failures** (connect refused, socket closed mid-request,
  timeout) raise :class:`~repro.errors.ServiceTransportError`: the
  request's fate is unknown. The client reconnects lazily on the next
  call. Requests that are *safe to repeat* (ping, stats, predict,
  snapshot — they mutate nothing) are retried automatically with
  exponential backoff; mutating requests (open, observe, close) are
  never retried, because replaying an observe would double-classify
  its intervals.
- **Connection resets** (``ECONNRESET``/``EPIPE``/EOF mid-read) on a
  *read-only* request additionally get one transparent, immediate
  reconnect attempt on top of the configured ``retries`` — a cluster
  dispatcher failing over or a supervised worker restarting looks like
  exactly one reset, and a well-behaved client should ride through it
  without surfacing :class:`ServiceTransportError`. Timeouts do NOT
  qualify: a slow server is not a failover.
"""

from __future__ import annotations

import errno
import socket
import time
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, ServiceTransportError
from repro.service import protocol

#: ``errno`` values that mean the peer went away abruptly — the
#: signature of a server restart or failover, as opposed to a timeout
#: (slow server, request possibly still executing).
_RESET_ERRNOS = frozenset(
    {errno.ECONNRESET, errno.EPIPE, errno.ECONNABORTED, errno.ESHUTDOWN}
)


def _transport_error(message: str, *, reset: bool) -> ServiceTransportError:
    error = ServiceTransportError(message)
    error.connection_reset = reset
    return error


class PhaseServiceClient:
    """A blocking NDJSON client for :class:`~repro.service.server.PhaseService`.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Per-socket-operation timeout in seconds (connect, read, write).
    retries:
        How many times a *read-only* request is retried after a
        transport failure before :class:`ServiceTransportError`
        propagates. Mutating requests never retry.
    backoff:
        Initial retry delay in seconds; doubles per attempt.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        if timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout}"
            )
        if retries < 0:
            raise ConfigurationError(
                f"retries must be non-negative, got {retries}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0
        self._pushes: List[protocol.IntervalPush] = []

    # -- connection management -------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "PhaseServiceClient":
        """Open the connection now (otherwise it opens lazily)."""
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                # A refused/unreachable connect is not a *reset*: no
                # request was ever in flight, so it earns no bonus.
                raise _transport_error(
                    f"cannot connect to {self.host}:{self.port}: "
                    f"{error}",
                    reset=False,
                ) from None
            self._sock = sock
            self._reader = sock.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection; buffered interval reports survive."""
        reader, self._reader = self._reader, None
        sock, self._sock = self._sock, None
        for closable in (reader, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def _disconnect(self) -> None:
        self.close()

    def __enter__(self) -> "PhaseServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the request engine ----------------------------------------------------

    def _request_once(self, payload: dict) -> protocol.Response:
        self.connect()
        assert self._sock is not None and self._reader is not None
        data = protocol.encode(payload)
        try:
            self._sock.sendall(data)
            while True:
                line = self._reader.readline()
                if not line:
                    raise _transport_error(
                        "connection closed while awaiting a response "
                        "(the request's fate is unknown)",
                        reset=True,
                    )
                message = protocol.parse_server_message(line)
                if isinstance(message, protocol.IntervalPush):
                    self._pushes.append(message)
                    continue
                if message.id != payload["id"]:
                    # A response to a request this client never sent —
                    # the stream is out of sync; fail the transport.
                    raise ServiceTransportError(
                        f"response id {message.id} does not match "
                        f"request id {payload['id']}"
                    )
                return message
        except ServiceTransportError:
            self._disconnect()
            raise
        except (OSError, ValueError) as error:
            # socket.timeout is an OSError; ValueError covers reads
            # from a half-closed file object. Only abrupt peer
            # disconnects count as resets — a timeout leaves the
            # request possibly still executing server-side.
            reset = (
                isinstance(error, (ConnectionResetError, BrokenPipeError))
                or getattr(error, "errno", None) in _RESET_ERRNOS
            )
            self._disconnect()
            raise _transport_error(
                f"transport failure talking to {self.host}:{self.port}: "
                f"{error}",
                reset=reset,
            ) from None

    def _request(self, payload: dict, retryable: bool = False) -> dict:
        """Send one request; returns the ``result`` object.

        Application refusals raise their typed exception (see
        :meth:`~repro.service.protocol.Response.raise_for_error`).
        Transport failures raise :class:`ServiceTransportError`, after
        ``self.retries`` reconnect-and-retry attempts when ``retryable``.
        """
        attempts = self.retries + 1 if retryable else 1
        delay = self.backoff
        last_error: Optional[ServiceTransportError] = None
        reset_bonus_spent = False
        attempt = 0
        while attempt < attempts:
            if attempt:
                time.sleep(delay)
                delay *= 2
            attempt += 1
            try:
                response = self._request_once(payload)
            except ServiceTransportError as error:
                last_error = error
                if (
                    retryable
                    and attempt >= attempts
                    and not reset_bonus_spent
                    and getattr(error, "connection_reset", False)
                ):
                    # One transparent, immediate reconnect beyond the
                    # configured retries: a dispatcher failover or a
                    # supervised worker restart presents as exactly one
                    # reset, and read-only ops are safe to repeat. The
                    # bonus is spent whether or not it succeeds, so a
                    # dead server still fails after retries+1 tries.
                    reset_bonus_spent = True
                    attempts += 1
                    delay = max(delay, self.backoff)
                continue
            response.raise_for_error()
            return response.result
        assert last_error is not None
        raise last_error

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- operations ------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe; returns the protocol version and drain flag."""
        return self._request(
            {"op": "ping", "id": self._new_id()}, retryable=True
        )

    def stats(self) -> dict:
        """Service statistics: sessions, requests, connections."""
        return self._request(
            {"op": "stats", "id": self._new_id()}, retryable=True
        )

    def open_session(
        self,
        session: Optional[str] = None,
        config: Optional[dict] = None,
        interval_instructions: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ) -> str:
        """Open (or restore, with ``snapshot``) a session; returns its
        name — server-assigned when ``session`` is omitted."""
        request = protocol.OpenRequest(
            id=self._new_id(),
            session=session,
            config=config,
            interval_instructions=interval_instructions,
            snapshot=snapshot,
        )
        result = self._request(protocol.request_payload(request))
        return result["session"]

    def close_session(self, session: str) -> dict:
        """Close a session; returns its final interval/branch totals."""
        request = protocol.CloseRequest(id=self._new_id(), session=session)
        return self._request(protocol.request_payload(request))

    def observe(
        self,
        session: str,
        pcs: Sequence[int],
        counts: Sequence[int],
        cpi: float = 1.0,
    ) -> List[dict]:
        """Ingest a batch of (pc, instructions) pairs; returns the
        interval reports (``TrackerReport.to_dict()`` payloads) for
        every boundary the batch crossed, plus any reports buffered
        from earlier requests. ``pcs`` and ``counts`` may be any
        integer sequences, numpy arrays included.

        Never retried on transport failure: the server may or may not
        have ingested the batch, and replaying it would double-count.
        """
        request = protocol.ObserveRequest(
            id=self._new_id(),
            session=session,
            pcs=pcs,
            counts=counts,
            cpi=cpi,
        )
        self._request(protocol.request_payload(request))
        return self.drain_reports(session)

    def predict(self, session: str) -> dict:
        """Current phase plus pending next-phase/length predictions."""
        request = protocol.PredictRequest(id=self._new_id(), session=session)
        return self._request(
            protocol.request_payload(request), retryable=True
        )

    def snapshot(self, session: str) -> dict:
        """The session's full tracker state as a snapshot document."""
        request = protocol.SnapshotRequest(
            id=self._new_id(), session=session
        )
        result = self._request(
            protocol.request_payload(request), retryable=True
        )
        return result["snapshot"]

    #: ``cluster`` actions that only read topology/diagnostics state —
    #: safe to repeat after a transport failure. Mutating actions
    #: (migrate, drain-worker, rebalance, grow) are never retried.
    _READONLY_CLUSTER_ACTIONS = frozenset({"status", "diagnostics"})

    def cluster(self, action: str, **params: object) -> dict:
        """Run a cluster control-plane action against a dispatcher
        (``status``, ``migrate``, ``drain-worker``, ``rebalance``,
        ``grow``) or the ``diagnostics`` action against any service.

        Against a plain single-process service, anything other than
        ``diagnostics`` raises :class:`~repro.errors.ClusterError`.
        """
        request = protocol.ClusterRequest(
            id=self._new_id(), action=action, params=dict(params)
        )
        return self._request(
            protocol.request_payload(request),
            retryable=action in self._READONLY_CLUSTER_ACTIONS,
        )

    def drain_reports(self, session: Optional[str] = None) -> List[dict]:
        """Pop buffered interval reports (for ``session``, or all)."""
        if session is None:
            drained = [push.report for push in self._pushes]
            self._pushes = []
            return drained
        drained = [
            push.report
            for push in self._pushes
            if push.session == session
        ]
        self._pushes = [
            push for push in self._pushes if push.session != session
        ]
        return drained
