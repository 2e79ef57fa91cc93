"""A streaming phase-classification service (stdlib + numpy only).

Hosts many concurrent :class:`~repro.core.online.PhaseTracker` sessions
behind a newline-delimited-JSON TCP protocol:

- :mod:`repro.service.protocol` — typed request/response/push messages
  and the wire encoding;
- :mod:`repro.service.session` — the session record and registry (LRU
  capping, idle-TTL expiry, evict-to-disk and hydrate hooks);
- :mod:`repro.service.snapshot` — full tracker serialize/restore, so
  sessions survive restarts and migrate between hosts;
- :mod:`repro.service.server` — the asyncio TCP server with bounded
  ingest queues (backpressure), admission control, and graceful drain;
- :mod:`repro.service.client` — the synchronous SDK with typed error
  mapping and bounded retry for read-only requests.

Start a server from the CLI (``repro-phases serve --port 9137``), from
code (:func:`start_in_thread`), or embed :class:`PhaseService` in an
existing asyncio application.
"""

from repro.service.client import PhaseServiceClient
from repro.service.protocol import (
    ERROR_CODE_EXCEPTIONS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    IntervalPush,
    Response,
)
from repro.service.server import PhaseService, ServiceHandle, start_in_thread
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    check_schema_version,
    restore_tracker,
    snapshot_tracker,
)

__all__ = [
    "ERROR_CODE_EXCEPTIONS",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "SNAPSHOT_VERSION",
    "IntervalPush",
    "PhaseService",
    "PhaseServiceClient",
    "Response",
    "ServiceHandle",
    "Session",
    "SessionRegistry",
    "check_schema_version",
    "restore_tracker",
    "snapshot_tracker",
    "start_in_thread",
]
