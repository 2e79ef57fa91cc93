"""The stable public facade of the repro package.

Import from here when embedding phase tracking in another system::

    from repro.api import PhaseTracker, TrackerPool, ClassifierConfig

Everything re-exported below is covered by the compatibility promise:
names, signatures and serialized formats only change with a
deprecation cycle. Modules *not* re-exported here — the classifier
internals (``repro.core.accumulator``, ``repro.core.bitselect``,
``repro.core.signature_table``, ``repro.core.distance``), the service
wire protocol, the persistence journal format, and the harness — are
internal: they may be reorganized between releases without notice (see
``DESIGN.md``, "Public API and internal modules").

The surface, by role:

- :class:`PhaseTracker` — one streaming tracker: branch-by-branch
  ingest, interval-boundary classification, next-phase and length
  prediction.
- :class:`TrackerPool` — N logical trackers in structure-of-arrays
  form; batched ingest and classification for many sessions per numpy
  call, state-identical to scalar trackers.
- :class:`ClassifierConfig` — the classifier's knobs (paper §4), with
  the :meth:`~repro.core.config.ClassifierConfig.paper_default` and
  :meth:`~repro.core.config.ClassifierConfig.paper_baseline` presets.
- :class:`TrackerReport` — the per-interval boundary report both
  tracker flavours emit (``to_dict`` is the wire format).
- :class:`PhaseServiceClient` — the blocking client for the phase
  service's newline-delimited JSON protocol.
- :class:`HttpGateway` — the HTTP operations surface (health probes,
  Prometheus ``/metrics``, JSON session API, SSE events, dashboard)
  that :class:`~repro.service.server.PhaseService` runs when given an
  ``http_port``. The route set and JSON shapes are covered by the
  promise; the internal HTTP plumbing under :mod:`repro.obs.http` is
  not.
"""

from repro.core.config import ClassifierConfig
from repro.core.online import PhaseTracker, TrackerReport
from repro.core.pool import TrackerPool
from repro.obs import HttpGateway
from repro.service.client import PhaseServiceClient

__all__ = [
    "ClassifierConfig",
    "HttpGateway",
    "PhaseServiceClient",
    "PhaseTracker",
    "TrackerPool",
    "TrackerReport",
]
