"""repro.telemetry — metrics, structured events, and tracing.

The observability layer for the phase-tracking system. A deployed
:class:`~repro.core.online.PhaseTracker` is an always-on runtime
monitor; this package makes the monitor itself measurable:

- :mod:`repro.telemetry.metrics` — thread-safe :class:`Counter`,
  :class:`Gauge` and log-bucket :class:`Histogram` primitives in a
  :class:`MetricsRegistry`.
- :mod:`repro.telemetry.tracing` — :class:`Tracer`/:class:`Span`
  context-manager timing with parent/child nesting.
- :mod:`repro.telemetry.events` — an append-only JSONL
  :class:`EventLog` (one record per interval boundary plus lifecycle
  events) and :func:`read_events` to parse it back.
- :mod:`repro.telemetry.export` — the pluggable :class:`Exporter`
  interface with Prometheus text-format and JSON snapshot
  implementations.
- :mod:`repro.telemetry.hub` — :class:`Telemetry`, the one handle the
  instrumented layers (the servers, `PhaseTracker(telemetry=...)`, the
  experiment harness, the harness caches) share.

The package is dependency-free (stdlib only) and safe to import from
the hot path. A server always owns a hub: the service, the cluster
dispatcher and each cluster worker build an in-memory one when none is
passed, and ``serve --metrics``/``--events`` only attach sinks to it.
Trackers and experiment runs stay opt-in: without a hub they do no
telemetry work.
"""

from repro.telemetry.events import EventLog, read_events
from repro.telemetry.export import (
    Exporter,
    JSONExporter,
    PrometheusExporter,
    exporter_for,
    parse_prometheus_text,
)
from repro.telemetry.hub import EventSubscription, Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    render_labels,
    validate_labels,
)
from repro.telemetry.tracing import Span, SpanStats, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "EventSubscription",
    "Exporter",
    "Gauge",
    "Histogram",
    "JSONExporter",
    "MetricsRegistry",
    "PrometheusExporter",
    "Span",
    "SpanStats",
    "Telemetry",
    "Tracer",
    "escape_label_value",
    "exporter_for",
    "parse_prometheus_text",
    "read_events",
    "render_labels",
    "validate_labels",
]
