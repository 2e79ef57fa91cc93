"""The :class:`Telemetry` hub: one handle for metrics, spans, events.

Instrumented layers (:class:`~repro.core.online.PhaseTracker`, the
experiment harness, the harness caches) accept an optional
``telemetry=`` argument; passing one hub to all of them aggregates the
whole run in one place::

    from repro.telemetry import Telemetry

    telemetry = Telemetry.to_files(metrics_path="run.prom",
                                   events_path="run.jsonl")
    tracker = PhaseTracker(config, telemetry=telemetry)
    ...
    telemetry.close()        # writes run.prom, closes run.jsonl

A hub constructed with no arguments keeps everything in memory (no
event sink, no output files) — the cheapest way to instrument a
library embedding, and what a server builds for itself when given no
hub.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional

from repro.telemetry.events import EventLog
from repro.telemetry.export import Exporter, exporter_for
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracing import Span, Tracer


class EventSubscription:
    """A bounded live feed of the hub's event stream.

    Each subscriber owns a ``deque(maxlen=...)``: when the consumer
    falls behind, the *oldest* buffered records are silently replaced
    and :attr:`dropped` counts how many were lost — emitters are never
    blocked or slowed by a stuck reader. Thread-safe; designed for the
    SSE bridge in :mod:`repro.obs` but usable anywhere.
    """

    __slots__ = ("_hub", "_queue", "_lock", "_dropped", "_closed")

    def __init__(self, hub: "Telemetry", maxlen: int = 256) -> None:
        if maxlen < 1:
            raise ValueError(f"subscription maxlen must be >= 1, got {maxlen}")
        self._hub = hub
        self._queue: "deque" = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._dropped = 0
        self._closed = False

    @property
    def dropped(self) -> int:
        """Records lost to overflow since the subscription opened."""
        return self._dropped

    @property
    def closed(self) -> bool:
        return self._closed

    def _publish(self, record: Dict[str, object]) -> None:
        with self._lock:
            if self._closed:
                return
            if len(self._queue) == self._queue.maxlen:
                self._dropped += 1
            self._queue.append(record)

    def drain(self) -> List[Dict[str, object]]:
        """All buffered records, oldest first; empties the buffer."""
        with self._lock:
            records = list(self._queue)
            self._queue.clear()
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        """Detach from the hub and discard the buffer. Idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._queue.clear()
        self._hub._unsubscribe(self)


class Telemetry:
    """Bundle of a metrics registry, a tracer, and an optional event log."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics_path: Optional[str] = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics, clock=clock)
        self.events = events
        self.metrics_path = metrics_path
        self._closed = False
        self._subscribers: List[EventSubscription] = []
        self._sub_lock = threading.Lock()
        self._seq = 0

    @classmethod
    def to_files(
        cls,
        metrics_path: Optional[str] = None,
        events_path: Optional[str] = None,
    ) -> "Telemetry":
        """A hub that streams events to ``events_path`` while running
        and writes a metrics snapshot to ``metrics_path`` on close.

        Both paths are opened eagerly so an unwritable destination fails
        here, before any instrumented work runs, rather than at close.
        """
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8"):
                pass
        events = (
            EventLog(path=events_path) if events_path is not None else None
        )
        return cls(events=events, metrics_path=metrics_path)

    # -- metric shortcuts -------------------------------------------------

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        read: Optional[Callable[[], float]] = None,
    ) -> Counter:
        return self.metrics.counter(name, help=help, labels=labels, read=read)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        read: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self.metrics.gauge(name, help=help, labels=labels, read=read)

    def histogram(self, name: str, help: str = "", **kwargs) -> Histogram:
        return self.metrics.histogram(name, help=help, **kwargs)

    # -- tracing / events -------------------------------------------------

    def span(self, name: str) -> Span:
        """A nested timing span (see :mod:`repro.telemetry.tracing`)."""
        return self.tracer.span(name)

    def subscribe(self, maxlen: int = 256) -> EventSubscription:
        """Open a live, bounded feed of every event this hub emits.

        Works with or without a JSONL sink: an in-memory hub still fans
        records out to subscribers. Call ``close()`` on the returned
        subscription to detach.
        """
        subscription = EventSubscription(self, maxlen=maxlen)
        with self._sub_lock:
            self._subscribers.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: EventSubscription) -> None:
        with self._sub_lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass

    def emit(self, event: str, /, **fields: object) -> None:
        """Emit a structured event.

        A no-op (one attribute check) when there is neither an event
        sink nor any live subscriber, so unconditional ``emit`` calls
        on hot paths stay cheap.
        """
        subscribers = self._subscribers
        record: Optional[Dict[str, object]] = None
        if self.events is not None and not self.events.closed:
            record = self.events.emit(event, **fields)
        elif not subscribers:
            return
        if subscribers:
            if record is None:
                # Sinkless hub: build the same envelope the EventLog
                # would have, with a hub-local sequence number.
                with self._sub_lock:
                    self._seq += 1
                    seq = self._seq
                record = {"event": event, "seq": seq, "ts": time.time()}
                record.update(fields)
            with self._sub_lock:
                live = list(self._subscribers)
            for subscription in live:
                subscription._publish(record)

    # -- export -----------------------------------------------------------

    def render_metrics(self, format: str = "prometheus") -> str:
        """The current metrics snapshot as text."""
        return exporter_for(format=format).render(self.metrics)

    def write_metrics(
        self, path: str, exporter: Optional[Exporter] = None
    ) -> None:
        """Write a snapshot to ``path`` (format chosen by extension
        unless an explicit exporter is given)."""
        (exporter or exporter_for(path=path)).write(self.metrics, path)

    def span_timings(self) -> Dict[str, object]:
        """Convenience passthrough to :meth:`Tracer.timings`."""
        return self.tracer.timings()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Flush outputs: write the configured metrics file (if any)
        and close the event log. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.metrics_path is not None:
            self.write_metrics(self.metrics_path)
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
