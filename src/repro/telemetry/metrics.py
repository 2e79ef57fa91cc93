"""Metric primitives: counters, gauges, log-bucket histograms.

The hot path of a deployed phase tracker executes per committed branch,
so the primitives here are deliberately boring: a :class:`Counter` is
one float behind a lock, a :class:`Histogram` finds its bucket with a
binary search over a precomputed bound tuple. Nothing on the record
path allocates beyond what CPython needs for the call itself.

All metrics live in a :class:`MetricsRegistry`, which hands out
get-or-create references (two subsystems asking for the same counter
name share the instance) and produces the snapshots the exporters in
:mod:`repro.telemetry.export` render.

Naming follows Prometheus conventions: ``[a-zA-Z_:][a-zA-Z0-9_:]*``,
counters ending in ``_total``, durations in ``_seconds``.

Metrics may carry **labels** (``labels={"route": "/metrics"}``): each
distinct label set is its own series, registered and exported
independently under the shared metric name. Label names follow the
Prometheus label grammar; label values are arbitrary strings (the
exporter escapes quotes, backslashes and newlines). Re-registering one
name with different *kinds* is refused across all of its label sets.

A counter or gauge registered with ``read=`` (a zero-argument callable)
is a **callback series**: it stores nothing, and every snapshot calls
``read`` for its value. A series that reports state its owner already
keeps (a live-session count, a journal's durability lag) is registered
this way, so it cannot drift from that state and needs no write on any
path; only events (a branch ingested, a request's latency) are counted.
``inc``/``dec``/``set`` on a callback series raise
:class:`TelemetryError`, and registering ``read`` for an existing
series rebinds it, so the newest owner of a name reports it.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import TelemetryError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def validate_metric_name(name: str) -> str:
    """Check a metric name against the Prometheus grammar."""
    if not _NAME_RE.match(name):
        raise TelemetryError(
            f"invalid metric name {name!r}; expected "
            "[a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def sanitize_metric_name(raw: str) -> str:
    """Coerce an arbitrary string (e.g. a span path) into a legal name.

    Colons are legal in the Prometheus grammar but conventionally
    reserved for recording rules, so they are replaced too.
    """
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", raw)
    if not cleaned or not _NAME_RE.match(cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def validate_labels(
    labels: Optional[Mapping[str, object]],
) -> Dict[str, str]:
    """Normalize a label mapping: legal names, stringified values."""
    if not labels:
        return {}
    normalized: Dict[str, str] = {}
    for name in sorted(labels):
        if not _LABEL_RE.match(name):
            raise TelemetryError(
                f"invalid label name {name!r}; expected "
                "[a-zA-Z_][a-zA-Z0-9_]*"
            )
        if name == "le":
            raise TelemetryError(
                "label name 'le' is reserved for histogram buckets"
            )
        normalized[name] = str(labels[name])
    return normalized


def render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    """The ``{name="value",...}`` suffix of one series (sorted names).

    ``extra`` is appended verbatim after the label pairs — the exporter
    uses it to merge the ``le`` bucket label into histogram series.
    """
    pairs = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class _Scalar:
    """What a counter and a gauge share: one float behind a lock, or,
    once the registry binds a ``read`` callable to it, no stored value
    at all — :attr:`value` and :meth:`snapshot` call ``read`` and writes
    raise :class:`TelemetryError`."""

    kind = ""

    __slots__ = ("name", "help", "labels", "_value", "_lock", "_read")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.name = validate_metric_name(name)
        self.help = help
        self.labels = validate_labels(labels)
        self._value = 0.0
        self._lock = threading.Lock()
        self._read: Optional[Callable[[], float]] = None

    def _writable(self) -> None:
        if self._read is not None:
            raise TelemetryError(
                f"{self.kind} {self.name} reads its value from a "
                "callable and cannot be written"
            )

    @property
    def value(self) -> float:
        read = self._read
        return self._value if read is None else float(read())

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Counter(_Scalar):
    """A monotonically increasing count (events, branches, hits)."""

    kind = "counter"

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self._writable()
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down (occupancy, queue depth)."""

    kind = "gauge"

    __slots__ = ()

    def set(self, value: float) -> None:
        self._writable()
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._writable()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._writable()
        with self._lock:
            self._value -= amount


#: Default histogram geometry: 1µs first bound, ×4 per bucket, 14
#: buckets -> top finite bound ~67s. Suits both per-branch latencies
#: (tens of ns land in the first bucket) and whole-experiment spans.
DEFAULT_HISTOGRAM_START = 1e-6
DEFAULT_HISTOGRAM_FACTOR = 4.0
DEFAULT_HISTOGRAM_BUCKETS = 14


class Histogram:
    """Fixed log-scale-bucket histogram of observed values.

    Bucket upper bounds are ``start * factor**i`` for ``i`` in
    ``range(count)``; values above the last bound land in the implicit
    overflow (``+Inf``) bucket. Bounds are precomputed so
    :meth:`observe` is a binary search plus three scalar updates.
    """

    kind = "histogram"

    __slots__ = (
        "name", "help", "labels", "bounds", "_counts", "_overflow",
        "_sum", "_observations", "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        start: float = DEFAULT_HISTOGRAM_START,
        factor: float = DEFAULT_HISTOGRAM_FACTOR,
        count: int = DEFAULT_HISTOGRAM_BUCKETS,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        if start <= 0:
            raise TelemetryError(f"histogram start must be > 0, got {start}")
        if factor <= 1.0:
            raise TelemetryError(
                f"histogram factor must be > 1, got {factor}"
            )
        if count < 1:
            raise TelemetryError(
                f"histogram bucket count must be >= 1, got {count}"
            )
        self.name = validate_metric_name(name)
        self.help = help
        self.labels = validate_labels(labels)
        self.bounds: Tuple[float, ...] = tuple(
            start * factor ** i for i in range(count)
        )
        self._counts = [0] * count
        self._overflow = 0
        self._sum = 0.0
        self._observations = 0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._sum += value
            self._observations += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._observations

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._observations if self._observations else 0.0

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; overflow appended last."""
        with self._lock:
            return list(self._counts) + [self._overflow]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ending
        with the ``+Inf`` bucket."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, bucket in zip(self.bounds, self._counts):
                running += bucket
                pairs.append((bound, running))
            pairs.append((float("inf"), running + self._overflow))
        return pairs

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts) + [self._overflow]
            observations = self._observations
            total = self._sum
            minimum = self._min if observations else None
            maximum = self._max if observations else None
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labels": dict(self.labels),
            "count": observations,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "bounds": list(self.bounds),
            "counts": counts,
        }


class MetricsRegistry:
    """Thread-safe, insertion-ordered collection of named metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name *and label set* returns the same object, and
    asking for an existing name as a different kind (under any label
    set) raises :class:`TelemetryError`. Each label set is its own
    series; :meth:`get` addresses a series by name plus labels.
    ``counter``/``gauge`` with ``read=`` return the series bound to
    that callable (see the module docstring).
    """

    def __init__(self) -> None:
        self._metrics: "Dict[str, object]" = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _series_key(
        name: str, labels: Optional[Mapping[str, object]]
    ) -> str:
        return name + render_labels(validate_labels(labels))

    def _get_or_create(
        self, kind: type, name: str,
        labels: Optional[Mapping[str, object]] = None, **kwargs,
    ):
        key = self._series_key(name, labels)
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered != kind.kind:
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{registered}, cannot re-register as {kind.kind}"
                )
            existing = self._metrics.get(key)
            if existing is not None:
                return existing
            metric = kind(name, labels=labels, **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = kind.kind
            return metric

    def _scalar(self, kind: type, name: str, help: str, labels, read):
        metric = self._get_or_create(kind, name, labels=labels, help=help)
        if read is not None:
            metric._read = read
        return metric

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        read: Optional[Callable[[], float]] = None,
    ) -> Counter:
        return self._scalar(Counter, name, help, labels, read)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        read: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._scalar(Gauge, name, help, labels, read)

    def histogram(
        self,
        name: str,
        help: str = "",
        start: float = DEFAULT_HISTOGRAM_START,
        factor: float = DEFAULT_HISTOGRAM_FACTOR,
        count: int = DEFAULT_HISTOGRAM_BUCKETS,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels=labels, help=help, start=start,
            factor=factor, count=count,
        )

    def get(
        self, name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Optional[object]:
        """The series registered under ``name`` (+ ``labels``), or
        ``None``."""
        with self._lock:
            return self._metrics.get(self._series_key(name, labels))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics or name in self._kinds

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def names(self) -> List[str]:
        """Series keys (name plus rendered labels), insertion-ordered."""
        with self._lock:
            return list(self._metrics)

    def snapshot(self) -> List[Dict[str, object]]:
        """Point-in-time state of every metric, in registration order."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.snapshot() for metric in metrics]
