"""Caches for generated traces and classification runs.

Two layers back every experiment:

1. **In-process memory caches** — traces are memoized per
   ``(benchmark, scale)`` and classification runs per
   ``(benchmark, scale, config)``. Repeated lookups return the *same*
   object (experiments share traces freely).
2. **An optional on-disk result store**
   (:class:`repro.harness.store.ResultStore`) consulted on memory
   misses and populated on computes, so a fresh process — a new CLI
   invocation, a pytest worker, a CI job — starts warm. Install one
   with :func:`set_result_store`; the CLI does this by default (opt out
   with ``--no-store``).

:class:`~repro.core.config.ClassifierConfig` is a frozen dataclass and
therefore hashable, so the classification cache is keyed on the config
*itself*: a field added to the config can never silently fall out of
the cache key (the failure mode of the hand-maintained key tuple this
replaced).

Install a :class:`repro.telemetry.Telemetry` hub with
:func:`set_cache_telemetry` to count hits and misses of both memory
caches (``repro_harness_trace_cache_*`` /
``repro_harness_classified_cache_*`` counters; the store keeps its own
``repro_harness_store_*`` counters); the CLI does this automatically
when ``--metrics`` or ``--events`` is given.

The :mod:`repro.harness.engine` seeds both layers directly
(:func:`seed_trace` / :func:`seed_classified`) after computing work
units, in-process or in pool workers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.core import ClassificationRun, ClassifierConfig, PhaseClassifier
from repro.workloads import benchmark
from repro.workloads.trace import IntervalTrace

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.harness.store import ResultStore
    from repro.telemetry import Telemetry

_TraceKey = Tuple[str, float]
_ClassifiedKey = Tuple[str, float, ClassifierConfig]

_traces: Dict[_TraceKey, IntervalTrace] = {}
_classified: Dict[_ClassifiedKey, ClassificationRun] = {}

_telemetry: "Optional[Telemetry]" = None
_store: "Optional[ResultStore]" = None


def set_cache_telemetry(telemetry: "Optional[Telemetry]") -> None:
    """Install (or, with ``None``, remove) the hub cache counters go to."""
    global _telemetry
    _telemetry = telemetry
    if _store is not None:
        _store.set_telemetry(telemetry)


def set_result_store(store: "Optional[ResultStore]") -> None:
    """Install (or, with ``None``, remove) the on-disk result store.

    While installed, memory misses consult the store and computed
    results are written back, making warm starts survive the process.
    """
    global _store
    _store = store
    if store is not None and _telemetry is not None:
        store.set_telemetry(_telemetry)


def get_result_store() -> "Optional[ResultStore]":
    """The currently installed store, if any."""
    return _store


def record_cache_event(cache: str, hit: bool) -> None:
    """Count one memory-cache lookup (``cache`` is ``"trace"`` or
    ``"classified"``); a no-op without a telemetry hub.

    Exposed for the engine, which resolves units without going through
    :func:`cached_trace`/:func:`cached_classified` but must keep the
    hit/miss counters identical to theirs.
    """
    if _telemetry is None:
        return
    outcome = "hits" if hit else "misses"
    _telemetry.metrics.counter(
        f"repro_harness_{cache}_cache_{outcome}_total",
        f"Harness {cache} cache {outcome}",
    ).inc()


def resolve_trace(
    name: str, scale: float
) -> Tuple[IntervalTrace, str]:
    """Memory -> store -> compute; returns ``(trace, source)`` where
    source is ``"memory"``, ``"store"``, or ``"computed"``. Does not
    touch the hit/miss counters (callers decide how to account)."""
    key = (name, float(scale))
    trace = _traces.get(key)
    if trace is not None:
        return trace, "memory"
    if _store is not None:
        trace = _store.get_trace(name, float(scale))
        if trace is not None:
            _traces[key] = trace
            return trace, "store"
    trace = benchmark(name, scale=scale)
    _traces[key] = trace
    if _store is not None:
        _store.put_trace(name, float(scale), trace)
    return trace, "computed"


def resolve_classified(
    name: str, config: ClassifierConfig, scale: float
) -> Tuple[ClassificationRun, str]:
    """Memory -> store -> compute for classification runs (see
    :func:`resolve_trace`)."""
    key = (name, float(scale), config)
    run = _classified.get(key)
    if run is not None:
        return run, "memory"
    if _store is not None:
        run = _store.get_classified(name, float(scale), config)
        if run is not None:
            _classified[key] = run
            return run, "store"
    trace, _ = resolve_trace(name, scale)
    run = PhaseClassifier(config).classify_trace(trace)
    _classified[key] = run
    if _store is not None:
        _store.put_classified(name, float(scale), config, run)
    return run, "computed"


def cached_trace(name: str, scale: float = 1.0) -> IntervalTrace:
    """Generate (or return the memoized/stored) trace for a benchmark."""
    trace, source = resolve_trace(name, scale)
    record_cache_event("trace", source == "memory")
    return trace


def cached_classified(
    name: str, config: ClassifierConfig, scale: float = 1.0
) -> ClassificationRun:
    """Classify a benchmark under a configuration (memoized/stored)."""
    run, source = resolve_classified(name, config, scale)
    record_cache_event("classified", source == "memory")
    return run


# -- engine hooks -------------------------------------------------------------


def peek_trace(name: str, scale: float) -> Optional[IntervalTrace]:
    """The memoized trace, or ``None`` — no compute, no store, no
    telemetry (the engine's pre-dispatch probe)."""
    return _traces.get((name, float(scale)))


def peek_classified(
    name: str, config: ClassifierConfig, scale: float
) -> Optional[ClassificationRun]:
    """The memoized run, or ``None`` (see :func:`peek_trace`)."""
    return _classified.get((name, float(scale), config))


def seed_trace(
    name: str, scale: float, trace: IntervalTrace,
    write_store: bool = True,
) -> None:
    """Insert a precomputed trace into the memory cache (and, unless
    ``write_store=False``, the store — pass ``False`` when the trace
    just came *from* the store)."""
    _traces[(name, float(scale))] = trace
    if write_store and _store is not None:
        _store.put_trace(name, float(scale), trace)


def seed_classified(
    name: str,
    config: ClassifierConfig,
    scale: float,
    run: ClassificationRun,
    write_store: bool = True,
) -> None:
    """Insert a precomputed classification run (see :func:`seed_trace`)."""
    _classified[(name, float(scale), config)] = run
    if write_store and _store is not None:
        _store.put_classified(name, float(scale), config, run)


def clear_cache() -> None:
    """Drop all memoized traces and classification runs (memory only —
    the on-disk store, when installed, is untouched; use
    ``repro-phases cache clear`` or :meth:`ResultStore.clear`)."""
    _traces.clear()
    _classified.clear()
