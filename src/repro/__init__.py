"""repro — Transition Phase Classification and Prediction (HPCA 2005).

A production-quality reproduction of Lau, Schoenmackers & Calder,
"Transition Phase Classification and Prediction", HPCA 2005, including
every substrate the paper depends on:

- :mod:`repro.core` — the online phase classifier (transition phase,
  adaptive thresholds, most-similar matching, dynamic bit selection).
- :mod:`repro.prediction` — next-phase, phase-change and phase-length
  predictors with confidence.
- :mod:`repro.simulator` — the SimpleScalar-substitute machine model
  (caches, hybrid branch predictor, TLB, analytic OoO core).
- :mod:`repro.workloads` — synthetic models of the paper's eleven SPEC
  CPU2000 workloads.
- :mod:`repro.analysis` — CoV of CPI, phase-run statistics, prediction
  metrics.
- :mod:`repro.harness` — one experiment per paper figure.
- :mod:`repro.telemetry` — metrics, structured events and tracing for
  the tracker and harness.

Quickstart
----------
>>> import repro
>>> trace = repro.benchmark("gzip/g", scale=0.2)
>>> classifier = repro.PhaseClassifier(repro.ClassifierConfig.paper_default())
>>> run = classifier.classify_trace(trace)
>>> cov = repro.weighted_cov(run, trace)
"""

from repro._lazy import lazy_exports
from repro.core import (
    ClassificationResult,
    ClassificationRun,
    ClassifierConfig,
    PhaseClassifier,
    PhaseTracker,
    TRANSITION_PHASE_ID,
)
from repro.errors import (
    ConfigurationError,
    PredictionError,
    ReproError,
    SimulationError,
    TelemetryError,
    TraceError,
)
from repro.telemetry import Telemetry
from repro.workloads.trace import IntervalTrace

# The machine model and the benchmark models are experiment-only: a
# serving process never imports them (DESIGN §14).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.simulator": ("Machine", "MachineConfig"),
    "repro.workloads.spec2000": ("BENCHMARK_NAMES", "benchmark"),
})

__version__ = "1.0.0"

__all__ = [
    "BENCHMARK_NAMES",
    "ClassificationResult",
    "ClassificationRun",
    "ClassifierConfig",
    "ConfigurationError",
    "IntervalTrace",
    "Machine",
    "MachineConfig",
    "PhaseClassifier",
    "PhaseTracker",
    "PredictionError",
    "ReproError",
    "SimulationError",
    "TRANSITION_PHASE_ID",
    "Telemetry",
    "TelemetryError",
    "TraceError",
    "benchmark",
    "weighted_cov",
    "__version__",
]


def weighted_cov(run: "ClassificationRun", trace: "IntervalTrace") -> float:
    """Overall CoV of CPI for a classification (paper §3.1).

    Convenience re-export of :func:`repro.analysis.cov.weighted_cov`.
    """
    from repro.analysis.cov import weighted_cov as _weighted_cov

    return _weighted_cov(run, trace)
