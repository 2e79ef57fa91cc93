"""Experiment harness: regenerates every table and figure of the paper.

Each experiment in :mod:`repro.harness.figures` reproduces one figure of
the evaluation, printing the same per-benchmark rows/series the paper
reports. Traces are generated once per process and shared across
experiments (:mod:`repro.harness.cache`); the
:class:`~repro.harness.engine.ExperimentEngine` computes each
experiment's declared work-unit grid across a process pool and persists
the results in a content-addressed on-disk store
(:mod:`repro.harness.store`), so repeat runs start warm.

Run everything from the command line::

    repro-phases --scale 0.5          # all figures, half-length runs
    repro-phases fig4 fig8            # selected figures
    repro-phases --jobs 4 fig4        # parallel work-grid computation
    repro-phases cache stats          # inspect the on-disk store

or programmatically::

    from repro.harness import run_experiment
    result = run_experiment("fig4", scale=0.5)
    print(result.rendered)
"""

from repro._lazy import lazy_exports

# ``repro-phases serve`` imports ``repro.harness.cli``, which runs this
# init; the experiment stack loads only when one of its names is used
# (DESIGN §14).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.harness.cache": (
        "cached_classified", "cached_trace", "clear_cache",
        "get_result_store", "set_cache_telemetry", "set_result_store",
    ),
    "repro.harness.engine": (
        "EngineReport", "ExperimentEngine", "WorkUnit", "dedupe_units",
        "validate_unit_result",
    ),
    "repro.harness.experiment": (
        "EXPERIMENT_NAMES", "ExperimentResult", "experiment_work_units",
        "run_experiment",
    ),
    "repro.harness.store": ("ResultStore", "StoreStats", "default_store_root"),
})

__all__ = [
    "EXPERIMENT_NAMES",
    "EngineReport",
    "ExperimentEngine",
    "ExperimentResult",
    "ResultStore",
    "StoreStats",
    "WorkUnit",
    "cached_classified",
    "cached_trace",
    "clear_cache",
    "dedupe_units",
    "default_store_root",
    "experiment_work_units",
    "get_result_store",
    "run_experiment",
    "set_cache_telemetry",
    "set_result_store",
    "validate_unit_result",
]
