"""Workload substrate: synthetic SPEC CPU2000 benchmark models.

The paper runs eleven SPEC 2000 benchmark/input pairs under
SimpleScalar. Neither is available offline, so this package builds the
closest synthetic equivalent (DESIGN.md §2): each benchmark is a set of
*code regions* — disjoint basic-block populations with distinct branch,
memory and ILP behaviour — sequenced by a *phase script* with explicit
noisy transition intervals between stable segments.

Modules:

- :mod:`repro.workloads.basic_block` — basic blocks, sub-modes, code
  regions, and their per-interval signature sampling.
- :mod:`repro.workloads.address_stream` — synthetic memory reference
  generators (strided / random-in-working-set / pointer-chase / mixed).
- :mod:`repro.workloads.branch_stream` — synthetic branch outcome
  generators (loop branches vs data-dependent branches).
- :mod:`repro.workloads.phase_script` — segment sequencing patterns
  (stable, hierarchical, irregular, alternating).
- :mod:`repro.workloads.trace` — interval records and whole-run traces.
- :mod:`repro.workloads.generator` — calibrates regions on the machine
  model and emits :class:`~repro.workloads.trace.IntervalTrace` objects.
- :mod:`repro.workloads.spec2000` — the eleven benchmark models.
"""

from repro._lazy import lazy_exports
from repro.workloads.trace import Interval, IntervalTrace

# The classifier and the service import ``repro.workloads.trace``,
# which runs this init; the generators and the machine model they
# calibrate on load only when one of their names is used (DESIGN §14).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.workloads.basic_block": ("BasicBlock", "CodeRegion", "SubMode"),
    "repro.workloads.generator": ("WorkloadGenerator",),
    "repro.workloads.phase_script": ("PhaseScript", "Segment"),
    "repro.workloads.spec2000": (
        "BENCHMARK_NAMES", "BenchmarkSpec", "benchmark", "build_benchmark",
    ),
})

__all__ = [
    "BENCHMARK_NAMES",
    "BasicBlock",
    "BenchmarkSpec",
    "CodeRegion",
    "Interval",
    "IntervalTrace",
    "PhaseScript",
    "Segment",
    "SubMode",
    "WorkloadGenerator",
    "benchmark",
    "build_benchmark",
]
