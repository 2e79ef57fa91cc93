"""Side-by-side comparison of two classifications of one trace.

Different classifiers (configurations, the working-set baseline, the
offline SimPoint labeling) can be compared on common ground: phase
counts, weighted CoV, transition occupancy, mutual agreement, and a
per-benchmark verdict. The ``simpoint`` and ``baselines`` experiments
compute these ad hoc; this module is the reusable form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.agreement import adjusted_rand_index
from repro.analysis.cov import weighted_cov
from repro.core.events import ClassificationRun
from repro.errors import TraceError
from repro.workloads.trace import IntervalTrace


@dataclass(frozen=True)
class ClassificationComparison:
    """Summary of two classification runs over the same trace."""

    name_a: str
    name_b: str
    cov_a: float
    cov_b: float
    phases_a: int
    phases_b: int
    transition_a: float
    transition_b: float
    agreement_ari: float

    @property
    def cov_winner(self) -> Optional[str]:
        """The more homogeneous classification, or None on a tie.

        Ties are declared within half a CoV percentage point — below
        the run-to-run noise of the synthetic workloads.
        """
        if abs(self.cov_a - self.cov_b) < 0.005:
            return None
        return self.name_a if self.cov_a < self.cov_b else self.name_b

    @property
    def more_frugal(self) -> Optional[str]:
        """Which classification uses fewer phase IDs (None on a tie)."""
        if self.phases_a == self.phases_b:
            return None
        return (
            self.name_a if self.phases_a < self.phases_b else self.name_b
        )

    def summary(self) -> str:
        """One-paragraph human-readable comparison."""
        lines = [
            f"{self.name_a} vs {self.name_b}:",
            f"  CoV: {self.cov_a:.1%} vs {self.cov_b:.1%}"
            + (f" ({self.cov_winner} more homogeneous)"
               if self.cov_winner else " (tie)"),
            f"  phases: {self.phases_a} vs {self.phases_b}"
            + (f" ({self.more_frugal} more frugal)"
               if self.more_frugal else " (tie)"),
            f"  transition occupancy: {self.transition_a:.1%} vs "
            f"{self.transition_b:.1%}",
            f"  label agreement (ARI): {self.agreement_ari:.2f}",
        ]
        return "\n".join(lines)


def compare_runs(
    run_a: ClassificationRun,
    run_b: ClassificationRun,
    trace: IntervalTrace,
    name_a: str = "A",
    name_b: str = "B",
) -> ClassificationComparison:
    """Compare two classification runs of the same trace."""
    if len(run_a) != len(trace) or len(run_b) != len(trace):
        raise TraceError(
            "both runs must cover the trace: "
            f"{len(run_a)}/{len(run_b)} vs {len(trace)} intervals"
        )
    return ClassificationComparison(
        name_a=name_a,
        name_b=name_b,
        cov_a=weighted_cov(run_a, trace),
        cov_b=weighted_cov(run_b, trace),
        phases_a=run_a.num_phases,
        phases_b=run_b.num_phases,
        transition_a=run_a.transition_fraction,
        transition_b=run_b.transition_fraction,
        agreement_ari=adjusted_rand_index(
            run_a.phase_ids, run_b.phase_ids
        ),
    )
