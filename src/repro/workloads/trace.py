"""Interval traces: the interface between workloads and the classifier.

An :class:`Interval` is everything the phase-tracking hardware would see
for one fixed-length slice of execution (10M instructions by default):

- the (branch PC, trailing instruction count) records that drive the
  accumulator table, and
- the interval's measured CPI (the paper's homogeneity metric).

Ground-truth fields (``region`` and ``is_transition``) are carried along
for analysis and testing only — the classifier never reads them, exactly
as the paper's hardware never sees region labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from repro.errors import TraceError

#: The paper's interval granularity: 10 million instructions (§1, §3).
DEFAULT_INTERVAL_INSTRUCTIONS = 10_000_000


@dataclass
class Interval:
    """One fixed-length interval of execution.

    Parameters
    ----------
    branch_pcs:
        Branch program counters observed in the interval. Records may be
        aggregated per static branch (the accumulator table only sums, so
        aggregation is behaviour-preserving).
    instr_counts:
        Instructions committed after each corresponding branch record.
        ``instr_counts.sum()`` equals the interval length in instructions.
    cpi:
        Cycles per instruction measured for the interval.
    region:
        Ground-truth region label (-1 for a transition interval).
    is_transition:
        Ground-truth flag: this interval lies between stable segments.
    """

    branch_pcs: np.ndarray
    instr_counts: np.ndarray
    cpi: float
    region: int = -1
    is_transition: bool = False

    def __post_init__(self) -> None:
        self.branch_pcs = np.asarray(self.branch_pcs, dtype=np.int64)
        self.instr_counts = np.asarray(self.instr_counts, dtype=np.int64)
        if self.branch_pcs.shape != self.instr_counts.shape:
            raise TraceError(
                "branch_pcs and instr_counts must be parallel arrays: "
                f"{self.branch_pcs.shape} vs {self.instr_counts.shape}"
            )
        if self.branch_pcs.ndim != 1:
            raise TraceError("interval records must be one-dimensional")
        if self.branch_pcs.size == 0:
            raise TraceError("an interval must contain at least one record")
        if np.any(self.instr_counts < 0):
            raise TraceError("instruction counts must be non-negative")
        if not np.isfinite(self.cpi) or self.cpi <= 0:
            raise TraceError(f"cpi must be a positive float, got {self.cpi}")

    @property
    def instructions(self) -> int:
        """Total committed instructions in the interval."""
        return int(self.instr_counts.sum())

    @property
    def num_records(self) -> int:
        return int(self.branch_pcs.shape[0])


@dataclass
class IntervalTrace:
    """A whole program run as a sequence of intervals.

    Carries descriptive metadata so experiment output can name the
    workload it came from.
    """

    name: str
    intervals: List[Interval]
    interval_instructions: int = DEFAULT_INTERVAL_INSTRUCTIONS
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.intervals:
            raise TraceError(f"trace '{self.name}' has no intervals")
        if self.interval_instructions <= 0:
            raise TraceError(
                "interval_instructions must be positive, got "
                f"{self.interval_instructions}"
            )

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, index: int) -> Interval:
        return self.intervals[index]

    @property
    def cpis(self) -> np.ndarray:
        """CPI of every interval, in execution order."""
        return np.array([iv.cpi for iv in self.intervals], dtype=np.float64)

    @property
    def regions(self) -> np.ndarray:
        """Ground-truth region label per interval (-1 = transition)."""
        return np.array([iv.region for iv in self.intervals], dtype=np.int64)

    @property
    def transition_mask(self) -> np.ndarray:
        """Boolean mask of ground-truth transition intervals."""
        return np.array(
            [iv.is_transition for iv in self.intervals], dtype=bool
        )

    def whole_program_cov(self) -> float:
        """CoV of CPI over *all* intervals (paper Fig. 3, "Whole Program").

        Returns standard deviation divided by mean, as a fraction.
        """
        cpis = self.cpis
        mean = float(cpis.mean())
        if mean == 0.0:
            raise TraceError("mean CPI is zero; trace is degenerate")
        return float(cpis.std()) / mean
