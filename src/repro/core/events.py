"""Classification results: per-interval records and whole-run summaries.

The classifier emits one :class:`ClassificationResult` per interval; a
:class:`ClassificationRun` aggregates them for a whole trace and is the
input to the analysis package (CoV, run lengths) and the predictors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import TRANSITION_PHASE_ID
from repro.errors import TraceError


@dataclass(frozen=True)
class ClassificationResult:
    """The classifier's verdict for one interval.

    Parameters
    ----------
    phase_id:
        Assigned phase; :data:`TRANSITION_PHASE_ID` (0) for intervals in
        the transition phase.
    matched:
        Whether the signature matched an existing table entry (``False``
        means a new entry was inserted).
    distance:
        Relative distance to the matched entry (0.0 on insert).
    threshold_tightened:
        The adaptive classifier halved this entry's threshold on this
        interval.
    new_phase_allocated:
        A real phase ID was allocated on this interval (the entry just
        became stable).
    """

    phase_id: int
    matched: bool
    distance: float
    threshold_tightened: bool = False
    new_phase_allocated: bool = False

    @property
    def is_transition(self) -> bool:
        return self.phase_id == TRANSITION_PHASE_ID


@dataclass
class ClassificationRun:
    """All per-interval results for one trace, plus run-level metrics."""

    results: List[ClassificationResult]
    num_phases: int
    evictions: int

    def __post_init__(self) -> None:
        if not self.results:
            raise TraceError("a classification run must cover >= 1 interval")

    def __len__(self) -> int:
        return len(self.results)

    @property
    def phase_ids(self) -> np.ndarray:
        """Phase ID per interval, in execution order."""
        return np.array([r.phase_id for r in self.results], dtype=np.int64)

    @property
    def transition_mask(self) -> np.ndarray:
        """True where the interval was classified into the transition phase."""
        return self.phase_ids == TRANSITION_PHASE_ID

    @property
    def transition_fraction(self) -> float:
        """Fraction of intervals classified as transitions (Fig. 4)."""
        return float(self.transition_mask.mean())

    @property
    def distinct_phases_observed(self) -> int:
        """Distinct real phase IDs that actually appear in the stream."""
        ids = self.phase_ids
        return int(np.unique(ids[ids != TRANSITION_PHASE_ID]).size)

    def phase_interval_indices(self) -> Dict[int, np.ndarray]:
        """Map phase ID -> indices of intervals classified into it.

        Includes the transition phase under key 0 when present.
        """
        ids = self.phase_ids
        return {
            int(phase): np.nonzero(ids == phase)[0]
            for phase in np.unique(ids)
        }

    def phase_change_mask(self) -> np.ndarray:
        """Boolean mask: interval ``i`` is True when ``phase[i] !=
        phase[i-1]`` (the first interval is False by convention)."""
        ids = self.phase_ids
        mask = np.zeros(ids.shape, dtype=bool)
        mask[1:] = ids[1:] != ids[:-1]
        return mask

    @property
    def phase_change_fraction(self) -> float:
        """Fraction of interval boundaries that change phase (§5.2.1:
        ~25% in the paper)."""
        if len(self.results) < 2:
            return 0.0
        ids = self.phase_ids
        return float((ids[1:] != ids[:-1]).mean())
