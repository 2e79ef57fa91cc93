"""Summary helpers for prediction statistics.

Bridges the predictor-level statistics objects
(:class:`~repro.prediction.composite.NextPhaseStats`,
:class:`~repro.prediction.change_eval.ChangePredictionStats`) to the
aggregated per-benchmark summaries the harness prints.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PredictionError
from repro.prediction.change_eval import (
    CHANGE_CATEGORIES,
    ChangePredictionStats,
)
from repro.prediction.composite import CATEGORIES, NextPhaseStats


def aggregate_next_phase(
    stats_list: Sequence[NextPhaseStats],
) -> NextPhaseStats:
    """Sum next-phase stats across benchmarks (for the avg bar)."""
    if not stats_list:
        raise PredictionError("no statistics to aggregate")
    total = NextPhaseStats()
    for stats in stats_list:
        for category in CATEGORIES:
            total.counts[category] += stats.counts[category]
    return total


def aggregate_change(
    stats_list: Sequence[ChangePredictionStats],
) -> ChangePredictionStats:
    """Sum phase-change stats across benchmarks."""
    if not stats_list:
        raise PredictionError("no statistics to aggregate")
    total = ChangePredictionStats()
    for stats in stats_list:
        for category in CHANGE_CATEGORIES:
            total.counts[category] += stats.counts[category]
    return total
