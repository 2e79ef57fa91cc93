"""Unit tests for prediction statistics aggregation."""

import pytest

from repro.analysis.prediction_stats import (
    aggregate_change,
    aggregate_next_phase,
)
from repro.errors import PredictionError
from repro.prediction.change_eval import ChangePredictionStats
from repro.prediction.composite import NextPhaseStats


def next_stats(**counts):
    stats = NextPhaseStats()
    for category, count in counts.items():
        stats.counts[category] = count
    return stats


class TestAggregation:
    def test_next_phase_sums(self):
        a = next_stats(correct_table=1, correct_lv_conf=2)
        b = next_stats(correct_table=3, incorrect_lv_conf=1)
        total = aggregate_next_phase([a, b])
        assert total.counts["correct_table"] == 4
        assert total.counts["correct_lv_conf"] == 2
        assert total.total == 7

    def test_change_sums(self):
        a = ChangePredictionStats()
        a.record("conf_correct")
        b = ChangePredictionStats()
        b.record("tag_miss")
        total = aggregate_change([a, b])
        assert total.total_changes == 2

    def test_empty_rejected(self):
        with pytest.raises(PredictionError):
            aggregate_next_phase([])
        with pytest.raises(PredictionError):
            aggregate_change([])
