"""Unit tests for the composite next-phase predictor and its stats."""

import pytest

from repro.errors import PredictionError
from repro.prediction.composite import (
    CATEGORIES,
    CompositePhasePredictor,
    NextPhaseStats,
)
from repro.prediction.markov import MarkovChangePredictor
from repro.prediction.rle import RLEChangePredictor


class TestNextPhaseStats:
    def test_counts_start_zero(self):
        stats = NextPhaseStats()
        assert stats.total == 0
        assert stats.accuracy == 0.0
        assert stats.coverage == 0.0

    def test_unknown_category_rejected(self):
        with pytest.raises(PredictionError):
            NextPhaseStats().record("correct_everything")

    def test_accuracy_and_coverage(self):
        stats = NextPhaseStats()
        stats.record("correct_table")
        stats.record("correct_lv_conf")
        stats.record("correct_lv_unconf")
        stats.record("incorrect_lv_conf")
        assert stats.total == 4
        assert stats.accuracy == pytest.approx(3 / 4)
        assert stats.covered == 3
        assert stats.coverage == pytest.approx(3 / 4)
        assert stats.confident_accuracy == pytest.approx(2 / 3)
        assert stats.misprediction_rate == pytest.approx(1 / 4)

    def test_fractions_sum_to_one(self):
        stats = NextPhaseStats()
        for category in CATEGORIES:
            stats.record(category)
        assert sum(stats.fractions().values()) == pytest.approx(1.0)


class TestPureLastValue:
    def test_stable_stream_mostly_correct(self):
        predictor = CompositePhasePredictor(None)
        stats = predictor.run([1] * 50)
        assert stats.accuracy == 1.0

    def test_first_interval_not_scored(self):
        predictor = CompositePhasePredictor(None)
        stats = predictor.run([1, 1, 1])
        assert stats.total == 2

    def test_alternating_stream_all_wrong(self):
        predictor = CompositePhasePredictor(None)
        stats = predictor.run([1, 2] * 20)
        assert stats.accuracy == 0.0

    def test_confidence_categories_split(self):
        predictor = CompositePhasePredictor(None)
        stats = predictor.run([1] * 20)
        # Early predictions unconfident, later ones confident.
        assert stats.counts["correct_lv_unconf"] > 0
        assert stats.counts["correct_lv_conf"] > 0

    def test_lv_confidence_disabled(self):
        predictor = CompositePhasePredictor(None, lv_use_confidence=False)
        stats = predictor.run([1] * 10)
        assert stats.counts["correct_lv_unconf"] == 0
        assert stats.coverage == 1.0


class TestWithChangePredictor:
    def test_rle_learns_periodic_stream(self):
        # Strict period: RLE should eventually predict the changes.
        stream = [1, 1, 1, 2, 2] * 20
        with_rle = CompositePhasePredictor(
            RLEChangePredictor(2, use_confidence=False)
        ).run(stream)
        lv_only = CompositePhasePredictor(None).run(stream)
        assert with_rle.accuracy > lv_only.accuracy
        assert with_rle.counts["correct_table"] > 0

    def test_table_predictions_counted_separately(self):
        stream = [1, 1, 2] * 30
        stats = CompositePhasePredictor(
            RLEChangePredictor(1, use_confidence=False)
        ).run(stream)
        table_total = (
            stats.counts["correct_table"] + stats.counts["incorrect_table"]
        )
        assert table_total > 0

    def test_markov_does_not_crash_on_noise(self):
        import numpy as np

        rng = np.random.default_rng(0)
        stream = rng.integers(1, 6, size=300).tolist()
        stats = CompositePhasePredictor(
            MarkovChangePredictor(2)
        ).run(stream)
        assert stats.total == 299

    def test_early_fire_punished_without_confidence(self):
        # Phase 1 runs length 2 then 2->... train entry keyed (1);
        # Markov-1 fires mid-run; without confidence the entry is
        # removed after a same-phase interval.
        predictor = MarkovChangePredictor(1, use_confidence=False)
        composite = CompositePhasePredictor(predictor)
        composite.run([1, 1, 2, 1, 1, 1, 1])
        # After the early fire, the (1,) entry must be gone.
        assert predictor.table.peek((1,)) is None

    def test_early_fire_demotes_with_confidence(self):
        predictor = MarkovChangePredictor(1, use_confidence=True)
        composite = CompositePhasePredictor(predictor)
        composite.run([1, 1, 2, 1, 1, 1, 1])
        slot = predictor.table.peek((1,))
        # Entry survives but is not confident.
        assert slot is not None
        assert not predictor.confident(slot)

    def test_step_returns_evaluated_prediction(self):
        composite = CompositePhasePredictor(None)
        assert composite.step(1) is None          # seeding
        evaluated = composite.step(1)
        assert evaluated is not None
        assert evaluated.phase_id == 1
