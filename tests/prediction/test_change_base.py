"""Direct tests for the shared change-predictor machinery."""

import pytest

from repro.errors import ConfigurationError
from repro.prediction.change_base import (
    ChangeEntry,
    ChangePrediction,
    ChangePredictorBase,
)


class TestChangePrediction:
    def test_primary_none_on_miss(self):
        prediction = ChangePrediction(outcomes=(), confident=False,
                                      hit=False)
        assert prediction.primary is None
        assert not prediction.matches(1)

    def test_matches_any_outcome(self):
        prediction = ChangePrediction(outcomes=(3, 5), confident=True,
                                      hit=True)
        assert prediction.matches(3)
        assert prediction.matches(5)
        assert not prediction.matches(4)
        assert prediction.primary == 3


class TestChangeEntryFrequencies:
    def test_top1_tie_broken_by_counter_order(self):
        entry = ChangeEntry("top1")
        entry.record_outcome(1)
        entry.record_outcome(2)
        # Tie: broken by first-seen order.
        assert entry.predicted_outcomes() == (1,)
        entry.record_outcome(2)
        assert entry.predicted_outcomes() == (2,)

    def test_top4_fewer_than_four_outcomes(self):
        entry = ChangeEntry("top4")
        entry.record_outcome(7)
        assert entry.predicted_outcomes() == (7,)

    def test_last4_reorders_on_repeat(self):
        entry = ChangeEntry("last4")
        for outcome in (1, 2, 3, 1):
            entry.record_outcome(outcome)
        assert entry.predicted_outcomes()[0] == 1


class TestBaseHistoryBounds:
    class _Stub(ChangePredictorBase):
        def change_key(self):
            return ("stub", tuple(self._runs))

        def running_key(self):
            return ("stub-run", tuple(self._runs))

    def test_history_depth_enforced(self):
        predictor = self._Stub(history_depth=3)
        for phase in (1, 2, 3, 4, 5, 6):
            predictor.advance(phase)
        assert len(predictor.completed_runs) <= 3

    def test_invalid_history_depth(self):
        with pytest.raises(ConfigurationError):
            self._Stub(history_depth=0)

    def test_invalid_entry_kind(self):
        with pytest.raises(ConfigurationError):
            self._Stub(entry_kind="mode")

    def test_train_then_predict_round_trip(self):
        predictor = self._Stub()
        predictor.advance(1)
        predictor.advance(2)           # change 1 -> 2
        key = predictor.change_key()
        predictor.train_change(key, 2)
        prediction = predictor._lookup(key)
        assert prediction.hit
        assert prediction.matches(2)

    def test_confidence_two_step(self):
        predictor = self._Stub(use_confidence=True)
        predictor.advance(1)
        predictor.advance(2)
        key = predictor.change_key()
        predictor.train_change(key, 2)       # insert
        assert not predictor._lookup(key).confident
        predictor.train_change(key, 2)       # verified once
        assert predictor._lookup(key).confident
        predictor.train_change(key, 9)       # wrong: demoted
        assert not predictor._lookup(key).confident
