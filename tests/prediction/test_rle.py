"""Unit tests for RLE-N phase-change predictors."""

import pytest

from repro.errors import ConfigurationError
from repro.prediction.rle import RLEChangePredictor


def change_key(predictor):
    """The predictor's change key in its snapshot form."""
    return predictor.key_shape.nest(predictor.change_key())


def running_key(predictor):
    """The predictor's running key in its snapshot form."""
    return predictor.key_shape.nest(predictor.running_key())


def feed(predictor, phase_ids, train=True):
    for phase_id in phase_ids:
        completed = predictor.advance(phase_id).completed_run
        if completed is not None and train:
            predictor.train_change(predictor.change_key(), phase_id)


class TestKeys:
    def test_change_key_carries_completed_run_length(self):
        predictor = RLEChangePredictor(1)
        feed(predictor, [1, 1, 1, 2], train=False)
        assert change_key(predictor) == ("rle", 1, ((1, 3),))

    def test_running_key_carries_ongoing_length(self):
        predictor = RLEChangePredictor(1)
        feed(predictor, [1, 1, 1, 2, 2], train=False)
        assert running_key(predictor) == ("rle", 1, ((2, 2),))

    def test_depth2_keys(self):
        predictor = RLEChangePredictor(2)
        feed(predictor, [1, 1, 2, 2, 2, 3], train=False)
        assert change_key(predictor) == ("rle", 2, ((1, 2), (2, 3)))
        assert running_key(predictor) == ("rle", 2, ((2, 3), (3, 1)))

    def test_shallow_history_gives_none(self):
        predictor = RLEChangePredictor(2)
        feed(predictor, [1, 1, 2], train=False)
        assert predictor.change_key() is None

    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            RLEChangePredictor(0)


class TestTiming:
    def test_fires_exactly_at_learned_run_length(self):
        """The defining RLE property: a table hit occurs only when the
        ongoing run reaches a previously observed completed length."""
        predictor = RLEChangePredictor(1, use_confidence=False)
        # Learn: phase 1 runs for 3 intervals, then changes to 2.
        feed(predictor, [1, 1, 1, 2, 2])
        # Re-enter phase 1 and watch the running key.
        predictor.advance(1)   # run length 1
        assert not predictor.predict_next().hit
        predictor.advance(1)   # run length 2
        assert not predictor.predict_next().hit
        predictor.advance(1)   # run length 3: matches the learned length
        prediction = predictor.predict_next()
        assert prediction.hit
        assert prediction.matches(2)

    def test_different_run_length_never_hits(self):
        predictor = RLEChangePredictor(1, use_confidence=False)
        feed(predictor, [1, 1, 1, 2, 2])   # learned length 3
        predictor.advance(1)
        predictor.advance(1)
        predictor.advance(3)               # actual change at length 2
        prediction = predictor.predict_change()
        assert not prediction.hit          # key (1,2) was never stored


class TestTraining:
    def test_repeating_pattern_predicts_change_outcomes(self):
        predictor = RLEChangePredictor(2, use_confidence=False)
        pattern = [1, 1, 2, 2, 2] * 6
        hits, correct = 0, 0
        for phase_id in pattern:
            completed = predictor.advance(phase_id).completed_run
            if completed is not None:
                prediction = predictor.predict_change()
                if prediction.hit:
                    hits += 1
                    correct += prediction.matches(phase_id)
                predictor.train_change(predictor.change_key(), phase_id)
        assert hits >= 5
        assert correct == hits  # strictly periodic: always right

    def test_confidence_gates_predictions(self):
        predictor = RLEChangePredictor(1, use_confidence=True)
        feed(predictor, [1, 1, 2, 2])     # entry ((1,2)) -> 2 inserted
        predictor.advance(1)
        predictor.advance(1)
        prediction = predictor.predict_next()
        assert prediction.hit
        assert not prediction.confident    # unverified entry

    def test_last4_entry_kind_supported(self):
        predictor = RLEChangePredictor(1, entry_kind="last4",
                                       use_confidence=False)
        feed(predictor, [1, 1, 2, 1, 1, 3, 1, 1, 4])
        predictor.advance(1)
        predictor.advance(1)
        prediction = predictor.predict_next()
        assert prediction.hit
        assert set(prediction.outcomes) == {2, 3, 4}
