"""Unit tests for Markov-N phase-change predictors."""

import pytest

from repro.errors import ConfigurationError
from repro.prediction.change_base import predicted_outcomes, record_outcome
from repro.prediction.markov import MarkovChangePredictor


def change_key(predictor):
    """The predictor's change key in its snapshot form."""
    return predictor.key_shape.nest(predictor.change_key())


def running_key(predictor):
    """The predictor's running key in its snapshot form."""
    return predictor.key_shape.nest(predictor.running_key())


def feed(predictor, phase_ids, train=True):
    """Drive a predictor over a phase stream, training at changes."""
    for phase_id in phase_ids:
        completed = predictor.advance(phase_id).completed_run
        if completed is not None and train:
            predictor.train_change(predictor.change_key(), phase_id)


class TestHistory:
    def test_runs_accumulate(self):
        predictor = MarkovChangePredictor(1)
        feed(predictor, [1, 1, 2, 2, 2, 3])
        assert predictor.completed_runs == [(1, 2), (2, 3)]
        assert predictor.current_phase == 3
        assert predictor.current_run_length == 1

    def test_observe_returns_completed_run(self):
        predictor = MarkovChangePredictor(1)
        assert predictor.advance(1).completed_run is None
        assert predictor.advance(1).completed_run is None
        assert predictor.advance(2).completed_run == (1, 2)

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            MarkovChangePredictor(0)


class TestKeys:
    def test_change_key_uses_completed_run_phase(self):
        predictor = MarkovChangePredictor(1)
        feed(predictor, [1, 1, 2], train=False)
        assert change_key(predictor) == ("markov", 1, (1,))

    def test_running_key_includes_current_phase(self):
        predictor = MarkovChangePredictor(1)
        feed(predictor, [1, 1, 2], train=False)
        assert running_key(predictor) == ("markov", 1, (2,))

    def test_order2_key_has_two_unique_ids(self):
        predictor = MarkovChangePredictor(2)
        feed(predictor, [1, 1, 2, 2, 3], train=False)
        assert change_key(predictor) == ("markov", 2, (1, 2))
        assert running_key(predictor) == ("markov", 2, (2, 3))

    def test_key_none_with_shallow_history(self):
        predictor = MarkovChangePredictor(2)
        predictor.advance(1)
        assert predictor.running_key() is None


class TestPrediction:
    def test_learns_alternation(self):
        predictor = MarkovChangePredictor(1, use_confidence=False)
        # Phase stream 1,2,1,2,...: after training, following phase 1
        # the table predicts 2.
        feed(predictor, [1, 2, 1, 2, 1, 2])
        prediction = predictor.predict_next()
        assert prediction.hit
        assert prediction.primary in (1, 2)

    def test_change_prediction_correct_on_repeat(self):
        predictor = MarkovChangePredictor(1, use_confidence=False)
        feed(predictor, [1, 1, 2, 2, 1, 1])
        # At this point history has seen change 1->2 once.
        predictor.advance(2)   # the change 1->2 happens again
        prediction = predictor.predict_change()
        assert prediction.hit
        assert prediction.matches(2)

    def test_no_confidence_predictions_always_confident(self):
        predictor = MarkovChangePredictor(1, use_confidence=False)
        feed(predictor, [1, 1, 2, 1])
        if predictor.predict_next().hit:
            assert predictor.predict_next().confident

    def test_confidence_requires_verification(self):
        predictor = MarkovChangePredictor(1, use_confidence=True)
        feed(predictor, [1, 1, 2])
        # Entry (1)->2 just inserted: 1-bit counter at 0, not confident.
        predictor.advance(1)
        predictor.advance(1)
        key = predictor.running_key()
        slot = predictor.table.peek(key)
        assert slot is not None
        assert not predictor.confident(slot)
        # A second correct observation of the change confirms it.
        predictor.train_change(key, 2)
        assert predictor.confident(slot)

    def test_miss_returns_empty_prediction(self):
        predictor = MarkovChangePredictor(1)
        predictor.advance(1)
        prediction = predictor.predict_next()
        assert not prediction.hit
        assert prediction.outcomes == ()
        assert prediction.primary is None


def outcomes(kind, *seen):
    """What an entry of ``kind`` predicts after ``seen`` outcomes."""
    recent, freq = (), ()
    for outcome in seen:
        recent, freq = record_outcome(recent, freq, outcome)
    return predicted_outcomes(kind, recent, freq)


class TestEntryKinds:
    def test_single_keeps_latest(self):
        assert outcomes("single", 2, 3) == (3,)

    def test_last4_keeps_unique_recent(self):
        predicted = outcomes("last4", 1, 2, 3, 4, 5, 2)
        assert predicted[0] == 2          # most recent first
        assert set(predicted) == {2, 5, 4, 3}

    def test_top1_most_frequent(self):
        assert outcomes("top1", 1, 2, 2, 2, 3) == (2,)

    def test_top4_frequency_order(self):
        predicted = outcomes("top4", 1, 1, 1, 2, 2, 3, 4, 4)
        assert predicted[0] == 1
        assert len(predicted) == 4

    def test_empty_entry_predicts_nothing(self):
        assert outcomes("last4") == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            MarkovChangePredictor(1, entry_kind="top9")

    def test_predictor_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            MarkovChangePredictor(1, entry_kind="bogus")


class TestRemoval:
    def test_note_same_phase_removes_entry(self):
        predictor = MarkovChangePredictor(1, use_confidence=False)
        feed(predictor, [1, 1, 2])
        predictor.advance(1)
        key = predictor.running_key()
        assert predictor.table.peek(key) is not None
        predictor.note_same_phase(key)
        assert predictor.table.peek(key) is None

    def test_train_none_key_is_noop(self):
        predictor = MarkovChangePredictor(2)
        predictor.train_change(None, 5)
        assert len(predictor.table) == 0
