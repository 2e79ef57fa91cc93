"""Unit tests for the perfect (oracle) Markov predictors."""

import pytest

from repro.errors import ConfigurationError
from repro.prediction.perfect import PerfectMarkovPredictor


class TestPerfectMarkov:
    def test_no_change_returns_none(self):
        oracle = PerfectMarkovPredictor(1)
        assert oracle.advance(1).oracle_correct is None
        assert oracle.advance(1).oracle_correct is None

    def test_first_occurrence_incorrect(self):
        oracle = PerfectMarkovPredictor(1)
        oracle.advance(1)
        assert oracle.advance(2).oracle_correct is False  # cold transition

    def test_repeat_occurrence_correct(self):
        oracle = PerfectMarkovPredictor(1)
        for phase in (1, 2, 1):
            oracle.advance(phase)
        # Transition 1->2 was seen before: now correct.
        assert oracle.advance(2).oracle_correct is True

    def test_unbounded_memory(self):
        oracle = PerfectMarkovPredictor(1)
        # 100 distinct transitions, then replay them all: all correct.
        for i in range(100):
            oracle.advance(i)
        for i in range(100):
            verdict = oracle.advance(i).oracle_correct
        # The final transitions repeat (99 -> 0 ... seen?); at minimum
        # the oracle recorded every first-pass transition.
        assert oracle.transitions_recorded >= 100

    def test_order2_needs_two_history_entries(self):
        oracle = PerfectMarkovPredictor(2)
        oracle.advance(1)
        # First change: history too shallow for an order-2 key.
        assert oracle.advance(2).oracle_correct is False

    def test_order2_distinguishes_contexts(self):
        oracle = PerfectMarkovPredictor(2)
        # (1,2)->3 then (4,2)->5: contexts differ, both cold.
        for phase in (1, 2, 3):
            oracle.advance(phase)
        for phase in (4, 2):
            oracle.advance(phase)
        assert oracle.advance(5).oracle_correct is False   # (4,2)->5 never seen
        # Replay (1,2)->3: seen before.
        for phase in (1, 2):
            oracle.advance(phase)
        assert oracle.advance(3).oracle_correct is True

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            PerfectMarkovPredictor(0)

    def test_perfect_accuracy_on_cycle(self):
        oracle = PerfectMarkovPredictor(1)
        cycle = [1, 2, 3] * 10
        verdicts = [
            verdict
            for verdict in (oracle.advance(p).oracle_correct for p in cycle)
            if verdict is not None
        ]
        # After the first lap every change repeats.
        assert all(verdicts[3:])
        assert verdicts[:2] == [False, False]
