"""Last-value phase prediction with per-phase confidence (§5.2.1, §5.1).

The last-value predictor always predicts that the next interval will be
classified into the same phase as the current one. Confidence is kept
*per phase* with a 3-bit saturating counter (threshold 6): stable
phases advance to confident status, rapidly changing ones are demoted —
"predicting last value will do well in stable phases, and poorly in
rapidly changing ones".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import PredictionError
from repro.prediction.counters import ConfidenceCounter
from repro.prediction.protocol import PhaseObservation


@dataclass(frozen=True)
class LastValuePrediction:
    """A last-value prediction and its confidence status."""

    phase_id: int
    confident: bool


class LastValuePredictor:
    """Predicts the next interval's phase equals the current one.

    Parameters
    ----------
    confidence_bits / confidence_threshold:
        Per-phase confidence counter geometry (3 bits, threshold 6 in
        the paper). Pass ``use_confidence=False`` to run the raw
        last-value baseline (every prediction treated as confident).
    """

    def __init__(
        self,
        use_confidence: bool = True,
        confidence_bits: int = 3,
        confidence_threshold: int = 6,
    ) -> None:
        self.use_confidence = use_confidence
        self.confidence_bits = confidence_bits
        self.confidence_threshold = confidence_threshold
        self._counters: Dict[int, ConfidenceCounter] = {}
        self._current: Optional[int] = None
        self.predictions = 0
        self.correct = 0

    def _counter_for(self, phase_id: int) -> ConfidenceCounter:
        counter = self._counters.get(phase_id)
        if counter is None:
            # "Whenever a new entry is added to the phase ID signature
            # table, we reset the associated confidence counter."
            counter = ConfidenceCounter(
                self.confidence_bits, threshold=self.confidence_threshold
            )
            self._counters[phase_id] = counter
        return counter

    def predict(self) -> LastValuePrediction:
        """Predict the next interval's phase.

        Raises :class:`PredictionError` before any interval has been
        observed (there is no last value yet).
        """
        if self._current is None:
            raise PredictionError(
                "last-value predictor has not observed any interval yet"
            )
        confident = (
            self._counter_for(self._current).confident
            if self.use_confidence
            else True
        )
        return LastValuePrediction(phase_id=self._current, confident=confident)

    def advance(self, phase_id: int) -> PhaseObservation:
        """Feed the actual phase of the next interval.

        Trains the confidence counter of the phase the prediction was
        made *from* and advances the last value. The first observation
        only seeds the last value.
        """
        changed = False
        if self._current is not None:
            correct = phase_id == self._current
            changed = not correct
            self.predictions += 1
            if correct:
                self.correct += 1
            self._counter_for(self._current).record(correct)
        self._current = phase_id
        return PhaseObservation(phase_id=phase_id, phase_changed=changed)

    @property
    def current_phase(self) -> Optional[int]:
        return self._current

    # -- lifecycle / snapshot hooks -------------------------------------------

    def reset(self) -> None:
        """Forget all per-phase confidence and the last value, keeping
        the confidence-counter configuration."""
        self._counters.clear()
        self._current = None
        self.predictions = 0
        self.correct = 0

    def export_state(self) -> dict:
        """JSON-safe predictor state."""
        return {
            "counters": [
                [phase, counter.value]
                for phase, counter in self._counters.items()
            ],
            "current": self._current,
            "predictions": self.predictions,
            "correct": self.correct,
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a
        predictor constructed with the same configuration."""
        self.reset()
        for phase, value in state["counters"]:
            self._counter_for(int(phase)).reset(int(value))
        self._current = state["current"]
        self.predictions = int(state["predictions"])
        self.correct = int(state["correct"])

    @property
    def accuracy(self) -> float:
        """Raw accuracy over all predictions made so far."""
        if self.predictions == 0:
            return 0.0
        return self.correct / self.predictions
