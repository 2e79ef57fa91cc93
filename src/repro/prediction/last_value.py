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

from repro.errors import ConfigurationError, PredictionError
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
        if not 1 <= confidence_bits <= 30:
            raise ConfigurationError(
                f"confidence_bits must be in [1, 30], got {confidence_bits}"
            )
        if not 0 <= confidence_threshold <= (1 << confidence_bits) - 1:
            raise ConfigurationError(
                f"threshold {confidence_threshold} out of range for "
                f"{confidence_bits} bits"
            )
        self.use_confidence = use_confidence
        self.confidence_bits = confidence_bits
        self.confidence_threshold = confidence_threshold
        self._confidence_max = (1 << confidence_bits) - 1
        # Phase ID -> saturating counter value, in first-use order.
        # "Whenever a new entry is added to the phase ID signature
        # table, we reset the associated confidence counter": a phase
        # first used starts at 0.
        self._counters: Dict[int, int] = {}
        self._current: Optional[int] = None
        self.predictions = 0
        self.correct = 0

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
            self._counters.setdefault(self._current, 0)
            >= self.confidence_threshold
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
        current = self._current
        if current is not None:
            correct = phase_id == current
            changed = not correct
            self.predictions += 1
            value = self._counters.get(current, 0)
            if correct:
                self.correct += 1
                self._counters[current] = min(value + 1, self._confidence_max)
            else:
                self._counters[current] = max(value - 1, 0)
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
                [phase, value] for phase, value in self._counters.items()
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
            value = int(value)
            if not 0 <= value <= self._confidence_max:
                raise ConfigurationError(
                    f"confidence {value} out of range for "
                    f"{self.confidence_bits} bits"
                )
            self._counters[int(phase)] = value
        self._current = state["current"]
        self.predictions = int(state["predictions"])
        self.correct = int(state["correct"])

    @property
    def accuracy(self) -> float:
        """Raw accuracy over all predictions made so far."""
        if self.predictions == 0:
            return 0.0
        return self.correct / self.predictions
