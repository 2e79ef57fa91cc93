"""Tournament phase-change predictor (beyond the paper).

The paper closes noting that "more advanced techniques are needed to
accurately predict phase changes" (§7). The two table families it
evaluates have complementary strengths: Markov keys (unique phase IDs)
generalize across run-length noise, while RLE keys carry timing and are
precise when run lengths repeat. A classic McFarling-style tournament
combines them: both components train on every change; a meta counter
tracks which one has been right when they disagree, and predictions
prefer the currently stronger component, falling back to the other on
a miss or unconfident entry.

The combiner duck-types the :class:`ChangePredictorBase` evaluation
interface (``advance`` / ``change_key`` / ``predict_change`` /
``train_change``) so :func:`repro.prediction.change_eval.
evaluate_change_predictor` drives it unchanged.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.errors import ConfigurationError
from repro.prediction.change_base import ChangePrediction, ChangePredictorBase
from repro.prediction.counters import SaturatingCounter
from repro.prediction.markov import MarkovChangePredictor
from repro.prediction.protocol import PhaseObservation
from repro.prediction.rle import RLEChangePredictor


class TournamentChangePredictor:
    """Meta-selected combination of two phase-change predictors.

    Parameters
    ----------
    first / second:
        Component predictors; defaults to Top-4 Markov-1 (the paper's
        best realizable predictor) and RLE-2 (the timing specialist).
    meta_bits:
        Width of the selector counter; high values prefer ``first``.
    """

    def __init__(
        self,
        first: Optional[ChangePredictorBase] = None,
        second: Optional[ChangePredictorBase] = None,
        meta_bits: int = 4,
    ) -> None:
        if meta_bits < 1:
            raise ConfigurationError(
                f"meta_bits must be >= 1, got {meta_bits}"
            )
        self.first = first or MarkovChangePredictor(1, entry_kind="top4")
        self.second = second or RLEChangePredictor(2)
        midpoint = (1 << meta_bits) // 2
        self.meta = SaturatingCounter(meta_bits, initial=midpoint)
        self._meta_threshold = midpoint
        #: Mirrors the component flag for evaluation bookkeeping.
        self.use_confidence = True

    # -- history -------------------------------------------------------------

    def advance(self, phase_id: int) -> PhaseObservation:
        """Advance both components; their run histories stay in step."""
        observation = self.first.advance(phase_id)
        observation_second = self.second.advance(phase_id)
        # Both components see the same stream, so completions agree.
        assert observation.phase_changed == observation_second.phase_changed
        return observation

    def reset(self) -> None:
        """Forget both components' state and recentre the selector."""
        self.first.reset()
        self.second.reset()
        self.meta.reset(self._meta_threshold)

    def change_key(self) -> Optional[Hashable]:
        """A composite key; training decomposes to the components."""
        first_key = self.first.change_key()
        second_key = self.second.change_key()
        if first_key is None and second_key is None:
            return None
        return ("tournament", first_key, second_key)

    # -- prediction -----------------------------------------------------------

    @property
    def prefers_first(self) -> bool:
        return self.meta.value >= self._meta_threshold

    def _ordered_components(self):
        if self.prefers_first:
            return self.first, self.second
        return self.second, self.first

    def predict_change(self) -> ChangePrediction:
        """Prefer the stronger component; fall back to the other."""
        preferred, fallback = self._ordered_components()
        prediction = preferred.predict_change()
        if prediction.hit and prediction.confident:
            return prediction
        alternative = fallback.predict_change()
        if alternative.hit and alternative.confident:
            return alternative
        # Neither is confident: report the best hit available.
        if prediction.hit:
            return prediction
        return alternative

    def predict_next(self) -> ChangePrediction:
        preferred, fallback = self._ordered_components()
        prediction = preferred.predict_next()
        if prediction.hit and prediction.confident:
            return prediction
        alternative = fallback.predict_next()
        if alternative.hit and alternative.confident:
            return alternative
        if prediction.hit:
            return prediction
        return alternative

    # -- training ---------------------------------------------------------------

    def train_change(self, key: Optional[Hashable], actual: int) -> None:
        """Train both components and the meta selector.

        The selector trains only when the components disagree on
        correctness (McFarling's rule), using their predictions as they
        stood *before* this training step.
        """
        first_prediction = self.first.predict_change()
        second_prediction = self.second.predict_change()
        first_correct = first_prediction.matches(actual)
        second_correct = second_prediction.matches(actual)
        if first_correct != second_correct:
            if first_correct:
                self.meta.up()
            else:
                self.meta.down()

        self.first.train_change(self.first.change_key(), actual)
        self.second.train_change(self.second.change_key(), actual)

    def note_same_phase(self, key: Optional[Hashable]) -> None:
        self.first.note_same_phase(self.first.running_key())
        self.second.note_same_phase(self.second.running_key())

    def running_key(self) -> Optional[Hashable]:
        first_key = self.first.running_key()
        second_key = self.second.running_key()
        if first_key is None and second_key is None:
            return None
        return ("tournament", first_key, second_key)
