"""The combined next-phase predictor (paper §5.1-§5.2, Figure 7).

Architecture: a phase-change predictor (Markov or RLE table) backed by
a last-value predictor. Since incorrectly predicting a phase change is
worse than missing one, only *confident* phase-change table results are
used; otherwise the prediction falls back to last value. Two confidence
sets exist: a 1-bit counter per change-table entry, and a 3-bit
counter per phase for last-value predictions.

Update rules follow §5.2.3: the change table trains only on phase
changes or tag hits; a tag hit that fired while the phase did not
change is punished (confidence decrement, removal once exhausted —
without table confidence, immediate removal, since last value would
have been correct).

Results are accumulated in :class:`NextPhaseStats` using the exact
stacked categories of Figure 7.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import PredictionError, SnapshotError
from repro.prediction.change_base import ChangePredictorBase, Key
from repro.prediction.last_value import LastValuePredictor

#: Figure 7 stacked-bar categories, in display order.
CATEGORIES = (
    "correct_table",
    "correct_lv_conf",
    "correct_lv_unconf",
    "incorrect_lv_unconf",
    "incorrect_lv_conf",
    "incorrect_table",
)


@dataclass
class NextPhaseStats:
    """Outcome counts for next-interval phase prediction."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in CATEGORIES}
    )

    def record(self, category: str) -> None:
        if category not in self.counts:
            raise PredictionError(f"unknown category {category!r}")
        self.counts[category] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def correct(self) -> int:
        return (
            self.counts["correct_table"]
            + self.counts["correct_lv_conf"]
            + self.counts["correct_lv_unconf"]
        )

    @property
    def accuracy(self) -> float:
        """Overall accuracy, counting every interval."""
        return self.correct / self.total if self.total else 0.0

    @property
    def covered(self) -> int:
        """Predictions that were confident (table hit used, or last
        value with a confident counter)."""
        return (
            self.counts["correct_table"]
            + self.counts["incorrect_table"]
            + self.counts["correct_lv_conf"]
            + self.counts["incorrect_lv_conf"]
        )

    @property
    def coverage(self) -> float:
        """Fraction of intervals with a confident prediction."""
        return self.covered / self.total if self.total else 0.0

    @property
    def confident_accuracy(self) -> float:
        """Accuracy among confident predictions only."""
        correct = self.counts["correct_table"] + self.counts["correct_lv_conf"]
        return correct / self.covered if self.covered else 0.0

    @property
    def misprediction_rate(self) -> float:
        """Confident-and-wrong predictions over all intervals (the
        paper's 'miss rate' for confidence-gated prediction)."""
        wrong = (
            self.counts["incorrect_table"] + self.counts["incorrect_lv_conf"]
        )
        return wrong / self.total if self.total else 0.0

    def fractions(self) -> Dict[str, float]:
        """Per-category fractions (the Figure 7 bar segments)."""
        total = self.total or 1
        return {k: v / total for k, v in self.counts.items()}


@dataclass(frozen=True)
class NextPhasePrediction:
    """One next-interval prediction with provenance."""

    phase_id: int
    source: str  # "table" or "lv"
    confident: bool
    table_hit: bool


class CompositePhasePredictor:
    """Change-table + last-value next-phase predictor.

    Pass ``change_predictor=None`` for the pure last-value predictor
    (the first bar of Figure 7).
    """

    def __init__(
        self,
        change_predictor: Optional[ChangePredictorBase] = None,
        lv_use_confidence: bool = True,
    ) -> None:
        self.change_predictor = change_predictor
        self.last_value = LastValuePredictor(use_confidence=lv_use_confidence)
        self.stats = NextPhaseStats()
        self._pending: Optional[NextPhasePrediction] = None
        self._pending_key = None
        self._seeded = False

    def predict(self) -> NextPhasePrediction:
        """Predict the phase of the next interval."""
        predictor = self.change_predictor
        return self._predict(
            predictor.running_key() if predictor is not None else None
        )

    def _predict(self, key: Optional[Key]) -> NextPhasePrediction:
        """The prediction for the change predictor's running ``key``."""
        lv = self.last_value.predict()
        table_hit = False
        if key is not None:
            change = self.change_predictor.lookup(key)
            table_hit = change.hit
            if change.hit and change.confident and change.primary is not None:
                return NextPhasePrediction(
                    phase_id=change.primary,
                    source="table",
                    confident=True,
                    table_hit=True,
                )
        return NextPhasePrediction(
            phase_id=lv.phase_id,
            source="lv",
            confident=lv.confident,
            table_hit=table_hit,
        )

    def step(self, phase_id: int) -> Optional[NextPhasePrediction]:
        """Feed one classified interval; returns the evaluated prediction.

        The first interval only seeds state (no prediction existed).
        Each subsequent call evaluates the prediction made after the
        previous interval, trains all structures, and leaves a fresh
        prediction pending for the next call.
        """
        if not self._seeded:
            self.last_value.advance(phase_id)
            if self.change_predictor is not None:
                self.change_predictor.advance(phase_id)
            self._seeded = True
            self._prepare_prediction()
            return None

        prediction = self._pending
        if prediction is None:
            raise PredictionError("no pending prediction; driver bug")
        self._evaluate(prediction, phase_id)
        self._train(prediction, phase_id)
        self._prepare_prediction()
        return prediction

    def run(self, phase_ids: Iterable[int]) -> NextPhaseStats:
        """Drive the predictor over a whole classified phase stream."""
        for phase_id in phase_ids:
            self.step(int(phase_id))
        return self.stats

    @property
    def pending_prediction(self) -> Optional[NextPhasePrediction]:
        """The prediction awaiting evaluation at the next boundary —
        what the predictor currently believes the next phase will be.
        ``None`` before the first observed interval."""
        return self._pending

    # -- lifecycle / snapshot hooks -------------------------------------------

    def reset(self) -> None:
        """Forget all prediction state, keeping both component
        predictors' configurations in place."""
        if self.change_predictor is not None:
            self.change_predictor.reset()
        self.last_value.reset()
        self.stats = NextPhaseStats()
        self._pending = None
        self._pending_key = None
        self._seeded = False

    def export_state(self) -> dict:
        """JSON-safe full predictor state, pending prediction included
        (it is evaluated — and trains the tables — at the next step)."""
        return {
            "change_predictor": (
                self.change_predictor.export_state()
                if self.change_predictor is not None
                else None
            ),
            "last_value": self.last_value.export_state(),
            "stats": dict(self.stats.counts),
            "pending": (
                asdict(self._pending) if self._pending is not None else None
            ),
            "pending_key": (
                self.change_predictor.key_shape.nest(self._pending_key)
                if self._pending_key is not None
                else None
            ),
            "seeded": self._seeded,
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a
        predictor constructed with the same configuration."""
        if (state["change_predictor"] is None) != (
            self.change_predictor is None
        ):
            raise PredictionError(
                "snapshot and predictor disagree on the presence of a "
                "change predictor"
            )
        if self.change_predictor is not None:
            self.change_predictor.restore_state(state["change_predictor"])
        self.last_value.restore_state(state["last_value"])
        self.stats = NextPhaseStats(
            counts={
                category: int(state["stats"].get(category, 0))
                for category in CATEGORIES
            }
        )
        pending = state["pending"]
        self._pending = (
            NextPhasePrediction(**pending) if pending is not None else None
        )
        pending_key = state["pending_key"]
        if pending_key is not None and self.change_predictor is None:
            raise SnapshotError(
                "snapshot has a pending table key but no change predictor"
            )
        self._pending_key = (
            self.change_predictor.key_shape.flatten(pending_key)
            if pending_key is not None
            else None
        )
        self._seeded = bool(state["seeded"])

    # -- internals ----------------------------------------------------------

    def _prepare_prediction(self) -> None:
        # One running key per boundary: it is looked up now, and kept
        # for the early-fire rule at the next boundary.
        predictor = self.change_predictor
        key = predictor.running_key() if predictor is not None else None
        self._pending = self._predict(key)
        self._pending_key = key

    def _evaluate(
        self, prediction: NextPhasePrediction, actual: int
    ) -> None:
        correct = prediction.phase_id == actual
        if prediction.source == "table":
            self.stats.record(
                "correct_table" if correct else "incorrect_table"
            )
        else:
            suffix = "conf" if prediction.confident else "unconf"
            prefix = "correct" if correct else "incorrect"
            self.stats.record(f"{prefix}_lv_{suffix}")

    def _train(self, prediction: NextPhasePrediction, actual: int) -> None:
        self.last_value.advance(actual)
        predictor = self.change_predictor
        if predictor is None:
            return
        if predictor.advance(actual).phase_changed:
            # A phase change: train the entry keyed by the completed run.
            predictor.train_change(predictor.change_key(), actual)
        elif prediction.table_hit:
            # Tag hit, but the phase did not change: last value would
            # have been right. Punish the entry (decrement confidence;
            # remove when exhausted, or immediately without confidence).
            self._punish_early_fire()

    def _punish_early_fire(self) -> None:
        predictor = self.change_predictor
        assert predictor is not None
        if not predictor.use_confidence:
            predictor.note_same_phase(self._pending_key)
            return
        # With table confidence, an early fire demotes the entry rather
        # than removing it: the entry may still be right about *what*
        # the next phase is, just not about when. Removal is reserved
        # for the no-confidence configuration, where a surviving early
        # firer would mispredict on every interval of a stable run.
        predictor.demote(self._pending_key)
