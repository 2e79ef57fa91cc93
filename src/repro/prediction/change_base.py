"""Shared machinery for table-based phase-change predictors.

The Markov-N and RLE-N predictors differ only in how they index their
prediction table; everything else — entry variants (single outcome,
Last-4 unique outcomes, Top-N most frequent outcomes), the per-entry
1-bit confidence counter, and the paper's table update rules (§5.2.3) —
is shared and lives here.

Entry variants (paper §5.2.2, §6.1):

- ``single`` — the entry stores the most recent outcome of the change.
- ``last4`` — the entry stores the last 4 *unique* outcomes; a
  prediction counts as correct when the actual outcome is any of them.
- ``top1`` / ``top4`` — the entry tracks outcome frequencies and
  predicts the 1 (or 4) most frequent outcome(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SnapshotError
from repro.prediction.assoc_table import (
    AssociativeTable,
    KeyShape,
    phase_or_none,
)
from repro.prediction.protocol import PhaseObservation

ENTRY_KINDS = ("single", "last4", "top1", "top4")

#: A flat predictor key (see :class:`~repro.prediction.assoc_table.KeyShape`).
Key = Tuple[int, ...]

#: Unique outcomes an entry remembers, newest last.
RECENT_OUTCOMES = 4


def record_outcome(
    recent: Tuple[int, ...], freq: Tuple[int, ...], outcome: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """An entry's outcome stores after one more observed outcome.

    ``recent`` holds the last :data:`RECENT_OUTCOMES` unique outcomes,
    newest last (its last element is the entry's latest outcome);
    ``freq`` the outcome counts as a flat ``(outcome, count, ...)``
    tuple in first-seen order.
    """
    others = tuple(seen for seen in recent if seen != outcome)
    recent = (others + (outcome,))[-RECENT_OUTCOMES:]
    for index in range(0, len(freq), 2):
        if freq[index] == outcome:
            return recent, (
                freq[:index + 1] + (freq[index + 1] + 1,) + freq[index + 2:]
            )
    return recent, freq + (outcome, 1)


def predicted_outcomes(
    kind: str, recent: Tuple[int, ...], freq: Tuple[int, ...]
) -> Tuple[int, ...]:
    """The outcome set an entry of ``kind`` currently predicts.

    The first element is the primary prediction (used when a single
    phase ID must be produced); for ``last4``/``top4`` a match on any
    element counts as correct.
    """
    if not recent:
        return ()
    if kind == "single":
        return recent[-1:]
    if kind == "last4":
        return recent[::-1]
    count = 1 if kind == "top1" else 4
    # The sort is stable: frequency ties keep first-seen order.
    ranked = sorted(
        zip(freq[::2], freq[1::2]), key=itemgetter(1), reverse=True
    )
    return tuple(outcome for outcome, _ in ranked[:count])


@dataclass(frozen=True)
class ChangePrediction:
    """A phase-change table lookup result.

    ``outcomes`` is empty on a tag miss. ``confident`` reflects the
    entry's confidence counter (always True when the predictor runs
    without table confidence).
    """

    outcomes: Tuple[int, ...]
    confident: bool
    hit: bool

    @property
    def primary(self) -> Optional[int]:
        """The single phase ID predicted, or ``None`` on a miss."""
        return self.outcomes[0] if self.outcomes else None

    def matches(self, actual: int) -> bool:
        """Whether ``actual`` is within the predicted outcome set."""
        return actual in self.outcomes


class ChangePredictorBase:
    """Phase-change predictor over an associative table.

    Subclasses define the table key via :meth:`change_key` (used when a
    run has just completed) and :meth:`running_key` (used mid-run for
    next-interval prediction), both flat int tuples of ``key_shape``.
    The stream of classified phase IDs is fed through :meth:`advance`.

    A table way holds its key, three payload fields and its LRU stamp:
    the entry's recent outcomes and outcome counts (see
    :func:`record_outcome`) and its confidence, an int saturating at
    ``2**confidence_bits - 1`` and trusted from one below that (from 1
    for a 1-bit counter).

    Parameters
    ----------
    key_shape:
        The shape of the subclass's keys.
    entries / assoc:
        Prediction table geometry (32 entries, 4-way in the paper).
    entry_kind:
        Outcome-store variant; see module docstring.
    use_confidence:
        Gate predictions on the per-entry confidence counter.
    confidence_bits:
        Width of the per-entry confidence counter (1 in the paper).
    history_depth:
        Bound on retained run history (must cover the key depth).
    """

    def __init__(
        self,
        key_shape: KeyShape,
        entries: int = 32,
        assoc: int = 4,
        entry_kind: str = "single",
        use_confidence: bool = True,
        confidence_bits: int = 1,
        history_depth: int = 8,
    ) -> None:
        if history_depth < 1:
            raise ConfigurationError(
                f"history_depth must be >= 1, got {history_depth}"
            )
        if entry_kind not in ENTRY_KINDS:
            raise ConfigurationError(
                f"entry_kind must be one of {ENTRY_KINDS}, got {entry_kind!r}"
            )
        if not 1 <= confidence_bits <= 30:
            raise ConfigurationError(
                f"confidence_bits must be in [1, 30], got {confidence_bits}"
            )
        self.key_shape = key_shape
        self.table = AssociativeTable(
            entries=entries, assoc=assoc, fields=3,
            describe=key_shape.describe,
        )
        self._recent, self._freq, self._confidence = self.table.columns
        self.entry_kind = entry_kind
        self.use_confidence = use_confidence
        self.confidence_bits = confidence_bits
        self._confidence_max = (1 << confidence_bits) - 1
        self._confidence_threshold = max(self._confidence_max - 1, 1)
        self.history_depth = history_depth
        # Completed runs, oldest first, flat: phase, length, phase, ...
        self._runs: List[int] = []
        self._current_phase: Optional[int] = None
        self._current_run = 0

    # -- key construction (subclass responsibility) -------------------------

    def change_key(self) -> Optional[Key]:
        """Key for the change that ends the just-completed run.

        Called immediately after the completed run has been pushed to
        history. ``None`` when history is too shallow to form a key.
        """
        raise NotImplementedError

    def running_key(self) -> Optional[Key]:
        """Key for next-interval prediction mid-run (ongoing run
        included with its length so far)."""
        raise NotImplementedError

    # -- history ------------------------------------------------------------

    @property
    def current_phase(self) -> Optional[int]:
        return self._current_phase

    @property
    def current_run_length(self) -> int:
        return self._current_run

    @property
    def completed_runs(self) -> List[Tuple[int, int]]:
        """Retained completed (phase, length) runs, oldest first."""
        return list(zip(self._runs[0::2], self._runs[1::2]))

    def advance(self, phase_id: int) -> PhaseObservation:
        """Advance history with one classified interval.

        ``completed_run`` carries the completed (phase, run length)
        pair when this interval *changes* phase (i.e. ends a run). The
        caller is expected to have consumed predictions *before* calling
        this, and to train the table via :meth:`train_change` /
        :meth:`note_same_phase` per the §5.2.3 update rules.
        """
        if self._current_phase is None:
            self._current_phase = phase_id
            self._current_run = 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        if phase_id == self._current_phase:
            self._current_run += 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        completed = (self._current_phase, self._current_run)
        runs = self._runs
        runs += completed
        if len(runs) > 2 * self.history_depth:
            del runs[:len(runs) - 2 * self.history_depth]
        self._current_phase = phase_id
        self._current_run = 1
        return PhaseObservation(
            phase_id=phase_id, phase_changed=True, completed_run=completed
        )

    # -- prediction -----------------------------------------------------------

    def confident(self, slot: int) -> bool:
        """Whether the way in ``slot`` passes the confidence gate
        (always, without table confidence)."""
        return (
            not self.use_confidence
            or self._confidence[slot] >= self._confidence_threshold
        )

    def lookup(self, key: Optional[Key]) -> ChangePrediction:
        slot = self.table.lookup(key) if key is not None else None
        if slot is None:
            return ChangePrediction(outcomes=(), confident=False, hit=False)
        return ChangePrediction(
            outcomes=predicted_outcomes(
                self.entry_kind, self._recent[slot], self._freq[slot]
            ),
            confident=self.confident(slot),
            hit=True,
        )

    def predict_change(self) -> ChangePrediction:
        """Predict the outcome of the change ending the completed run.

        Valid immediately after :meth:`advance` reported a completed
        run — i.e. at a phase-change point, keyed by the completed run.
        """
        return self.lookup(self.change_key())

    def predict_next(self) -> ChangePrediction:
        """Predict mid-run whether/where the next interval changes phase."""
        return self.lookup(self.running_key())

    # -- training ---------------------------------------------------------------

    def _record_confidence(self, slot: int, correct: bool) -> None:
        value = self._confidence[slot]
        self._confidence[slot] = (
            min(value + 1, self._confidence_max) if correct
            else max(value - 1, 0)
        )

    def train_change(self, key: Optional[Key], actual: int) -> None:
        """Train the table with an observed change outcome.

        Follows §5.2.3: entries are only inserted on a phase change; an
        existing entry's confidence is trained against its *previous*
        prediction before the new outcome is recorded.
        """
        if key is None:
            return
        slot = self.table.lookup(key)
        if slot is None:
            self.table.insert(key, (actual,), (actual, 1), 0)
            return
        recent, freq = self._recent[slot], self._freq[slot]
        self._record_confidence(
            slot, actual in predicted_outcomes(self.entry_kind, recent, freq)
        )
        self._recent[slot], self._freq[slot] = record_outcome(
            recent, freq, actual
        )

    def note_same_phase(self, key: Optional[Key]) -> None:
        """§5.2.3 removal rule: a tag hit predicted a change, but the
        phase did not change — drop the entry, since last-value would
        have been correct."""
        if key is None:
            return
        self.table.remove(key)

    def demote(self, key: Optional[Key]) -> None:
        """Count one wrong prediction against ``key``'s entry, if it is
        present, without touching LRU state."""
        slot = self.table.peek(key) if key is not None else None
        if slot is not None:
            self._record_confidence(slot, False)

    # -- lifecycle / snapshot hooks -------------------------------------------

    def reset(self) -> None:
        """Forget all history and table contents, keeping configuration
        (geometry, entry kind, confidence) in place."""
        self.table.clear()
        self._runs.clear()
        self._current_phase = None
        self._current_run = 0

    def snapshot_kwargs(self) -> dict:
        """Constructor kwargs identifying this predictor for snapshots.

        Subclasses add their indexing parameter (``depth`` / ``order``)
        on top of the shared geometry captured here.
        """
        return {
            "entries": self.table.entries,
            "assoc": self.table.assoc,
            "entry_kind": self.entry_kind,
            "use_confidence": self.use_confidence,
        }

    @staticmethod
    def _encode_entry(
        recent: Tuple[int, ...], freq: Tuple[int, ...], confidence: int
    ) -> dict:
        return {
            "last": recent[-1] if recent else None,
            "recent": list(recent),
            "freq": list(zip(freq[::2], freq[1::2])),
            "confidence": confidence,
        }

    def _decode_entry(
        self, state: dict
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
        """An entry's fields from :meth:`_encode_entry` output.

        ``freq`` pairs are kept in first-seen order, which is what
        breaks top-N frequency ties — restoring in the same order keeps
        top-N predictions byte-identical. An entry's last outcome is
        its newest recent one, so a snapshot whose ``last`` disagrees
        is refused, as is one with more than four recent outcomes.
        """
        recent = tuple(int(value) for value in state["recent"])
        if len(recent) > RECENT_OUTCOMES:
            raise SnapshotError(
                f"change entry has {len(recent)} recent outcomes, at most "
                f"{RECENT_OUTCOMES} are kept"
            )
        if state["last"] != (recent[-1] if recent else None):
            raise SnapshotError(
                f"change entry's last outcome {state['last']!r} is not its "
                "newest recent outcome"
            )
        counts = {
            int(outcome): int(count) for outcome, count in state["freq"]
        }
        confidence = int(state["confidence"])
        if not 0 <= confidence <= self._confidence_max:
            raise ConfigurationError(
                f"confidence {confidence} out of range for "
                f"{self.confidence_bits} bits"
            )
        return (
            recent,
            tuple(value for pair in counts.items() for value in pair),
            confidence,
        )

    def export_state(self) -> dict:
        """JSON-safe predictor state (history + prediction table)."""
        runs = self._runs
        return {
            "runs": [
                [runs[index], runs[index + 1]]
                for index in range(0, len(runs), 2)
            ],
            "current_phase": self._current_phase,
            "current_run": self._current_run,
            "table": self.table.export_state(
                self.key_shape.nest, self._encode_entry
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a
        predictor constructed with the same configuration.

        Raises :class:`~repro.errors.SnapshotError` for a table the
        predictor could not have built: see
        :meth:`AssociativeTable.restore_state`, :meth:`KeyShape.flatten`
        and :meth:`_decode_entry`.
        """
        runs = [
            int(value) for phase, length in state["runs"]
            for value in (phase, length)
        ]
        self._runs[:] = runs[max(0, len(runs) - 2 * self.history_depth):]
        self._current_phase = phase_or_none(state["current_phase"])
        self._current_run = int(state["current_run"])
        self.table.restore_state(
            state["table"], self.key_shape.flatten, self._decode_entry
        )
