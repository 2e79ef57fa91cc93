"""Perfect (oracle) Markov predictors (paper §6.1, Figure 8).

A Perfect Markov-N predictor has infinite memory: a phase change is
counted as correctly predicted if the (history, outcome) transition was
ever seen before. Its miss rate is pure cold-start — the upper bound on
any realizable predictor's phase-change coverage ("even a perfect
predictor with infinite memory can not correctly predict a phase change
it has never seen").
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.prediction.protocol import PhaseObservation


class PerfectMarkovPredictor:
    """Infinite-memory oracle over the last N unique phase IDs."""

    def __init__(self, order: int = 1) -> None:
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.order = order
        self._seen: Set[Tuple[Tuple[int, ...], int]] = set()
        self._unique_history: List[int] = []
        self._current: Optional[int] = None

    def _key(self) -> Optional[Tuple[int, ...]]:
        if len(self._unique_history) < self.order:
            return None
        return tuple(self._unique_history[-self.order:])

    def advance(self, phase_id: int) -> PhaseObservation:
        """Feed one classified interval.

        ``oracle_correct`` is ``None`` when the phase did not change;
        on a phase change, it reports whether the oracle had seen this
        transition before (i.e. whether a perfect predictor counts it
        correct), and the transition is recorded.
        """
        if self._current is None:
            self._current = phase_id
            self._unique_history.append(phase_id)
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        if phase_id == self._current:
            return PhaseObservation(phase_id=phase_id, phase_changed=False)

        key = self._key()
        if key is None:
            correct = False
        else:
            correct = (key, phase_id) in self._seen
            self._seen.add((key, phase_id))

        self._current = phase_id
        self._unique_history.append(phase_id)
        # Bound retained history: only the last `order` entries matter.
        self._unique_history = self._unique_history[-(self.order + 1):]
        return PhaseObservation(
            phase_id=phase_id, phase_changed=True, oracle_correct=correct
        )

    def reset(self) -> None:
        """Forget all recorded transitions and history, keeping the
        Markov order in place."""
        self._seen.clear()
        self._unique_history.clear()
        self._current = None

    @property
    def transitions_recorded(self) -> int:
        return len(self._seen)
