"""Markov-N phase-change predictors (paper §5.2.2, §6.1).

A Markov-N predictor indexes its table with the last N *unique* phase
IDs (consecutive repeats collapsed). Entry variants give the paper's
Last-4 and Top-N predictors; ``entries=128`` gives the "128 Entry
Markov-2" bar of Figure 8.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.prediction.assoc_table import KeyShape
from repro.prediction.change_base import ChangePredictorBase, Key


class MarkovChangePredictor(ChangePredictorBase):
    """Phase-change predictor indexed by the last N unique phase IDs.

    Its key is the tuple of those N IDs, oldest first.

    Parameters
    ----------
    order:
        N — how many unique phase IDs form the key (1 or 2 in the
        paper).
    entry_kind / use_confidence / entries / assoc:
        See :class:`~repro.prediction.change_base.ChangePredictorBase`.
    """

    def __init__(
        self,
        order: int = 1,
        entries: int = 32,
        assoc: int = 4,
        entry_kind: str = "single",
        use_confidence: bool = True,
    ) -> None:
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        super().__init__(
            KeyShape("markov", order, 1),
            entries=entries,
            assoc=assoc,
            entry_kind=entry_kind,
            use_confidence=use_confidence,
            history_depth=max(order + 2, 8),
        )
        self.order = order

    #: Snapshot type tag (see :mod:`repro.service.snapshot`).
    snapshot_kind = "markov"

    def snapshot_kwargs(self) -> dict:
        kwargs = super().snapshot_kwargs()
        kwargs["order"] = self.order
        return kwargs

    def _unique_history(self, include_current: bool) -> Optional[Key]:
        """The last N unique phase IDs, oldest first.

        ``include_current`` appends the ongoing run's phase (mid-run
        keys); otherwise the newest ID is the most recently *completed*
        run's phase (change-time keys).
        """
        ids = self._runs[0::2]
        if include_current and self._current_phase is not None:
            ids.append(self._current_phase)
        if len(ids) < self.order:
            return None
        return tuple(ids[len(ids) - self.order:])

    def change_key(self) -> Optional[Key]:
        # After advance() pushed the completed run, the completed run's
        # phase is the newest element of the unique-ID history.
        return self._unique_history(include_current=False)

    def running_key(self) -> Optional[Key]:
        return self._unique_history(include_current=True)
