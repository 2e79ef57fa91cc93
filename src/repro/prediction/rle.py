"""RLE-N phase-change predictors (paper §5.2.3).

An RLE-N predictor indexes its table with the most recent N
(phase ID, run length) pairs from the run-length-encoded phase history.
Because the key carries the run length, a table hit mid-run predicts
not just *what* the next phase is but *when* the change happens: the
key only matches once the ongoing run reaches a length at which a
change was previously observed.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.prediction.assoc_table import KeyShape
from repro.prediction.change_base import ChangePredictorBase, Key


class RLEChangePredictor(ChangePredictorBase):
    """Phase-change predictor indexed by run-length-encoded history.

    Its key is the flat tuple ``(phase, length) * depth`` of the newest
    ``depth`` runs, oldest first.

    Parameters
    ----------
    depth:
        N — how many (phase ID, run length) pairs form the key (1 or 2
        in the paper).
    entry_kind / use_confidence / entries / assoc:
        See :class:`~repro.prediction.change_base.ChangePredictorBase`.
    """

    def __init__(
        self,
        depth: int = 2,
        entries: int = 32,
        assoc: int = 4,
        entry_kind: str = "single",
        use_confidence: bool = True,
    ) -> None:
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        super().__init__(
            KeyShape("rle", depth, 2),
            entries=entries,
            assoc=assoc,
            entry_kind=entry_kind,
            use_confidence=use_confidence,
            history_depth=max(depth + 2, 8),
        )
        self.depth = depth

    #: Snapshot type tag (see :mod:`repro.service.snapshot`).
    snapshot_kind = "rle"

    def snapshot_kwargs(self) -> dict:
        kwargs = super().snapshot_kwargs()
        kwargs["depth"] = self.depth
        return kwargs

    def change_key(self) -> Optional[Key]:
        # After advance() pushed the completed run, the RLE history's
        # newest pair is the run the change just ended.
        size = 2 * self.depth
        runs = self._runs
        if len(runs) < size:
            return None
        return tuple(runs[len(runs) - size:])

    def running_key(self) -> Optional[Key]:
        if self._current_phase is None:
            return None
        size = 2 * (self.depth - 1)
        runs = self._runs
        if len(runs) < size:
            return None
        return tuple(runs[len(runs) - size:]) + (
            self._current_phase, self._current_run,
        )
