"""Journal compaction: drop the segments a checkpoint sweep superseded.

A journal segment named ``seg-<F>`` holds records with sequence
numbers in ``[F, F')`` where ``F'`` is the next segment's first seq.
:meth:`~repro.persistence.manager.PersistenceManager.checkpoint_all`
leaves every live session checkpointed at its last record, every cold
session's checkpoint current, and every closed session's checkpoint
deleted; after that, recovery would skip every record already written,
so :func:`compact_journal` deletes every segment but the active
(newest) one.

Deletion order is oldest-first, so a crash mid-compaction leaves a
journal that is merely less compacted, never less correct.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TYPE_CHECKING, Union

from repro.persistence.journal import list_segments

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


def compact_journal(
    root: Union[str, Path],
    active_path: "Optional[Union[str, Path]]" = None,
    telemetry: "Optional[Telemetry]" = None,
) -> int:
    """Delete every segment older than the active one (the newest
    when ``active_path`` is not given); returns how many were removed.
    """
    active = Path(active_path) if active_path is not None else None
    removed = 0
    for segment in list_segments(root)[:-1]:
        if segment == active:
            break
        try:
            segment.unlink()
        except OSError:  # pragma: no cover - raced deletion
            break
        removed += 1
    if telemetry is not None and removed:
        telemetry.metrics.counter(
            "repro_persistence_segments_compacted_total",
            "Journal segments deleted by compaction",
        ).inc(removed)
        telemetry.emit("journal_compacted", removed=removed)
    return removed
