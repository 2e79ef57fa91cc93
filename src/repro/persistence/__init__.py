"""repro.persistence — the durable session tier (stdlib only).

Sessions used to live only in RAM behind the service registry's LRU
cap: idle users were silently destroyed, and a crash lost every
signature table and predictor the node had warmed — exactly the
transition-phase learning the source paper shows dominates accuracy.
This package makes phase history durable:

- :mod:`repro.persistence.journal` — append-only CRC-framed segment
  journal (``none`` / ``batch`` / ``always`` sync modes, torn-tail
  tolerant replay);
- :mod:`repro.persistence.checkpoints` — atomic per-session snapshot
  checkpoints (tmp + rename publication, CRC-verified loads);
- :mod:`repro.persistence.recovery` — ``kill -9`` recovery: checkpoints
  fast-forward, the journal tail replays through the tracker's own
  vectorized ingest, damage is counted instead of raised;
- :mod:`repro.persistence.compaction` — drop every journal segment
  but the active one once a checkpoint sweep has superseded them;
- :mod:`repro.persistence.manager` — :class:`PersistenceManager`, the
  facade built on the service's session registry: evict-to-disk,
  hydrate-on-demand, write-ahead logging, and checkpoint sweeps that
  leave the journal one segment.

Enable it on a server with ``repro-phases serve --data-dir PATH``
(plus ``--sync`` and ``--checkpoint-interval``), or in code via
``PhaseService(data_dir=...)``.
"""

from repro.persistence.checkpoints import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
)
from repro.persistence.compaction import compact_journal
from repro.persistence.journal import (
    Journal,
    JournalReplay,
    ReplayStats,
    SYNC_MODES,
    list_segments,
    replay_journal,
)
from repro.persistence.manager import PersistenceManager
from repro.persistence.recovery import RecoveryResult, recover_state

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "Journal",
    "JournalReplay",
    "PersistenceManager",
    "RecoveryResult",
    "ReplayStats",
    "SYNC_MODES",
    "compact_journal",
    "list_segments",
    "recover_state",
    "replay_journal",
]
