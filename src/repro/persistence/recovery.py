"""Crash recovery: checkpoints fast-forward, the journal tail replays.

:func:`recover_state` rebuilds the full session population from a data
directory, tolerating everything a ``kill -9`` leaves behind:

1. Load every readable checkpoint (name -> snapshot + covered ``seq``).
2. Replay the journal in sequence order (torn tails truncated by
   :func:`~repro.persistence.journal.replay_journal`):

   - an ``open`` record *materializes* a fresh tracker — unless a
     checkpoint already covers it;
   - an ``observe`` record is applied through the tracker's own
     ``observe_batch`` (the vectorized ingest path the live service
     uses, so replayed state is byte-identical to never-crashed
     state). Its ``pcs`` and ``counts`` arrive as int64 arrays from a
     binary record, or as JSON lists from one written before binary
     records existed; both replay identically. A session whose first
     uncovered record is an observe is materialized from its
     checkpoint on demand;
   - a ``close`` record drops the session and schedules its checkpoint
     for deletion.

3. Sessions that needed no replay stay **cold**: their checkpoint is
   current, so they hydrate on first touch instead of occupying RAM —
   which is what keeps recovery O(journal tail), not O(all sessions).

Damage beyond the torn tail (a checkpoint that will not restore, a
record that will not apply) demotes the affected session instead of
failing recovery: back to its last good checkpoint when one exists,
dropped and counted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.core.online import PhaseTracker
from repro.errors import PersistenceError, ReproError
from repro.persistence.checkpoints import CheckpointStore
from repro.persistence.journal import ReplayStats, replay_journal
from repro.service.session import build_config
from repro.service.snapshot import restore_tracker
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


@dataclass
class RecoveredSession:
    """One session materialized during replay."""

    name: str
    tracker: PhaseTracker
    intervals_pushed: int = 0
    branches_ingested: int = 0
    #: Highest journal seq applied to (or covering) this session.
    last_seq: int = 0
    #: The checkpoint seq it was fast-forwarded from, if any.
    checkpoint_seq: Optional[int] = None
    #: Its ``open`` record's seq, when it was built from one.
    first_seq: Optional[int] = None


@dataclass
class RecoveryResult:
    """Everything :func:`recover_state` reconstructed and counted."""

    #: Materialized sessions (had journal records past their checkpoint).
    live: Dict[str, RecoveredSession] = field(default_factory=dict)
    #: Checkpoint-current sessions left on disk: name -> covered seq.
    cold: Dict[str, int] = field(default_factory=dict)
    #: Sessions closed in the journal whose checkpoint files linger.
    closed: List[str] = field(default_factory=list)
    next_seq: int = 1
    replayed_records: int = 0
    skipped_records: int = 0
    #: Records naming a session recovery knows nothing about.
    orphaned_records: int = 0
    #: Sessions demoted/dropped because their state would not apply.
    damaged_sessions: int = 0
    journal: ReplayStats = field(default_factory=ReplayStats)

    @property
    def sessions(self) -> int:
        return len(self.live) + len(self.cold)


def _materialize_open(record: dict) -> PhaseTracker:
    """Build the tracker an ``open`` record describes, exactly as the
    registry's open path would."""
    snapshot = record.get("snapshot")
    if snapshot is not None:
        return restore_tracker(snapshot)
    if record.get("snapshot_ref") == "checkpoint":
        # The restore snapshot was too large to travel inline and was
        # published as a checkpoint covering this record. Reaching
        # here means that checkpoint is gone — a fresh tracker would
        # silently impersonate the restored one.
        raise PersistenceError(
            "open record references a checkpointed snapshot that no "
            "longer exists"
        )
    return PhaseTracker(
        build_config(record.get("config")),
        interval_instructions=(
            record.get("interval_instructions")
            or DEFAULT_INTERVAL_INSTRUCTIONS
        ),
    )


def _materialize_checkpoint(document: dict) -> RecoveredSession:
    meta = document.get("meta") or {}
    return RecoveredSession(
        name=document["session"],
        tracker=restore_tracker(document["snapshot"]),
        intervals_pushed=int(meta.get("intervals_pushed", 0)),
        branches_ingested=int(meta.get("branches_ingested", 0)),
        last_seq=int(document["seq"]),
        checkpoint_seq=int(document["seq"]),
    )


def recover_state(
    journal_root: Union[str, Path],
    checkpoints: CheckpointStore,
    telemetry: "Optional[Telemetry]" = None,
) -> RecoveryResult:
    """Rebuild the session population from ``journal_root`` plus
    ``checkpoints``. Never raises for on-disk damage — torn tails,
    unreadable checkpoints, and unappliable records are counted (and
    reported via telemetry events) instead."""
    result = RecoveryResult()
    documents = checkpoints.load_all()
    checkpoint_seq = {
        name: int(document["seq"]) for name, document in documents.items()
    }
    replay = replay_journal(journal_root, truncate=True, telemetry=telemetry)
    result.journal = replay.stats
    # A crash can leave a durable checkpoint covering seqs the on-disk
    # journal never kept (sync=none, or a tail lost to the machine).
    # Never hand those seqs out again: a restarted journal reusing
    # them would have its records skipped as "covered" on the *next*
    # recovery, silently dropping acknowledged observes.
    max_covered = max(checkpoint_seq.values(), default=0)
    result.next_seq = max(replay.stats.next_seq, max_covered + 1)

    live = result.live
    dead: set = set()  # closed or damaged-beyond-recovery this replay

    for record in replay.records:
        kind = record.get("kind")
        name = record.get("session")
        seq = record["seq"]
        if not isinstance(name, str):
            result.orphaned_records += 1
            continue

        if kind == "open":
            covered = checkpoint_seq.get(name)
            if covered is not None and covered >= seq:
                result.skipped_records += 1
                continue
            try:
                tracker = _materialize_open(record)
            except ReproError:
                result.damaged_sessions += 1
                dead.add(name)
                continue
            dead.discard(name)
            live[name] = RecoveredSession(
                name=name, tracker=tracker, last_seq=seq, first_seq=seq
            )
            result.replayed_records += 1

        elif kind == "observe":
            if name in dead:
                result.skipped_records += 1
                continue
            session = live.get(name)
            if session is None:
                covered = checkpoint_seq.get(name)
                if covered is None:
                    # Its open record was compacted away and no
                    # checkpoint survived: nothing to replay onto.
                    result.orphaned_records += 1
                    continue
                if seq <= covered:
                    result.skipped_records += 1
                    continue
                try:
                    session = _materialize_checkpoint(documents[name])
                except (ReproError, KeyError, TypeError, ValueError):
                    result.damaged_sessions += 1
                    dead.add(name)
                    continue
                live[name] = session
            try:
                reports = session.tracker.observe_batch(
                    record["pcs"],
                    record["counts"],
                    cpi=record.get("cpi", 1.0),
                )
            except (ReproError, KeyError, TypeError, ValueError):
                # The record will not apply: demote the session to its
                # last good checkpoint rather than serve half-replayed
                # state.
                result.damaged_sessions += 1
                live.pop(name, None)
                if name not in checkpoint_seq:
                    dead.add(name)
                if telemetry is not None:
                    telemetry.emit(
                        "recovery_record_unappliable",
                        session=name, record_seq=seq,
                    )
                continue
            session.intervals_pushed += len(reports)
            session.branches_ingested += len(record["pcs"])
            session.last_seq = seq
            result.replayed_records += 1

        elif kind == "close":
            live.pop(name, None)
            covered = checkpoint_seq.get(name)
            # A checkpoint stamped *after* this close belongs to a
            # newer incarnation of the name (close -> reopen ->
            # checkpoint -> crash before the file swap) — keep it.
            if covered is not None and covered < seq:
                checkpoint_seq.pop(name)
                result.closed.append(name)
            if covered is None or covered < seq:
                dead.add(name)
            result.replayed_records += 1

        else:
            result.orphaned_records += 1

    # Checkpoint-current sessions that never needed replay stay cold.
    for name, seq in checkpoint_seq.items():
        if name not in live and name not in dead:
            result.cold[name] = seq

    if telemetry is not None:
        telemetry.emit(
            "recovery_complete",
            live=len(live),
            cold=len(result.cold),
            replayed=result.replayed_records,
            skipped=result.skipped_records,
            orphaned=result.orphaned_records,
            damaged=result.damaged_sessions,
            torn_tails=result.journal.torn_tails,
            next_seq=result.next_seq,
        )
        telemetry.metrics.counter(
            "repro_persistence_replayed_records_total",
            "Journal records applied during crash recovery",
        ).inc(result.replayed_records)
        telemetry.metrics.counter(
            "repro_persistence_recoveries_total",
            "Recovery passes completed",
        ).inc()
    return result
