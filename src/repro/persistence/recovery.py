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

3. Sessions that needed no replay stay **cold**, by name only: their
   checkpoint is current, so they hydrate on first touch instead of
   occupying RAM — which is what keeps recovery O(journal tail), not
   O(all sessions). Every materialized session is *dirty*.

Damage beyond the torn tail (a checkpoint that will not restore, a
record that will not apply) demotes the affected session instead of
failing recovery: back to its last good checkpoint when one exists,
dropped and counted otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.errors import PersistenceError, ReproError
from repro.persistence.checkpoints import CheckpointStore
from repro.persistence.journal import ReplayStats, replay_journal
from repro.service.session import Session, build_tracker
from repro.service.snapshot import restore_tracker
from repro.telemetry import Telemetry


@dataclass
class RecoveryResult:
    """Everything :func:`recover_state` reconstructed and counted."""

    #: Materialized sessions (had journal records past their checkpoint).
    live: Dict[str, Session] = field(default_factory=dict)
    #: Names of the checkpoint-current sessions left on disk.
    cold: Set[str] = field(default_factory=set)
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


def session_from_checkpoint(document: dict, now: float) -> Session:
    """The live session a checkpoint document describes: clean, its
    ``last_seq`` the seq the checkpoint covers. Hydration builds its
    sessions here too."""
    snapshot = document["snapshot"]
    tracker = restore_tracker(snapshot)
    if "branches" not in snapshot["tracker"]:
        # Written before the tracker counted its own branches, when the
        # count travelled beside the snapshot.
        meta = document.get("meta") or {}
        tracker.branches_observed = int(meta.get("branches_ingested", 0))
    session = Session(document["session"], tracker, now)
    session.last_seq = int(document["seq"])
    return session


def recover_state(
    journal_root: Union[str, Path],
    checkpoints: CheckpointStore,
    telemetry: "Optional[Telemetry]" = None,
) -> RecoveryResult:
    """Rebuild the session population from ``journal_root`` plus
    ``checkpoints``. Never raises for on-disk damage — torn tails,
    unreadable checkpoints, and unappliable records are counted (and
    reported via telemetry events) instead."""
    if telemetry is None:
        telemetry = Telemetry()
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
                if record.get("snapshot_ref") == "checkpoint":
                    # The restore snapshot was too large to travel
                    # inline and was published as a checkpoint covering
                    # this record. Reaching here means that checkpoint
                    # is gone — a fresh tracker would silently
                    # impersonate the restored one.
                    raise PersistenceError(
                        "open record references a checkpointed snapshot "
                        "that no longer exists"
                    )
                tracker = build_tracker(
                    record.get("config"),
                    record.get("interval_instructions"),
                    record.get("snapshot"),
                )
            except ReproError:
                result.damaged_sessions += 1
                dead.add(name)
                continue
            dead.discard(name)
            session = live[name] = Session(name, tracker, time.monotonic())
            session.last_seq = seq
            session.dirty = True
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
                    session = session_from_checkpoint(
                        documents[name], time.monotonic()
                    )
                except (ReproError, KeyError, TypeError, ValueError):
                    result.damaged_sessions += 1
                    dead.add(name)
                    continue
                live[name] = session
            try:
                session.tracker.observe_batch(
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
                telemetry.emit(
                    "recovery_record_unappliable",
                    session=name, record_seq=seq,
                )
                continue
            session.last_seq = seq
            session.dirty = True
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
    result.cold = set(checkpoint_seq).difference(live, dead)

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
