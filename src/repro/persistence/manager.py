"""The durable session tier behind one handle.

:class:`PersistenceManager` composes the journal, the checkpoint
store, recovery, and compaction on the session registry it serves: it
wires the registry's three hooks, reads its live sessions itself, and
takes the logging calls the server makes:

- **write path** — the server calls :meth:`log_open` /
  :meth:`log_observe` / :meth:`log_close` after each successful
  mutation and *before* acknowledging it, so the journal's sync mode
  is exactly the durability the client was promised.
- **evict-to-disk** — installed as the registry's ``on_evict``
  pre-drop hook: LRU eviction and idle-TTL expiry checkpoint the
  session and register it *cold* instead of destroying its phase
  history.
- **hydrate-on-demand** — installed as the registry's ``resolver``: a
  request naming a cold session restores its checkpoint (byte-identical
  to the never-evicted tracker, the property the test suite enforces)
  and the registry re-installs it. No journal scan is needed: a cold
  session's checkpoint is current by construction, because eviction
  wrote it after the session's last observe.
- **crash recovery** — construction replays the data directory
  (:func:`~repro.persistence.recovery.recover_state`) and adopts the
  reconstructed sessions into the registry, letting the registry's own
  eviction policy push overflow back to disk.
- **checkpoint + compact** — :meth:`checkpoint_all` (the server runs it
  on a timer and at shutdown) checkpoints every live
  :class:`~repro.service.session.Session` marked ``dirty``, then
  deletes every journal segment but the active one. A cold session is
  only a name here.

The layout under ``data_dir``::

    data_dir/
      journal/      seg-<first seq, hex>.jnl   (CRC-framed records;
                                                observes binary)
      checkpoints/  <sha256(session)>.ckpt     (atomic JSON snapshots)
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Dict, Optional, Set, TYPE_CHECKING, Union

from repro.errors import PersistenceError
from repro.persistence.checkpoints import CheckpointStore
from repro.persistence.compaction import compact_journal
from repro.persistence.journal import Journal
from repro.persistence.recovery import (
    RecoveryResult,
    recover_state,
    session_from_checkpoint,
)
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


class PersistenceManager:
    """Durable sessions for one data directory, behind one registry.

    Constructing the manager *is* recovery: the journal is replayed
    (torn tail truncated, a counted non-fatal event), every session the
    directory knows is reconstructed — materialized when it had a
    replay tail, left cold when its checkpoint is current — and the
    materialized ones are adopted into ``registry``.

    Parameters
    ----------
    data_dir:
        Root of the journal + checkpoint layout (created if missing).
    registry:
        The session registry made durable: its hooks are wired here,
        and its clock stamps recovered and hydrated sessions.
    sync:
        Journal durability mode (:data:`~repro.persistence.journal.SYNC_MODES`).
        ``none`` also skips checkpoint fsyncs.
    segment_bytes, batch_records:
        Journal rotation size and ``batch``-mode fsync cadence.
    telemetry:
        Optional hub: journal/checkpoint/hydrate counters, the
        durability-lag gauge, the fsync-latency histogram, and
        lifecycle events.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        registry: SessionRegistry,
        sync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        batch_records: int = 64,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.root = Path(data_dir).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_root = self.root / "journal"
        self._registry = registry
        self._telemetry = telemetry
        self.checkpoints = CheckpointStore(
            self.root / "checkpoints",
            fsync=sync != "none",
            telemetry=telemetry,
        )
        self.recovery: RecoveryResult = recover_state(
            self.journal_root, self.checkpoints, telemetry
        )
        self.journal = Journal(
            self.journal_root,
            sync=sync,
            segment_bytes=segment_bytes,
            batch_records=batch_records,
            next_seq=self.recovery.next_seq,
            telemetry=telemetry,
        )
        #: Names of the sessions evicted to disk.
        self._cold: Set[str] = set(self.recovery.cold)
        #: Closed sessions whose checkpoint may still be on disk: only
        #: their close records keep them closed until it is deleted.
        self._closed: Set[str] = set(self.recovery.closed).difference(
            self.recovery.live
        )
        with contextlib.suppress(PersistenceError):
            self._delete_closed()
        self.hydrated = 0
        self.hydrate_failures = 0
        self.evict_saves = 0
        if telemetry is not None:
            telemetry.counter(
                "repro_persistence_hydrates_total",
                "Cold sessions restored on demand",
                read=lambda: self.hydrated,
            )
            self._m_checkpoints = telemetry.counter(
                "repro_persistence_checkpoint_sessions_total",
                "Per-session checkpoints written",
            )
            telemetry.gauge(
                "repro_persistence_cold_sessions",
                "Sessions evicted to disk, hydrate-on-demand",
                read=lambda: len(self._cold),
            )

        registry.on_evict = self.save_session
        registry.resolver = self.resolve
        registry.name_reserved = self._cold.__contains__
        # Oldest activity first, so when the recovered population
        # exceeds the registry cap, the registry's own LRU eviction
        # (persistence-backed by now) pushes the stalest ones straight
        # back to disk as cold sessions.
        for session in sorted(
            self.recovery.live.values(), key=lambda session: session.last_seq
        ):
            session.last_active = registry.clock()
            registry.adopt(session)

    # -- write-ahead logging --------------------------------------------------

    def log_open(
        self,
        session: Session,
        config: Optional[dict] = None,
        interval_instructions: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ) -> int:
        """Journal a successful ``open``; returns the record's seq,
        which becomes ``session``'s ``last_seq``, and marks it dirty.

        A restore snapshot too large for one journal frame does not
        travel inline: the open record carries a marker instead and the
        session is checkpointed at once, covering the open record
        itself.
        """
        record = {
            "kind": "open",
            "session": session.name,
            "config": config,
            "interval_instructions": interval_instructions,
            "snapshot": snapshot,
        }
        try:
            session.last_seq = self.journal.append(record)
            session.dirty = True
        except PersistenceError:
            if snapshot is None or self.journal.closed:
                raise
            record.update(snapshot=None, snapshot_ref="checkpoint")
            session.last_seq = self.journal.append(record)
            self.checkpoint_session(session)
        # A reopened name's stale checkpoint is the new session's to
        # overwrite, never a closed session's to delete.
        self._closed.discard(session.name)
        return session.last_seq

    def log_observe(
        self, session: Session, pcs, counts, cpi: float = 1.0
    ) -> int:
        """Journal one applied observe batch as a binary record, its
        ``pcs`` and ``counts`` as int64 columns; returns the record's
        seq, which becomes ``session``'s last, and marks it dirty."""
        session.last_seq = self.journal.append(
            {"kind": "observe", "session": session.name, "cpi": float(cpi)},
            arrays={"pcs": pcs, "counts": counts},
        )
        session.dirty = True
        return session.last_seq

    def log_close(self, name: str) -> int:
        """Journal a ``close`` and delete the session's checkpoint; a
        checkpoint that cannot be deleted now is retried by every
        :meth:`checkpoint_all`."""
        seq = self.journal.append({"kind": "close", "session": name})
        self._cold.discard(name)
        self._closed.add(name)
        with contextlib.suppress(PersistenceError):
            self._delete_closed()
        return seq

    # -- evict-to-disk / hydrate-on-demand ------------------------------------

    def save_session(self, session: Session, reason: str) -> None:
        """The registry's ``on_evict`` pre-drop hook: checkpoint the
        session and register it cold instead of losing its state."""
        seq = self.checkpoint_session(session)
        self._cold.add(session.name)
        self.evict_saves += 1
        if self._telemetry is not None:
            self._telemetry.emit(
                "session_evicted_to_disk",
                session=session.name, reason=reason, covered_seq=seq,
            )

    def resolve(self, name: str) -> Optional[Session]:
        """The registry's ``resolver``: hydrate a cold session.

        Returns ``None`` when the name is unknown or its checkpoint is
        unreadable (a counted failure — the registry then reports the
        session as not found, the same as any reclaimed session).
        """
        if name not in self._cold:
            return None
        document = self.checkpoints.load(name)
        if document is None:
            self.hydrate_failures += 1
            if self.checkpoints.path_for(name).exists():
                # Transient read failure: the checkpoint is still on
                # disk, so keep the cold registration (and the name
                # reservation) for a later retry.
                return None
            self._cold.discard(name)
            return None
        try:
            session = session_from_checkpoint(
                document, self._registry.clock()
            )
        except Exception:
            self._cold.discard(name)
            self.hydrate_failures += 1
            if self._telemetry is not None:
                self._telemetry.emit("hydrate_failed", session=name)
            return None
        self._cold.discard(name)
        self.hydrated += 1
        return session

    @property
    def cold_sessions(self) -> int:
        return len(self._cold)

    def cold_names(self):
        return sorted(self._cold)

    # -- checkpoint + compact -------------------------------------------------

    def checkpoint_session(self, session: Session) -> int:
        """Snapshot one live session at its last journal record;
        returns that seq and marks the session clean.

        The journal is synced first: a published checkpoint covering
        seq N asserts the on-disk journal reaches N, so recovery's
        seq accounting stays consistent after a machine crash.
        """
        seq = session.last_seq
        if self.journal.unsynced_records:
            self.journal.sync()
        self.checkpoints.write(session.name, {
            "seq": seq,
            "snapshot": snapshot_tracker(session.tracker),
            "meta": {"branches_ingested": session.branches_ingested},
        })
        session.dirty = False
        if self._telemetry is not None:
            self._m_checkpoints.inc()
        return seq

    def checkpoint_all(self) -> int:
        """Checkpoint every dirty session of the registry, then delete
        every journal segment but the active one; returns the number of
        checkpoints written.

        Recovery then needs no older record: each live session's
        checkpoint covers its last record, each cold session's is
        current, and each closed session's is deleted. A checkpoint
        that cannot be written or deleted raises
        :class:`PersistenceError` before anything is compacted.

        The journal is fsynced *before* any checkpoint publishes (and
        unconditionally, so each sweep also bounds durability lag even
        when every session is clean) — a checkpoint must never be
        durable while the journal records it covers are not.
        """
        self.journal.sync()
        written = 0
        for session in self._registry.sessions():
            if session.dirty:
                self.checkpoint_session(session)
                written += 1
        self._delete_closed()
        compact_journal(
            self.journal_root,
            active_path=self.journal.active_path,
            telemetry=self._telemetry,
        )
        return written

    def _delete_closed(self) -> None:
        """Delete closed sessions' checkpoints; raises while one cannot
        be removed, and keeps its name for the next try."""
        for name in sorted(self._closed):
            self.checkpoints.delete(name)
            self._closed.discard(name)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Sync and close the journal. Idempotent."""
        self.journal.close()

    def __enter__(self) -> "PersistenceManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """JSON-safe durability counters for the stats endpoint."""
        return {
            "cold": len(self._cold),
            "journal_records": self.journal.records_appended,
            "journal_bytes": self.journal.bytes_appended,
            "journal_unsynced": self.journal.unsynced_records,
            "checkpoints_written": self.checkpoints.written,
            "hydrated": self.hydrated,
            "hydrate_failures": self.hydrate_failures,
            "evict_saves": self.evict_saves,
            "recovered_live": len(self.recovery.live),
            "recovered_cold": len(self.recovery.cold),
            "replayed_records": self.recovery.replayed_records,
            "torn_tails": self.recovery.journal.torn_tails,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistenceManager(root={str(self.root)!r}, "
            f"sync={self.journal.sync_mode!r}, cold={len(self._cold)})"
        )
