"""The PersistenceManager end to end through a real SessionRegistry:
evict-to-disk, hydrate-on-demand byte-identity, in-process crash
recovery, and checkpoint sweeps that leave the journal one segment."""

import errno
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import PhaseTracker
from repro.errors import (
    PersistenceError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.persistence import Journal, PersistenceManager, list_segments
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import dumps, snapshot_tracker

INTERVAL_INSTRUCTIONS = 2_000
BASE_A, BASE_B = 0x400000, 0x900000


def branch_batches(seed, batches, batch_size=200):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 3) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


def frame_payloads(segment):
    """Every frame's payload in one journal segment, in order."""
    data, offset, payloads = segment.read_bytes(), 0, []
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        payloads.append(data[offset + 8:offset + 8 + length])
        offset += 8 + length
    return payloads


def durable_registry(tmp_path, max_sessions=4, **kwargs):
    registry = SessionRegistry(max_sessions=max_sessions)
    manager = PersistenceManager(tmp_path / "data", registry, **kwargs)
    return manager, registry, manager.recovered["recovered_live"]


def open_and_drive(manager, registry, name, batches):
    """Mimic the server's apply-then-journal discipline."""
    session = registry.open(
        name=name, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    manager.log_open(
        session, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    drive(manager, session, batches)
    return session


def drive(manager, session, batches):
    for pcs, counts in batches:
        session.tracker.observe_batch(pcs, counts, cpi=1.1)
        manager.log_observe(session, pcs, counts, cpi=1.1)


def disk_full(name, document):
    raise PersistenceError(
        f"cannot write checkpoint for {name!r}: [Errno 28] No space left "
        "on device"
    )


def fill_journal_disk(monkeypatch, journal, room=0):
    """The journal's active segment takes ``room`` more bytes, then
    each write fails with ENOSPC, as write(2) does on a full disk."""
    write = journal._file.write

    def write_some(data):
        nonlocal room
        if not room:
            raise OSError(errno.ENOSPC, "No space left on device")
        done = write(bytes(data[:room]))
        room -= done
        return done

    monkeypatch.setattr(journal._file, "write", write_some)


def only_active_segment(manager):
    return list_segments(manager.journal_root) == [manager.journal.active_path]


def state(session):
    """The session's whole state: its snapshot carries the branch count."""
    return dumps(snapshot_tracker(session.tracker))


class TestEvictHydrate:
    def test_evicted_session_hydrates_byte_identical(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=1, batches=4)
        open_and_drive(manager, registry, "victim", batches)
        before = dumps(snapshot_tracker(registry.get("victim").tracker))

        # Two more opens push "victim" out through the LRU hook.
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])
        assert "victim" not in registry
        assert manager.cold_names() == ["victim"]
        assert registry.stats()["evicted_saved"] == 1

        session = registry.get("victim")  # hydrates transparently
        assert dumps(snapshot_tracker(session.tracker)) == before
        assert session.tracker.branches_observed == 4 * 200
        assert registry.stats()["hydrated"] == 1
        # Hydrating into a full registry pushed the LRU session ("b")
        # out to disk in its place — nothing was destroyed.
        assert manager.cold_names() == ["b"]

    def test_hydrated_session_continues_identically(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=2, batches=6)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        for pcs, counts in batches:
            reference.observe_batch(pcs, counts, cpi=1.1)

        open_and_drive(manager, registry, "victim", batches[:3])
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])  # evicts
        session = registry.get("victim")
        drive(manager, session, batches[3:])
        assert dumps(snapshot_tracker(session.tracker)) == dumps(
            snapshot_tracker(reference)
        )

    def test_open_refuses_cold_names(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=3, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        with pytest.raises(SessionExistsError, match="evicted to disk"):
            registry.open(name="victim")

    def test_generated_names_skip_cold_names(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=4, batches=1)
        open_and_drive(manager, registry, "session-1", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # session-1 cold
        session = registry.open()
        assert session.name != "session-1"

    def test_closing_a_cold_session_frees_its_name(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=5, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        registry.close("victim")
        manager.log_close("victim")
        assert manager.cold_sessions == 0
        assert len(manager.checkpoints) == 0
        registry.open(name="victim")  # name is reusable again

    def test_a_refused_close_of_a_cold_session_keeps_it_cold(
        self, tmp_path, monkeypatch
    ):
        """Closing a cold session materializes it; when the journal
        refuses the close, the registry hands it back to disk, so its
        name stays reserved and it still hydrates."""
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=5, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        fill_journal_disk(monkeypatch, manager.journal, room=5)
        with pytest.raises(OSError, match="No space left"):
            registry.close("victim", journal=manager.log_close)
        assert manager.cold_names() == ["victim"]
        assert registry.stats()["closed"] == 0
        monkeypatch.undo()  # the disk has room again
        session = registry.close("victim", journal=manager.log_close)
        assert session.tracker.branches_observed == len(batches[0][0])
        assert manager.cold_sessions == 0

    def test_transient_checkpoint_read_error_keeps_cold_entry(
        self, tmp_path, monkeypatch
    ):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=18, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        # Checkpoint unreadable but still on disk (EIO-style): the
        # cold registration must survive for a later retry.
        monkeypatch.setattr(manager.checkpoints, "load", lambda name: None)
        with pytest.raises(SessionNotFoundError):
            registry.get("victim")
        assert manager.hydrate_failures == 1
        assert manager.cold_names() == ["victim"]
        monkeypatch.undo()
        assert registry.get("victim").tracker.branches_observed == 200

    def test_hydrate_failure_is_counted_not_raised(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=6, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)
        manager.checkpoints.path_for("victim").write_bytes(b"smashed")
        with pytest.raises(SessionNotFoundError):
            registry.get("victim")
        assert manager.hydrate_failures == 1
        assert manager.cold_sessions == 0


class TestCrashRecovery:
    def test_oversized_open_snapshot_travels_via_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import repro.persistence.journal as journal_module

        # Frame cap small enough that a warmed tracker's snapshot
        # cannot travel inline in the open record.
        monkeypatch.setattr(journal_module, "MAX_RECORD_BYTES", 2_048)
        donor = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        for pcs, counts in branch_batches(seed=19, batches=3):
            donor.observe_batch(pcs, counts, cpi=1.1)
        snapshot = snapshot_tracker(donor)
        assert len(dumps(snapshot)) > 2_048

        manager, registry, _ = durable_registry(tmp_path)
        session = registry.open(name="big", snapshot=snapshot)
        manager.log_open(session, snapshot=snapshot)
        before = dumps(snapshot_tracker(session.tracker))
        del manager, registry  # kill -9

        manager2, registry2, _ = durable_registry(tmp_path)
        assert "big" in manager2.cold_names()
        after = dumps(snapshot_tracker(registry2.get("big").tracker))
        assert after == before

    def test_unclean_restart_recovers_byte_identical(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=7, batches=5)
        session = open_and_drive(manager, registry, "a", batches)
        before = dumps(snapshot_tracker(session.tracker))
        # No manager.close(): simulate kill -9. Batch mode flushed
        # every record to the OS, so nothing is lost.
        del manager, registry

        manager2, registry2, installed = durable_registry(tmp_path)
        assert installed == 1
        after = dumps(snapshot_tracker(registry2.get("a").tracker))
        assert after == before
        assert manager2.stats()["replayed_records"] == 1 + len(batches)

    def test_json_observe_records_upgrade_byte_identical(self, tmp_path):
        """A data dir whose observes are JSON records (the shape every
        observe had before binary records) recovers byte-identically,
        keeps serving with binary records after them, and the mixed
        journal recovers byte-identically again."""
        batches = branch_batches(seed=14, batches=8)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        with Journal(tmp_path / "data" / "journal") as journal:
            journal.append({
                "kind": "open", "session": "a", "config": None,
                "interval_instructions": INTERVAL_INSTRUCTIONS,
                "snapshot": None,
            })
            for pcs, counts in batches[:4]:
                reference.observe_batch(pcs, counts, cpi=1.1)
                journal.append({
                    "kind": "observe", "session": "a",
                    "pcs": [int(pc) for pc in pcs],
                    "counts": [int(count) for count in counts],
                    "cpi": 1.1,
                })

        manager, registry, installed = durable_registry(tmp_path)
        assert installed == 1
        session = registry.get("a")
        assert dumps(snapshot_tracker(session.tracker)) == (
            dumps(snapshot_tracker(reference))
        )
        drive(manager, session, batches[4:])
        for pcs, counts in batches[4:]:
            reference.observe_batch(pcs, counts, cpi=1.1)
        del manager, registry, session  # kill -9: no checkpoint

        (segment,) = list_segments(tmp_path / "data" / "journal")
        assert [payload[:1] for payload in frame_payloads(segment)] == (
            [b"{"] * 5 + [b"\x00"] * 4
        )
        manager2, registry2, _ = durable_registry(tmp_path)
        assert manager2.stats()["replayed_records"] == 9
        recovered = registry2.get("a")
        assert dumps(snapshot_tracker(recovered.tracker)) == (
            dumps(snapshot_tracker(reference))
        )
        assert recovered.tracker.branches_observed == 8 * 200

    def test_checkpoint_bounds_the_replay_tail(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=8, batches=6)
        session = open_and_drive(manager, registry, "a", batches[:4])
        assert manager.checkpoint_all() == 1
        drive(manager, session, batches[4:])
        before = dumps(snapshot_tracker(session.tracker))
        del manager, registry

        manager2, registry2, installed = durable_registry(tmp_path)
        # Only the two post-checkpoint observes replayed.
        assert manager2.stats()["replayed_records"] == 2
        assert installed == 1
        recovered = registry2.get("a")
        assert dumps(snapshot_tracker(recovered.tracker)) == before

    def test_checkpoints_with_the_older_meta_still_load(self, tmp_path):
        """A checkpoint written before the tracker counted its branches
        (its snapshot has no ``branches``; its ``meta`` holds the count,
        and held ``intervals_pushed`` and ``interval_instructions``
        before a session carried its journal positions) hydrates and
        recovers byte-identically, with the ``meta`` count."""
        batches = branch_batches(seed=22, batches=6)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        for pcs, counts in batches:
            reference.observe_batch(pcs, counts, cpi=1.1)
        manager, registry, _ = durable_registry(tmp_path)
        session = open_and_drive(manager, registry, "a", batches[:3])
        snapshot = snapshot_tracker(session.tracker)
        del snapshot["tracker"]["branches"]
        manager.checkpoints.write("a", {
            "seq": session.last_seq,
            "snapshot": snapshot,
            "meta": {
                "intervals_pushed": session.tracker.intervals_observed,
                "branches_ingested": 3 * 200,
                "interval_instructions": INTERVAL_INSTRUCTIONS,
            },
        })
        before = dumps(snapshot_tracker(session.tracker))
        manager.close()
        del manager, registry, session

        # Checkpoint-current: cold, and hydrated on first use.
        manager, registry, installed = durable_registry(tmp_path)
        assert installed == 0 and manager.cold_names() == ["a"]
        session = registry.get("a")
        assert dumps(snapshot_tracker(session.tracker)) == before
        assert session.tracker.branches_observed == 3 * 200
        drive(manager, session, batches[3:])
        del manager, registry, session  # kill -9: no new checkpoint

        # The same checkpoint plus the journal tail past it.
        manager, registry, installed = durable_registry(tmp_path)
        assert installed == 1
        assert manager.stats()["replayed_records"] == 3
        recovered = registry.get("a")
        assert dumps(snapshot_tracker(recovered.tracker)) == dumps(
            snapshot_tracker(reference)
        )
        assert recovered.tracker.branches_observed == 6 * 200

    def test_evicted_sessions_survive_restart_cold(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=9, batches=3)
        open_and_drive(manager, registry, "victim", batches)
        before = dumps(snapshot_tracker(registry.get("victim").tracker))
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])  # evicts
        del manager, registry

        manager2, registry2, _ = durable_registry(
            tmp_path, max_sessions=4
        )
        assert "victim" in manager2.cold_names()
        after = dumps(snapshot_tracker(registry2.get("victim").tracker))
        assert after == before

    def test_recovered_overflow_spills_back_to_disk(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=8)
        batches = branch_batches(seed=10, batches=1)
        for index in range(5):
            open_and_drive(manager, registry, f"s{index}", batches)
        del manager, registry

        # Restart with a smaller cap: all five are adopted through the
        # normal admission path, and the overflow is evicted *to disk*
        # (the hooks are installed before adoption), not destroyed.
        manager2, registry2, installed = durable_registry(
            tmp_path, max_sessions=2
        )
        assert installed == 5
        assert len(registry2) == 2
        assert manager2.cold_sessions == 3
        assert registry2.stats()["evicted_saved"] == 3
        # Every one of the five is still reachable.
        for index in range(5):
            assert registry2.get(f"s{index}") is not None

    def test_closed_sessions_stay_closed_after_restart(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=11, batches=2)
        open_and_drive(manager, registry, "a", batches)
        manager.checkpoint_all()
        registry.close("a")
        manager.log_close("a")
        del manager, registry

        manager2, registry2, installed = durable_registry(tmp_path)
        assert installed == 0 and manager2.cold_sessions == 0
        assert len(manager2.checkpoints) == 0
        with pytest.raises(SessionNotFoundError):
            registry2.get("a")

    def test_recovered_sessions_belong_to_the_registry_alone(
        self, tmp_path
    ):
        """Recovery hands its sessions to the registry and keeps only
        counts: of 200 recovered into a registry capped at 2, the 198
        evicted to disk are freed."""
        import gc

        manager, registry, _ = durable_registry(
            tmp_path, max_sessions=200, sync="none"
        )
        batches = branch_batches(seed=27, batches=1, batch_size=20)
        names = {f"s{index}" for index in range(200)}
        for name in sorted(names):
            open_and_drive(manager, registry, name, batches)
        manager.close()  # no sweep: recovery materializes all 200
        del manager, registry

        manager, registry, installed = durable_registry(
            tmp_path, max_sessions=2, sync="none"
        )
        assert installed == 200
        assert manager.stats()["recovered_live"] == 200
        assert manager.cold_sessions == 198
        gc.collect()
        alive = [
            obj for obj in gc.get_objects()
            if type(obj) is Session and obj.name in names
        ]
        assert sorted(session.name for session in alive) == sorted(
            session.name for session in registry.sessions()
        )
        assert len(alive) == 2

    def test_torn_journal_tail_is_survivable(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=12, batches=4)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        session = open_and_drive(manager, registry, "a", batches[:3])
        for pcs, counts in batches[:3]:
            reference.observe_batch(pcs, counts, cpi=1.1)
        drive(manager, session, batches[3:])  # will be torn off
        manager.close()
        segment = list_segments(manager.journal_root)[-1]
        with open(segment, "rb+") as handle:
            handle.truncate(segment.stat().st_size - 7)
        del manager, registry

        manager2, registry2, _ = durable_registry(tmp_path)
        assert manager2.stats()["torn_tails"] == 1
        after = dumps(snapshot_tracker(registry2.get("a").tracker))
        assert after == dumps(snapshot_tracker(reference))


class TestMaintenance:
    def test_checkpoint_all_skips_clean_sessions(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=13, batches=2)
        open_and_drive(manager, registry, "a", batches)
        open_and_drive(manager, registry, "b", batches)
        assert manager.checkpoint_all() == 2
        assert manager.checkpoint_all() == 0
        drive(manager, registry.get("a"), batches[:1])
        assert manager.checkpoint_all() == 1

    def test_compaction_drops_superseded_segments(self, tmp_path):
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=14, batches=20, batch_size=40)
        open_and_drive(manager, registry, "a", batches)
        assert len(list_segments(manager.journal_root)) > 2
        manager.checkpoint_all()
        assert only_active_segment(manager)
        # Everything still recovers from the checkpoint.
        before = dumps(snapshot_tracker(registry.get("a").tracker))
        del registry
        manager.close()
        manager2, registry2, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        assert dumps(
            snapshot_tracker(registry2.get("a").tracker)
        ) == before

    def test_compaction_respects_uncheckpointed_sessions(
        self, tmp_path, monkeypatch
    ):
        """A sweep whose checkpoint write fails compacts nothing: the
        session it could not checkpoint still needs every record."""
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=15, batches=20, batch_size=40)
        session = open_and_drive(manager, registry, "a", batches)
        segments = list_segments(manager.journal_root)
        assert len(segments) > 2
        monkeypatch.setattr(manager.checkpoints, "write", disk_full)
        with pytest.raises(PersistenceError, match="No space left"):
            manager.checkpoint_all()
        assert list_segments(manager.journal_root) == segments
        assert session.dirty
        before = state(session)
        del manager, registry, session  # kill -9

        manager2, registry2, installed = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        assert installed == 1
        assert state(registry2.get("a")) == before

    def test_lost_eviction_does_not_pin_compaction(
        self, tmp_path, monkeypatch
    ):
        """A session dropped because its evict-to-disk checkpoint could
        not be written is gone, and compaction does not wait for it."""
        manager, registry, _ = durable_registry(
            tmp_path, max_sessions=2, segment_bytes=2_048
        )
        batches = branch_batches(seed=21, batches=20, batch_size=40)
        open_and_drive(manager, registry, "lost", batches)
        open_and_drive(manager, registry, "b", batches)
        monkeypatch.setattr(manager.checkpoints, "write", disk_full)
        open_and_drive(manager, registry, "c", batches[:1])  # evicts
        monkeypatch.undo()
        assert registry.stats()["evicted_lost"] == 1
        assert "lost" not in registry and manager.cold_sessions == 0

        assert manager.checkpoint_all() == 2
        assert only_active_segment(manager)

    def test_a_sweep_leaves_one_segment_whatever_the_sessions(
        self, tmp_path
    ):
        """After a sweep that raised nothing, the journal is its active
        segment alone, with sessions dirty, idle since the last sweep,
        cold, hydrated and closed; a ``kill -9`` then recovers every
        open one byte-identically and no closed one."""
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=24, batches=24, batch_size=40)
        open_and_drive(manager, registry, "a", batches[:2])
        open_and_drive(manager, registry, "b", batches[2:4])
        open_and_drive(manager, registry, "idle", batches[4:5])
        open_and_drive(manager, registry, "gone", batches[5:6])
        manager.checkpoint_all()
        registry.close("gone")
        manager.log_close("gone")
        open_and_drive(manager, registry, "busy", batches[6:20])
        open_and_drive(manager, registry, "c", batches[20:21])  # a cold
        registry.get("a")  # hydrates a; b goes cold
        assert manager.cold_names() == ["b"]
        assert [
            (session.name, session.dirty) for session in registry.sessions()
        ] == [("idle", False), ("busy", True), ("c", True), ("a", False)]
        assert len(list_segments(manager.journal_root)) > 2

        assert manager.checkpoint_all() == 2
        assert only_active_segment(manager)
        drive(manager, registry.get("busy"), batches[21:])
        expected = {
            name: state(registry.get(name))
            for name in ("a", "b", "idle", "busy", "c")
        }
        del manager, registry  # kill -9

        manager, registry, installed = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        assert installed == 1  # "busy", whose tail follows the sweep
        assert {
            name: state(registry.get(name)) for name in expected
        } == expected
        with pytest.raises(SessionNotFoundError):
            registry.get("gone")

    def test_closed_session_stays_closed_while_its_checkpoint_lingers(
        self, tmp_path, monkeypatch
    ):
        """A closed session whose checkpoint cannot be deleted keeps its
        close record: each sweep retries the delete and compacts nothing
        until it works, so no restart brings the session back."""
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=25, batches=20, batch_size=40)
        open_and_drive(manager, registry, "a", batches[:2])
        busy = open_and_drive(manager, registry, "b", batches[2:4])
        manager.checkpoint_all()
        unlink = Path.unlink

        def refuse_checkpoints(path, *args, **kwargs):
            if path.suffix == ".ckpt":
                raise PermissionError(
                    errno.EACCES, "Permission denied", str(path)
                )
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refuse_checkpoints)
        registry.close("a")
        manager.log_close("a")
        drive(manager, busy, batches[4:])
        segments = list_segments(manager.journal_root)
        assert len(segments) > 2
        with pytest.raises(PersistenceError, match="cannot delete checkpoint"):
            manager.checkpoint_all()
        assert list_segments(manager.journal_root) == segments
        expected = state(busy)
        del manager, registry, busy  # kill -9, the checkpoint on disk

        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        assert manager.checkpoints.path_for("a").exists()
        assert manager.cold_names() == ["b"]
        with pytest.raises(SessionNotFoundError):
            registry.get("a")
        with pytest.raises(PersistenceError, match="cannot delete checkpoint"):
            manager.checkpoint_all()
        monkeypatch.undo()
        manager.checkpoint_all()
        assert only_active_segment(manager)
        assert not manager.checkpoints.path_for("a").exists()
        del manager, registry  # kill -9

        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        with pytest.raises(SessionNotFoundError):
            registry.get("a")
        assert state(registry.get("b")) == expected

    def test_restart_after_compacting_to_an_empty_segment(self, tmp_path):
        """A sweep right after a rotation leaves one empty segment; the
        restarted journal continues its seqs from that segment's name,
        so its later segments sort after it and replay keeps them all.
        """
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=300
        )
        for index in range(8):
            session = registry.open(name=f"x{index}")
            manager.log_open(session, interval_instructions=1_000)
            registry.close(session.name)
            manager.log_close(session.name)
        manager.checkpoint_all()
        (segment,) = list_segments(manager.journal_root)
        assert segment.stat().st_size == 0
        next_seq = manager.journal.next_seq
        manager.close()

        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=300
        )
        assert manager.journal.next_seq == next_seq
        session = open_and_drive(
            manager, registry, "kept", branch_batches(seed=26, batches=6,
                                                      batch_size=10)
        )
        expected = state(session)
        del manager, registry, session  # kill -9

        manager, registry, installed = durable_registry(
            tmp_path, segment_bytes=300
        )
        assert installed == 1
        assert manager.recovered["torn_tails"] == 0
        assert state(registry.get("kept")) == expected

    def test_stats_are_json_safe(self, tmp_path):
        import json

        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=16, batches=1)
        open_and_drive(manager, registry, "a", batches)
        stats = manager.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["journal_records"] == 2
        assert stats["cold"] == 0

    def test_context_manager_closes_journal(self, tmp_path):
        registry = SessionRegistry()
        with PersistenceManager(tmp_path / "data", registry) as manager:
            manager.log_open(
                registry.open(name="a"), interval_instructions=1_000
            )
        assert manager.journal.closed


class TestTelemetry:
    def test_evict_and_hydrate_events(self, tmp_path):
        import io

        from repro.telemetry import EventLog, Telemetry, read_events

        stream = io.StringIO()
        telemetry = Telemetry(events=EventLog(stream=stream))
        registry = SessionRegistry(max_sessions=2, telemetry=telemetry)
        manager = PersistenceManager(
            tmp_path / "data", registry, telemetry=telemetry
        )
        batches = branch_batches(seed=17, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)
        registry.get("victim")
        kinds = [
            record["event"]
            for record in read_events(io.StringIO(stream.getvalue()))
        ]
        assert "session_evicted_to_disk" in kinds
        assert "session_hydrated" in kinds
        assert telemetry.metrics.get(
            "repro_persistence_hydrates_total"
        ).value == 1
        # "victim" came back; "b" took its place on disk.
        assert telemetry.metrics.get(
            "repro_persistence_cold_sessions"
        ).value == 1
        assert manager.cold_names() == ["b"]
