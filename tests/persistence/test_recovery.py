"""Crash recovery and compaction: checkpoints fast-forward, the
journal tail replays byte-identically, damage demotes instead of
raising, and compaction keeps only the active segment."""

import numpy as np

from repro.core import PhaseTracker
from repro.persistence import (
    CheckpointStore,
    Journal,
    compact_journal,
    list_segments,
    recover_state,
    replay_journal,
)
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


def open_record(name, interval_instructions=INTERVAL_INSTRUCTIONS):
    return {
        "kind": "open",
        "session": name,
        "config": None,
        "interval_instructions": interval_instructions,
        "snapshot": None,
    }


def observe_record(name, pcs, counts, cpi=1.1):
    return {
        "kind": "observe", "session": name,
        "pcs": pcs, "counts": counts, "cpi": cpi,
    }


def stores(tmp_path):
    return tmp_path / "journal", CheckpointStore(tmp_path / "checkpoints")


class TestReplay:
    def test_open_plus_observes_rebuild_the_tracker(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        batches = branch_batches(seed=1, batches=5)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))
            for pcs, counts in batches:
                reference.observe_batch(pcs, counts, cpi=1.1)
                journal.append(observe_record("a", pcs, counts))

        result = recover_state(journal_root, checkpoints)
        assert list(result.live) == ["a"]
        assert result.cold == set() and result.closed == []
        recovered = result.live["a"]
        assert recovered.branches_ingested == 5 * 200
        # Replayed up to its last observe, which no checkpoint covers.
        assert (recovered.dirty, recovered.last_seq) == (True, 6)
        assert dumps(snapshot_tracker(recovered.tracker)) == dumps(
            snapshot_tracker(reference)
        )

    def test_checkpoint_current_session_stays_cold(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        batches = branch_batches(seed=2, batches=3)
        tracker = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))
            last = 1
            for pcs, counts in batches:
                tracker.observe_batch(pcs, counts, cpi=1.1)
                last = journal.append(observe_record("a", pcs, counts))
        checkpoints.write("a", {
            "seq": last,
            "snapshot": snapshot_tracker(tracker),
            "meta": {},
        })

        result = recover_state(journal_root, checkpoints)
        assert result.live == {}
        assert result.cold == {"a"}
        assert result.replayed_records == 0
        assert result.skipped_records == 1 + len(batches)

    def test_checkpoint_plus_tail_matches_uninterrupted(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        batches = branch_batches(seed=3, batches=6)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))
            for index, (pcs, counts) in enumerate(batches):
                reference.observe_batch(pcs, counts, cpi=1.1)
                seq = journal.append(observe_record("a", pcs, counts))
                if index == 2:  # checkpoint mid-stream
                    checkpoints.write("a", {
                        "seq": seq,
                        "snapshot": snapshot_tracker(reference),
                        "meta": {"intervals_pushed": 11,
                                 "branches_ingested": 3 * 200},
                    })

        result = recover_state(journal_root, checkpoints)
        recovered = result.live["a"]
        # Past the checkpoint (seq 4), up to the last observe.
        assert (recovered.dirty, recovered.last_seq) == (True, 7)
        assert result.replayed_records == 3  # only the tail
        assert dumps(snapshot_tracker(recovered.tracker)) == dumps(
            snapshot_tracker(reference)
        )
        assert recovered.branches_ingested == 3 * 200 + 3 * 200

    def test_close_record_drops_the_session(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        checkpoints.write("a", {"seq": 2, "snapshot": {}, "meta": {}})
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))         # seq 1
            pcs, counts = branch_batches(seed=4, batches=1)[0]
            journal.append(observe_record("a", pcs, counts))  # seq 2
            journal.append({"kind": "close", "session": "a"})  # seq 3

        result = recover_state(journal_root, checkpoints)
        assert result.live == {} and result.cold == set()
        assert result.closed == ["a"]  # its checkpoint file lingers

    def test_close_keeps_newer_incarnations_checkpoint(self, tmp_path):
        # close -> reopen -> checkpoint -> crash before the old close
        # could delete anything: the checkpoint stamped after the close
        # belongs to the NEW incarnation and must survive recovery.
        journal_root, checkpoints = stores(tmp_path)
        tracker = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        pcs, counts = branch_batches(seed=5, batches=1)[0]
        tracker.observe_batch(pcs, counts, cpi=1.1)
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))                   # seq 1
            journal.append({"kind": "close", "session": "a"})  # seq 2
            journal.append(open_record("a"))                   # seq 3
            last = journal.append(observe_record("a", pcs, counts))
        checkpoints.write("a", {
            "seq": last,
            "snapshot": snapshot_tracker(tracker),
            "meta": {},
        })

        result = recover_state(journal_root, checkpoints)
        assert result.closed == []
        assert result.cold == {"a"}

    def test_orphaned_observe_is_counted_not_fatal(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        pcs, counts = branch_batches(seed=6, batches=1)[0]
        with Journal(journal_root) as journal:
            # No open record, no checkpoint: its open was compacted
            # away and the checkpoint was lost.
            journal.append(observe_record("ghost", pcs, counts))
        result = recover_state(journal_root, checkpoints)
        assert result.orphaned_records == 1
        assert result.live == {} and result.damaged_sessions == 0

    def test_unappliable_record_demotes_to_checkpoint(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        tracker = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        pcs, counts = branch_batches(seed=7, batches=1)[0]
        tracker.observe_batch(pcs, counts, cpi=1.1)
        checkpoints.write("a", {
            "seq": 1,
            "snapshot": snapshot_tracker(tracker),
            "meta": {},
        })
        with Journal(journal_root, next_seq=2) as journal:
            journal.append({
                "kind": "observe", "session": "a",
                "pcs": "not-a-list", "counts": None, "cpi": 1.0,
            })
        result = recover_state(journal_root, checkpoints)
        assert result.damaged_sessions == 1
        # Demoted, not dropped: the last good checkpoint still serves.
        assert result.cold == {"a"}

    def test_unappliable_record_without_checkpoint_drops(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))
            journal.append({
                "kind": "observe", "session": "a",
                "pcs": "junk", "counts": "junk", "cpi": 1.0,
            })
        result = recover_state(journal_root, checkpoints)
        assert result.damaged_sessions == 1
        assert result.live == {} and result.cold == set()

    def test_torn_tail_recovery_keeps_the_prefix(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        batches = branch_batches(seed=8, batches=4)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))
            for pcs, counts in batches[:3]:
                reference.observe_batch(pcs, counts, cpi=1.1)
                journal.append(observe_record("a", pcs, counts))
            journal.append(observe_record("a", *batches[3]))
        # Tear the final record: what kill -9 mid-append leaves.
        segment = list_segments(journal_root)[-1]
        with open(segment, "rb+") as handle:
            handle.truncate(segment.stat().st_size - 5)

        result = recover_state(journal_root, checkpoints)
        assert result.journal.torn_tails == 1
        recovered = result.live["a"]
        assert dumps(snapshot_tracker(recovered.tracker)) == dumps(
            snapshot_tracker(reference)
        )

    def test_next_seq_never_reuses_checkpoint_covered_seqs(self, tmp_path):
        # A crash under sync=none (or a machine crash eating the
        # journal tail) can leave a durable checkpoint covering seqs
        # the on-disk journal lost. The restarted journal must not
        # hand those seqs out again — records reusing them would be
        # skipped as "covered" on the next recovery.
        journal_root, checkpoints = stores(tmp_path)
        tracker = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        with Journal(journal_root) as journal:
            journal.append(open_record("a"))  # seq 1; observes 2..9 lost
        checkpoints.write("a", {
            "seq": 9,
            "snapshot": snapshot_tracker(tracker),
            "meta": {},
        })
        result = recover_state(journal_root, checkpoints)
        assert result.cold == {"a"}
        assert result.next_seq == 10

    def test_open_with_missing_checkpointed_snapshot_is_damage(
        self, tmp_path
    ):
        # An oversized restore snapshot travels as a checkpoint, not
        # inline; if that checkpoint is gone, building a fresh tracker
        # would silently impersonate the restored one.
        journal_root, checkpoints = stores(tmp_path)
        with Journal(journal_root) as journal:
            journal.append(
                dict(open_record("a"), snapshot_ref="checkpoint")
            )
        result = recover_state(journal_root, checkpoints)
        assert result.damaged_sessions == 1
        assert result.live == {} and result.cold == set()

    def test_unknown_record_kind_is_orphaned(self, tmp_path):
        journal_root, checkpoints = stores(tmp_path)
        with Journal(journal_root) as journal:
            journal.append({"kind": "vacuum", "session": "a"})
            journal.append({"kind": "open"})  # no session name
        result = recover_state(journal_root, checkpoints)
        assert result.orphaned_records == 2


class TestCompaction:
    def build_segmented_journal(self, root, records=40):
        with Journal(root, segment_bytes=256) as journal:
            journal.append(open_record("a"))
            pcs, counts = branch_batches(seed=9, batches=1, batch_size=4)[0]
            for _ in range(records - 1):
                journal.append(observe_record("a", pcs, counts))
        return list_segments(root)

    def test_never_removes_the_active_segment(self, tmp_path):
        root = tmp_path / "journal"
        segments = self.build_segmented_journal(root)
        removed = compact_journal(root, active_path=segments[0])
        assert removed == 0
        assert list_segments(root) == segments

    def test_nothing_needed_keeps_the_newest_segment(self, tmp_path):
        root = tmp_path / "journal"
        segments = self.build_segmented_journal(root)
        removed = compact_journal(root)
        assert removed == len(segments) - 1
        assert list_segments(root) == segments[-1:]
        # A journal reopened over the survivor continues past it.
        assert replay_journal(root).stats.next_seq == 41
