"""Property: a checkpoint plus journal-tail replay reconstructs a
tracker byte-identical to one that was never evicted or crashed, for
arbitrary classifier configurations, branch streams, checkpoint
positions, and batch boundaries; and every checkpoint sweep that
raises nothing leaves the journal one segment, whatever the sessions
did, without losing a session or bringing a closed one back
(hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker
from repro.errors import PersistenceError, SessionNotFoundError
from repro.persistence import (
    CheckpointStore,
    Journal,
    PersistenceManager,
    list_segments,
    recover_state,
)
from repro.service.session import SessionRegistry
from repro.service.snapshot import dumps, snapshot_tracker

INTERVAL_INSTRUCTIONS = 1_500
BRANCHES = 1_200

configs = st.builds(
    ClassifierConfig,
    num_counters=st.sampled_from([8, 16, 32]),
    bits_per_counter=st.sampled_from([4, 6]),
    table_entries=st.sampled_from([None, 4, 32]),
    similarity_threshold=st.sampled_from([0.0625, 0.125, 0.25]),
    min_count_threshold=st.integers(min_value=0, max_value=8),
    match_policy=st.sampled_from(["first", "most_similar"]),
    bit_selector=st.sampled_from(["static", "dynamic"]),
    perf_dev_threshold=st.sampled_from([None, 0.25, 0.5]),
)


def branch_stream(seed):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(BRANCHES) < 0.5, 0x400000, 0x900000)
    pcs = (region + rng.integers(0, 48, size=BRANCHES) * 4).tolist()
    counts = rng.integers(1, 90, size=BRANCHES).tolist()
    return pcs, counts


def batched(pcs, counts, batch_size):
    for start in range(0, len(pcs), batch_size):
        yield pcs[start:start + batch_size], counts[start:start + batch_size]


@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch_size=st.sampled_from([37, 100, 256]),
    checkpoint_fraction=st.floats(min_value=0.0, max_value=1.0),
    cpi=st.sampled_from([1.0, 1.3]),
)
@settings(max_examples=20, deadline=None)
def test_checkpoint_plus_tail_replay_is_byte_identical(
    tmp_path_factory, config, seed, batch_size, checkpoint_fraction, cpi
):
    """Drive one tracker while journaling every batch (the server's
    write-ahead discipline), checkpoint at an arbitrary point, then
    recover from disk alone and compare full snapshots."""
    root = tmp_path_factory.mktemp("persist")
    pcs, counts = branch_stream(seed)
    batches = list(batched(pcs, counts, batch_size))
    checkpoint_after = int(len(batches) * checkpoint_fraction)

    checkpoints = CheckpointStore(root / "checkpoints")
    reference = PhaseTracker(
        config, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    config_overrides = {
        "num_counters": config.num_counters,
        "bits_per_counter": config.bits_per_counter,
        "table_entries": config.table_entries,
        "similarity_threshold": config.similarity_threshold,
        "min_count_threshold": config.min_count_threshold,
        "match_policy": config.match_policy,
        "bit_selector": config.bit_selector,
        "perf_dev_threshold": config.perf_dev_threshold,
    }
    with Journal(root / "journal") as journal:
        journal.append({
            "kind": "open", "session": "s",
            "config": config_overrides,
            "interval_instructions": INTERVAL_INSTRUCTIONS,
            "snapshot": None,
        })
        for index, (batch_pcs, batch_counts) in enumerate(batches):
            reference.observe_batch(batch_pcs, batch_counts, cpi=cpi)
            seq = journal.append({
                "kind": "observe", "session": "s",
                "pcs": batch_pcs, "counts": batch_counts, "cpi": cpi,
            })
            if index + 1 == checkpoint_after:
                checkpoints.write("s", {
                    "seq": seq,
                    "snapshot": snapshot_tracker(reference),
                    "meta": {},
                })

    result = recover_state(root / "journal", checkpoints)
    assert result.damaged_sessions == 0
    assert result.orphaned_records == 0
    if checkpoint_after == len(batches) and checkpoint_after > 0:
        # Checkpoint covers everything: the session stays cold and its
        # checkpoint alone must reproduce the reference.
        assert list(result.cold) == ["s"]
        from repro.service.snapshot import restore_tracker

        recovered = restore_tracker(checkpoints.load("s")["snapshot"])
    else:
        assert list(result.live) == ["s"]
        recovered = result.live["s"].tracker

    assert dumps(snapshot_tracker(recovered)) == dumps(
        snapshot_tracker(reference)
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut_bytes=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=15, deadline=None)
def test_torn_tail_recovers_a_valid_prefix(
    tmp_path_factory, seed, cut_bytes
):
    """Chopping an arbitrary number of bytes off the journal tail —
    any crash point — always yields a tracker identical to one driven
    with some prefix of the batches."""
    root = tmp_path_factory.mktemp("torn")
    pcs, counts = branch_stream(seed)
    batches = list(batched(pcs, counts, 150))

    with Journal(root / "journal") as journal:
        journal.append({
            "kind": "open", "session": "s", "config": None,
            "interval_instructions": INTERVAL_INSTRUCTIONS,
            "snapshot": None,
        })
        for batch_pcs, batch_counts in batches:
            journal.append({
                "kind": "observe", "session": "s",
                "pcs": batch_pcs, "counts": batch_counts, "cpi": 1.0,
            })
    from repro.persistence import list_segments

    segment = list_segments(root / "journal")[-1]
    with open(segment, "rb+") as handle:
        handle.truncate(max(0, segment.stat().st_size - cut_bytes))

    checkpoints = CheckpointStore(root / "checkpoints")
    result = recover_state(root / "journal", checkpoints)
    assert result.damaged_sessions == 0
    surviving = result.replayed_records - (1 if result.live else 0)

    prefix = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
    for batch_pcs, batch_counts in batches[:surviving]:
        prefix.observe_batch(batch_pcs, batch_counts, cpi=1.0)
    if result.live:
        assert dumps(snapshot_tracker(result.live["s"].tracker)) == dumps(
            snapshot_tracker(prefix)
        )
    else:
        # Even the open record was torn off: nothing to recover is a
        # valid (empty) prefix.
        assert surviving <= 0


open_op = st.tuples(st.just("open"), st.integers(0, 4))
observe_op = st.tuples(
    st.just("observe"), st.integers(0, 4),
    st.integers(0, 2**16), st.sampled_from([20, 60, 150]),
)
close_op = st.tuples(st.just("close"), st.integers(0, 4))
# The checkpoint write of the sweep that fails, if it gets to that
# many; -1 fails none.
sweep_op = st.tuples(st.just("sweep"), st.integers(-1, 3))
restart_op = st.tuples(st.just("restart"))
# Observes and sweeps weigh more: most bugs need a session with a
# replay tail when a sweep runs.
operations = st.lists(
    st.one_of(
        open_op, observe_op, observe_op, observe_op, close_op,
        sweep_op, sweep_op, restart_op,
    ),
    min_size=10,
    max_size=40,
)


def durable(root):
    registry = SessionRegistry(max_sessions=2)
    manager = PersistenceManager(root, registry, segment_bytes=2_048)
    return manager, registry


@given(names=st.integers(min_value=2, max_value=5), ops=operations)
@settings(max_examples=60, deadline=None)
def test_sweeps_leave_one_segment_and_restarts_lose_nothing(
    tmp_path_factory, names, ops
):
    """Opens, observes, closes, sweeps whose checkpoint writes fail at
    random, and restarts, through a registry capped at 2 so sessions
    go cold and hydrate. After each sweep that raised nothing the
    journal is one segment; a final restart recovers every open session
    equal to a RAM tracker fed the same acknowledged batches, and no
    closed one. (A restart closes the journal first; in ``batch`` mode
    every append was already flushed, so the files are the ones a
    ``kill -9`` leaves.)"""
    root = tmp_path_factory.mktemp("sweeps")
    manager, registry = durable(root)
    expected = {}  # name -> (RAM tracker, branches ingested)
    closed = set()
    for op in ops:
        kind = op[0]
        name = f"s{op[1] % names}" if len(op) > 1 else None
        if kind == "open" and name not in expected:
            session = registry.open(
                name=name, interval_instructions=INTERVAL_INSTRUCTIONS
            )
            manager.log_open(
                session, interval_instructions=INTERVAL_INSTRUCTIONS
            )
            expected[name] = (
                PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS),
                [0],
            )
            closed.discard(name)
        elif kind == "observe" and name in expected:
            rng = np.random.default_rng(op[2])
            pcs = 0x400000 + rng.integers(0, 48, size=op[3]) * 4
            counts = rng.integers(1, 90, size=op[3])
            session = registry.get(name)
            session.tracker.observe_batch(pcs, counts, cpi=1.1)
            session.branches_ingested += len(pcs)
            manager.log_observe(session, pcs, counts, cpi=1.1)
            tracker, branches = expected[name]
            tracker.observe_batch(pcs, counts, cpi=1.1)
            branches[0] += len(pcs)
        elif kind == "close" and name in expected:
            registry.close(name)
            manager.log_close(name)
            del expected[name]
            closed.add(name)
        elif kind == "sweep":
            write, writes = manager.checkpoints.write, []

            def flaky_write(name, document):
                writes.append(name)
                if len(writes) - 1 == op[1]:
                    raise PersistenceError("injected checkpoint failure")
                return write(name, document)

            manager.checkpoints.write = flaky_write
            try:
                manager.checkpoint_all()
            except PersistenceError:
                assert len(writes) == op[1] + 1
            else:
                assert list_segments(manager.journal_root) == [
                    manager.journal.active_path
                ]
            finally:
                del manager.checkpoints.write
        elif kind == "restart":
            manager.close()
            manager, registry = durable(root)
    manager.close()

    manager, registry = durable(root)
    assert set(registry.names()) | set(manager.cold_names()) == set(expected)
    for name, (tracker, branches) in expected.items():
        session = registry.get(name)
        assert dumps(snapshot_tracker(session.tracker)) == dumps(
            snapshot_tracker(tracker)
        )
        assert session.branches_ingested == branches[0]
    for name in closed:
        with pytest.raises(SessionNotFoundError):
            registry.get(name)
    manager.close()
