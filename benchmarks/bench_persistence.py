"""Benchmark: durable session tier — ingest overhead and hydrate cost.

Two costs decide whether the persistence tier is deployable:

1. **Ingest overhead.** Every acknowledged observe batch is journaled
   first, so durability rides the hot path. This benchmark drives the
   same branch stream through a live service once RAM-only and once
   per sync mode, and asserts the default ``batch`` mode stays within
   25% of the RAM-only rate (the acceptance ceiling). ``none`` should
   be nearly free; ``always`` pays an fsync per request and is
   reported but unbounded (fsync cost is hardware, not code).
2. **Cold-session hydrate latency.** An evicted session must come back
   fast enough to hide inside a normal request. Hydration is
   O(checkpoint) by design — no journal scan — so it must not degrade
   with the number of evicted sessions on disk; this benchmark
   populates a directory with many cold checkpoints and times single
   hydrates.
"""

import time

import numpy as np

from repro.persistence import PersistenceManager
from repro.service import PhaseServiceClient, start_in_thread
from repro.service.session import SessionRegistry
from repro.service.snapshot import snapshot_tracker

BRANCHES = 12_000
BATCH = 2_000
INTERVAL_INSTRUCTIONS = 100_000
BATCH_OVERHEAD_CEILING = 0.25  # sync=batch may cost at most this
COLD_SESSIONS = 10_000
HYDRATE_SAMPLES = 50
HYDRATE_BUDGET_SECONDS = 0.050  # mean single-hydrate latency ceiling


def _branch_stream(seed=0, n=BRANCHES):
    rng = np.random.default_rng(seed)
    pcs = [int(pc) for pc in 0x400000 + rng.integers(0, 64, size=n) * 4]
    counts = [int(c) for c in rng.integers(50, 150, size=n)]
    return pcs, counts


def _ingest_rate(handle, pcs, counts):
    with PhaseServiceClient(port=handle.port) as client:
        session = client.open_session(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        client.observe(session, pcs[:BATCH], counts[:BATCH])  # warm-up
        start = time.perf_counter()
        for begin in range(0, len(pcs), BATCH):
            client.observe(
                session,
                pcs[begin:begin + BATCH],
                counts[begin:begin + BATCH],
            )
        elapsed = time.perf_counter() - start
        client.close_session(session)
    return len(pcs) / elapsed


def test_sync_batch_ingest_overhead_within_25_percent(tmp_path):
    pcs, counts = _branch_stream()

    with start_in_thread() as handle:
        ram_only = _ingest_rate(handle, pcs, counts)

    rates = {}
    for sync in ("none", "batch", "always"):
        with start_in_thread(
            data_dir=tmp_path / sync, sync=sync, checkpoint_interval=600.0
        ) as handle:
            rates[sync] = _ingest_rate(handle, pcs, counts)

    overhead = {
        sync: (ram_only - rate) / ram_only for sync, rate in rates.items()
    }
    print(
        f"\nram-only {ram_only / 1e3:.0f} kbranches/s | "
        + " | ".join(
            f"{sync} {rates[sync] / 1e3:.0f}k ({overhead[sync]:+.1%})"
            for sync in ("none", "batch", "always")
        )
    )
    assert overhead["batch"] <= BATCH_OVERHEAD_CEILING, (
        f"sync=batch ingest overhead {overhead['batch']:.1%} exceeds "
        f"the {BATCH_OVERHEAD_CEILING:.0%} ceiling"
    )


def test_cold_hydrate_latency_flat_at_10k_sessions(tmp_path):
    from repro.core import PhaseTracker

    # One warmed tracker, checkpointed under many names: the on-disk
    # population an LRU-capped server accumulates over days.
    registry = SessionRegistry(max_sessions=HYDRATE_SAMPLES + 1)
    manager = PersistenceManager(tmp_path / "data", registry, sync="none")
    tracker = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
    pcs, counts = _branch_stream(seed=1, n=3_000)
    tracker.observe_batch(pcs, counts, cpi=1.1)
    document = {
        "seq": 0,
        "snapshot": snapshot_tracker(tracker),
        "meta": {"intervals_pushed": 5, "branches_ingested": 3_000},
    }
    start = time.perf_counter()
    for index in range(COLD_SESSIONS):
        name = f"cold-{index}"
        manager.checkpoints.write(name, document)
        manager._cold.add(name)
    populate = time.perf_counter() - start

    rng = np.random.default_rng(2)
    picks = rng.choice(COLD_SESSIONS, size=HYDRATE_SAMPLES, replace=False)
    start = time.perf_counter()
    for index in picks:
        registry.get(f"cold-{index}")
    mean_hydrate = (time.perf_counter() - start) / HYDRATE_SAMPLES

    print(
        f"\n{COLD_SESSIONS} cold checkpoints written in {populate:.1f}s; "
        f"mean hydrate {mean_hydrate * 1e3:.2f}ms over "
        f"{HYDRATE_SAMPLES} random sessions"
    )
    assert registry.stats()["hydrated"] == HYDRATE_SAMPLES
    assert mean_hydrate <= HYDRATE_BUDGET_SECONDS, (
        f"mean cold-hydrate latency {mean_hydrate * 1e3:.1f}ms exceeds "
        f"{HYDRATE_BUDGET_SECONDS * 1e3:.0f}ms with "
        f"{COLD_SESSIONS} sessions on disk"
    )
    manager.close()
