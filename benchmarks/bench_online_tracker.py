"""Benchmark: PhaseTracker branch-granularity and batch throughput.

The deployability claim implies the per-branch work is trivial (a hash
and a counter add). The first case measures sustained branches/second
through the full tracker, one ``observe_branch`` per record, including
interval-boundary classification and prediction updates. The second
drives ``observe_batch`` with the service benchmark's ``fleet`` shape:
40-record batches of about 100 instructions each at a 4,000-instruction
interval, so nearly every batch closes one interval and the fixed cost
per call, not the per-record work, sets the time.
"""

import numpy as np

from repro.core import ClassifierConfig, PhaseTracker


def test_tracker_branch_throughput(benchmark):
    rng = np.random.default_rng(0)
    pcs = (0x400000 + rng.integers(0, 64, size=4096) * 4).astype(int)
    counts = rng.integers(50, 150, size=4096).astype(int)

    def drive():
        tracker = PhaseTracker(
            ClassifierConfig.paper_default(),
            interval_instructions=100_000,
        )
        index = 0
        for _ in range(4096):
            boundary = tracker.observe_branch(
                int(pcs[index]), int(counts[index])
            )
            if boundary:
                tracker.complete_interval(cpi=1.0)
            index += 1
        return tracker

    tracker = benchmark(drive)
    assert tracker.intervals_observed > 0


def test_tracker_fleet_batch_throughput(benchmark):
    rng = np.random.default_rng(0)
    batches = 400
    # Runs of 10 batches in one of three code regions, so intervals
    # both match table entries and allocate new ones.
    region = np.repeat(rng.integers(0, 3, size=batches // 10), 10)
    pcs = (
        0x400000 + region[:, None] * 0x10000
        + rng.integers(0, 24, size=(batches, 40)) * 4
    )
    counts = rng.integers(50, 151, size=(batches, 40))

    def drive():
        tracker = PhaseTracker(
            ClassifierConfig.paper_default(),
            interval_instructions=4_000,
        )
        reports = 0
        for batch_pcs, batch_counts in zip(pcs, counts):
            reports += len(
                tracker.observe_batch(batch_pcs, batch_counts, cpi=1.0)
            )
        return tracker, reports

    tracker, reports = benchmark(drive)
    assert reports == tracker.intervals_observed
    assert reports > batches // 2
