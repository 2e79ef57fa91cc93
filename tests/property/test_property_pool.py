"""Property: a TrackerPool of N randomly configured trackers is
state-identical — byte-equal exported snapshots and equal report
streams — to N scalar PhaseTrackers fed the same interleaved branch
streams (hypothesis)."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker, TrackerPool

INTERVAL_INSTRUCTIONS = 1_500
TRACKERS = 3

# Finite tables only: the pool (correctly) refuses table_entries=None.
configs = st.builds(
    ClassifierConfig,
    num_counters=st.sampled_from([8, 16]),
    bits_per_counter=st.sampled_from([4, 6]),
    table_entries=st.sampled_from([2, 4, 16]),
    similarity_threshold=st.sampled_from([0.0625, 0.125, 0.25]),
    min_count_threshold=st.integers(min_value=0, max_value=4),
    match_policy=st.sampled_from(["first", "most_similar"]),
    bit_selector=st.sampled_from(["static", "dynamic"]),
    static_low_bit=st.sampled_from([0, 2]),
    perf_dev_threshold=st.sampled_from([None, 0.25]),
)


def interleaved_stream(seed, records):
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, TRACKERS, size=records)
    region = np.where(rng.random(records) < 0.5, 0x400000, 0x900000)
    pcs = region + (slots * 64 + rng.integers(0, 24, size=records)) * 4
    counts = rng.integers(0, 120, size=records)
    return slots, pcs, counts


def scalar_replay(scalars, slots, pcs, counts, cpi):
    reports = []
    for slot, pc, count in zip(slots, pcs, counts):
        for report in scalars[slot].observe_batch([pc], [count], cpi=cpi):
            reports.append((int(slot), report))
    return reports


@settings(max_examples=25, deadline=None)
@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rounds=st.integers(min_value=2, max_value=6),
)
def test_pool_state_identical_to_scalar_trackers(config, seed, rounds):
    scalars = [
        PhaseTracker(config, interval_instructions=INTERVAL_INSTRUCTIONS)
        for _ in range(TRACKERS)
    ]
    pool = TrackerPool(capacity=TRACKERS, config=config)
    handles = [
        pool.acquire(interval_instructions=INTERVAL_INSTRUCTIONS)
        for _ in range(TRACKERS)
    ]
    for round_index in range(rounds):
        slots, pcs, counts = interleaved_stream(
            seed + round_index, records=250
        )
        cpi = 1.0 + 0.25 * (round_index % 3)
        expected = scalar_replay(scalars, slots, pcs, counts, cpi)
        slot_ids = np.array([handles[index].slot for index in slots])
        slot_of = {handle.slot: i for i, handle in enumerate(handles)}
        got = [
            (slot_of[slot], report)
            for slot, report in pool.observe_batch(
                slot_ids, pcs, counts, cpi=cpi
            )
        ]
        assert got == expected
    for scalar, handle in zip(scalars, handles):
        assert json.dumps(scalar.export_state(), sort_keys=True) == (
            json.dumps(handle.export_state(), sort_keys=True)
        )
