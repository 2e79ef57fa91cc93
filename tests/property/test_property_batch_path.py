"""The batch ingest path against its references (hypothesis).

``PhaseTracker.observe_batch`` hashes a batch once, sums each interval's
stretch with one ``bincount``, compresses with one ``minimum`` and picks
the matching entry with one ``argmin``/``argmax``. Each piece is checked
here against a plain form of the same computation: the whole path
against the per-branch ``observe_branch`` + ``complete_interval`` loop,
and the hash, the bit selector and the table search against pure-Python
or list-based references. The service, the pool and the benchmark's
oracle all share these pieces, so no end-to-end comparison between them
could catch a change here.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker
from repro.core.accumulator import hash_pc
from repro.core.bitselect import DynamicBitSelector, StaticBitSelector
from repro.core.distance import (
    max_normalizer,
    relative_distance,
    sum_normalizer,
)
from repro.core.signature import Signature
from repro.core.signature_table import SignatureTable

configs = st.builds(
    ClassifierConfig,
    num_counters=st.sampled_from([8, 16, 32, 64]),
    table_entries=st.sampled_from([None, 4, 32]),
    min_count_threshold=st.sampled_from([0, 2, 8]),
    match_policy=st.sampled_from(["most_similar", "first"]),
    bit_selector=st.sampled_from(["dynamic", "static"]),
    perf_dev_threshold=st.sampled_from([None, 0.25]),
)
intervals = st.one_of(
    st.sampled_from([1, 4_000, 2**25]), st.integers(1, 2**25)
)
#: Half-open PC ranges: a small loop (repeated signatures), negative
#: PCs, and PCs above 2**62.
PC_RANGES = {
    "loop": (0x400000, 0x400000 + 4 * 48),
    "negative": (-(2**63), 0),
    "high": (2**62, 2**63),
}
#: Largest count per record. 2**54 puts a single record past the float64
#: bincount's exact range, so the integer scatter-add runs too.
COUNT_MAXIMA = ["small", "interval", 2**40, 2**54]
CPIS = [0.5, 1.0, 1.3, 3.0]


def _records(seed, pc_range, count_max, interval, size):
    rng = np.random.default_rng(seed)
    low, high = PC_RANGES[pc_range]
    if pc_range == "loop":
        pcs = low + 4 * rng.integers(0, (high - low) // 4, size=size)
    else:
        pcs = rng.integers(low, high, size=size, dtype=np.int64)
    top = {"small": 150, "interval": 3 * interval}.get(count_max, count_max)
    counts = rng.integers(0, top, size=size, endpoint=True, dtype=np.int64)
    return pcs, counts


def _state(tracker):
    return json.dumps(tracker.export_state(), sort_keys=True)


@given(
    config=configs,
    interval=intervals,
    pc_range=st.sampled_from(sorted(PC_RANGES)),
    count_max=st.sampled_from(COUNT_MAXIMA),
    size=st.integers(1, 160),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_observe_batch_equals_the_per_branch_loop(
    config, interval, pc_range, count_max, size, seed, data
):
    pcs, counts = _records(seed, pc_range, count_max, interval, size)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, size), max_size=8), label="cuts"
    ))
    bounds = [0, *cuts, size]
    cpis = data.draw(st.lists(
        st.sampled_from(CPIS), min_size=len(bounds) - 1,
        max_size=len(bounds) - 1,
    ), label="cpis")

    batched = PhaseTracker(config, interval_instructions=interval)
    stepped = PhaseTracker(config, interval_instructions=interval)
    batched_reports, stepped_reports = [], []
    for start, stop, cpi in zip(bounds, bounds[1:], cpis):
        batched_reports += [
            report.to_dict()
            for report in batched.observe_batch(
                pcs[start:stop], counts[start:stop], cpi=cpi
            )
        ]
        for pc, count in zip(pcs[start:stop].tolist(),
                             counts[start:stop].tolist()):
            if stepped.observe_branch(pc, count):
                stepped_reports.append(
                    stepped.complete_interval(cpi).to_dict()
                )
        assert batched_reports == stepped_reports
        assert _state(batched) == _state(stepped)


def _folded_hash(pc, num_counters):
    """The hash as plain integer arithmetic on the PC's value."""
    h = (pc >> 2) * 2654435761 & 0xFFFFFFFF
    return (h ^ h >> 16) & (num_counters - 1)


#: Up to 2**20 counters, so the 32-bit mask before the fold matters.
hash_sizes = st.sampled_from([1, 2, 8, 16, 64, 2**16, 2**17, 2**20])


@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64),
       hash_sizes)
def test_hash_pc_on_int64_is_the_integer_fold(pcs, num_counters):
    indices = hash_pc(np.array(pcs, dtype=np.int64), num_counters)
    assert indices.dtype == np.int64
    assert indices.tolist() == [_folded_hash(pc, num_counters) for pc in pcs]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       hash_sizes)
def test_hash_pc_on_uint64_is_the_integer_fold(pcs, num_counters):
    indices = hash_pc(np.array(pcs, dtype=np.uint64), num_counters)
    assert indices.dtype == np.int64
    assert indices.tolist() == [_folded_hash(pc, num_counters) for pc in pcs]


selectors = st.one_of(
    st.integers(1, 24).map(lambda bits: DynamicBitSelector(bits=bits)),
    st.integers(1, 8).flatmap(lambda bits: st.integers(0, 24 - bits).map(
        lambda low_bit: StaticBitSelector(bits=bits, low_bit=low_bit)
    )),
)


@given(
    selector=selectors,
    counters=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=64),
    average=st.integers(0, 2**40),
)
def test_compress_is_mask_then_saturate(selector, counters, average):
    shift = selector.shift_for(average)
    top = selector.max_value
    expected = [
        top if counter >> (shift + selector.bits) else (counter >> shift) & top
        for counter in counters
    ]
    array = np.array(counters, dtype=np.int64)
    compressed = selector.compress(array, average)
    assert compressed.dtype == np.int64
    assert compressed.tolist() == expected
    assert array.tolist() == counters  # not modified


def _weighted_normalizer(total_a, total_b):
    return float(total_a + 2 * total_b + 1)


@st.composite
def tables(draw):
    """A table whose entries repeat a few signatures (so distances
    tie), each entry with its own threshold, and a probe."""
    dims = draw(st.integers(1, 16))
    vector = st.lists(st.integers(0, 63), min_size=dims, max_size=dims)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=24))
    thresholds = draw(st.lists(
        st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.0625, 0.01]),
        min_size=len(rows), max_size=len(rows),
    ))
    probe = draw(st.one_of(st.sampled_from(pool), vector))
    return rows, thresholds, probe


@given(
    table_spec=tables(),
    normalizer=st.sampled_from(
        [sum_normalizer, max_normalizer, _weighted_normalizer]
    ),
    policy=st.sampled_from(["most_similar", "first"]),
)
def test_best_match_is_the_list_reference(table_spec, normalizer, policy):
    rows, thresholds, probe_values = table_spec
    table = SignatureTable(
        capacity=None, default_threshold=1.0, normalizer=normalizer
    )
    for values, threshold in zip(rows, thresholds):
        row = table.insert(Signature(values, bits=6))
        table.thresholds[row] = threshold
    probe = Signature(probe_values, bits=6)

    matches = table.find_matches(probe)
    expected = []
    for row, (values, threshold) in enumerate(zip(rows, thresholds)):
        distance = relative_distance(
            Signature(values, bits=6), probe, normalizer
        )
        if distance <= threshold:
            expected.append((row, distance))
    assert matches == expected

    best = table.best_match(probe, policy)
    if not matches:
        assert best is None
        return
    # ``min`` keeps the earliest of equal distances: a tie between
    # duplicate signatures goes to the older entry.
    reference = (
        matches[0] if policy == "first"
        else min(matches, key=lambda pair: pair[1])
    )
    assert best == reference
