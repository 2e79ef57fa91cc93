"""TrackerPool: the structure-of-arrays core must be indistinguishable
from the scalar PhaseTracker oracle — identical reports, byte-identical
snapshots — across configurations, plus its own slot-lifecycle rules."""

import json

import numpy as np
import pytest

from repro.core import (
    ClassifierConfig,
    ClassifierPool,
    PhaseClassifier,
    PhaseTracker,
    TrackerPool,
)
from repro.core.distance import max_normalizer, sum_normalizer
from repro.errors import (
    ConfigurationError,
    PoolError,
    PredictionError,
    SnapshotError,
)
from repro.workloads.trace import Interval, IntervalTrace

INTERVAL = 5_000

CONFIGS = [
    ClassifierConfig.paper_default(),
    ClassifierConfig.paper_baseline(),
    ClassifierConfig(
        num_counters=8,
        bits_per_counter=4,
        table_entries=4,
        similarity_threshold=0.25,
        min_count_threshold=1,
        match_policy="first",
        bit_selector="static",
        static_low_bit=2,
        perf_dev_threshold=0.5,
    ),
]


def interleaved_stream(seed, trackers, records):
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, trackers, size=records)
    pcs = (slots * 256 + rng.integers(0, 12, size=records)) * 4 + 0x4000
    counts = rng.integers(0, 400, size=records)
    return slots, pcs, counts


def drive_both(config, trackers=6, rounds=25, records=300, seed=0):
    """Feed identical interleaved streams to scalar oracles and one
    pool; returns (scalars, handles, scalar_reports, pool_reports)."""
    scalars = [
        PhaseTracker(config, interval_instructions=INTERVAL)
        for _ in range(trackers)
    ]
    pool = TrackerPool(capacity=2, config=config)  # exercises growth
    handles = [
        pool.acquire(interval_instructions=INTERVAL)
        for _ in range(trackers)
    ]
    scalar_reports, pool_reports = [], []
    for round_index in range(rounds):
        slots, pcs, counts = interleaved_stream(
            seed * 1000 + round_index, trackers, records
        )
        cpi = 1.0 + 0.2 * (round_index % 4)
        for slot, pc, count in zip(slots, pcs, counts):
            for report in scalars[slot].observe_batch([pc], [count], cpi=cpi):
                scalar_reports.append((int(slot), report))
        slot_ids = np.array([handles[index].slot for index in slots])
        slot_of = {handles[index].slot: index for index in range(trackers)}
        pool_reports.extend(
            (slot_of[slot], report)
            for slot, report in pool.observe_batch(
                slot_ids, pcs, counts, cpi=cpi
            )
        )
    return scalars, handles, scalar_reports, pool_reports


@pytest.mark.parametrize("config", CONFIGS)
def test_pool_matches_scalar_reports_and_snapshots(config):
    scalars, handles, scalar_reports, pool_reports = drive_both(config)
    assert scalar_reports == pool_reports
    assert len(scalar_reports) > 0
    for scalar, handle in zip(scalars, handles):
        # Key order included: a slot's export is the scalar's, byte
        # for byte.
        assert json.dumps(scalar.export_state()) == (
            json.dumps(handle.export_state())
        )


def test_pool_report_order_matches_record_order():
    """Reports interleave across slots in crossing-record order, the
    order a record-by-record replay produces."""
    config = ClassifierConfig.paper_default()
    pool = TrackerPool(capacity=4, config=config)
    a = pool.allocate(interval_instructions=100)
    b = pool.allocate(interval_instructions=100)
    # b crosses first (record 1), then a (record 2), then b again (3).
    reports = pool.observe_batch(
        [a, b, a, b],
        [0x40, 0x44, 0x48, 0x4C],
        [60, 120, 80, 150],
    )
    assert [slot for slot, _ in reports] == [b, a, b]


def test_mid_interval_snapshot_round_trip():
    """Evict/hydrate mid-interval: export a slot, restore into another
    pool, and both must finish the stream identically to the oracle."""
    config = ClassifierConfig.paper_default()
    scalar = PhaseTracker(config, interval_instructions=INTERVAL)
    pool = TrackerPool(capacity=2, config=config)
    handle = pool.acquire(interval_instructions=INTERVAL)

    rng = np.random.default_rng(42)
    pcs = (rng.integers(0, 32, size=800) * 4 + 0x400).astype(np.int64)
    counts = rng.integers(0, 300, size=800).astype(np.int64)
    scalar.observe_batch(pcs[:500], counts[:500], cpi=1.3)
    handle.observe_batch(pcs[:500], counts[:500], cpi=1.3)
    assert scalar.instructions_into_interval > 0  # genuinely mid-interval

    other = TrackerPool(capacity=1, config=config)
    adopted = other.try_adopt(handle.export_state())
    assert adopted is not None
    r1 = scalar.observe_batch(pcs[500:], counts[500:], cpi=0.9)
    r2 = adopted.observe_batch(pcs[500:], counts[500:], cpi=0.9)
    assert r1 == r2
    assert json.dumps(scalar.export_state(), sort_keys=True) == (
        json.dumps(adopted.export_state(), sort_keys=True)
    )


def test_try_adopt_rejects_foreign_config():
    pool = TrackerPool(capacity=2, config=ClassifierConfig.paper_default())
    scalar = PhaseTracker(
        ClassifierConfig.paper_baseline(), interval_instructions=INTERVAL
    )
    assert pool.try_adopt(scalar.export_state()) is None
    assert pool.active_slots == 0


def test_restore_slot_refuses_config_mismatch():
    pool = TrackerPool(capacity=2, config=ClassifierConfig.paper_default())
    handle = pool.acquire()
    scalar = PhaseTracker(
        ClassifierConfig.paper_baseline(), interval_instructions=INTERVAL
    )
    with pytest.raises(ConfigurationError):
        handle.restore_state(scalar.export_state())


@pytest.mark.parametrize("spec", [
    "rle",
    ["rle"],
    {"kind": ["rle"], "kwargs": {}},
])
def test_restore_slot_refuses_a_change_predictor_spec_of_the_wrong_type(spec):
    pool = TrackerPool(capacity=1)
    handle = pool.acquire()
    state = handle.export_state()
    state["change_predictor"] = spec
    with pytest.raises(SnapshotError, match="change-predictor"):
        handle.restore_state(state)


class TestSlotLifecycle:
    def test_release_makes_handle_stale(self):
        pool = TrackerPool(capacity=2)
        handle = pool.acquire()
        handle.release()
        with pytest.raises(PoolError):
            handle.observe_branch(0x400, 10)
        with pytest.raises(PoolError):
            handle.export_state()

    def test_released_handle_keeps_final_summary_stats(self):
        """The service reports intervals/phase in close events after
        recycling, so a released facade must still answer the two
        read-only summary properties (mutation still raises)."""
        pool = TrackerPool(capacity=1, auto_grow=False)
        handle = pool.acquire(interval_instructions=50)
        handle.observe_batch([0x400, 0x404], [60, 60], cpi=1.0)
        intervals = handle.intervals_observed
        phase = handle.current_phase
        assert intervals > 0
        handle.release()
        # The next tenant mutating the slot must not leak through.
        successor = pool.acquire(interval_instructions=50)
        successor.observe_batch([0x500, 0x504], [60, 60], cpi=1.0)
        assert handle.intervals_observed == intervals
        assert handle.current_phase == phase

    def test_slot_reuse_gets_fresh_generation(self):
        pool = TrackerPool(capacity=1, auto_grow=False)
        first = pool.acquire()
        first.observe_branch(0x400, 10)
        first.release()
        second = pool.acquire()
        # Same physical slot, clean state, and the old handle is dead.
        assert second.slot == first.slot
        assert second.instructions_into_interval == 0
        with pytest.raises(PoolError):
            first.observe_branch(0x400, 10)

    def test_full_pool_without_growth_raises(self):
        pool = TrackerPool(capacity=1, auto_grow=False)
        pool.acquire()
        with pytest.raises(PoolError):
            pool.acquire()

    def test_auto_grow_preserves_state(self):
        pool = TrackerPool(capacity=1)
        first = pool.acquire()
        first.observe_branch(0x400, 10)
        before = first.export_state()
        handles = [pool.acquire() for _ in range(7)]
        assert pool.capacity >= 8
        assert first.export_state() == before
        assert len({handle.slot for handle in handles} | {first.slot}) == 8

    def test_unallocated_slot_rejected(self):
        pool = TrackerPool(capacity=4)
        slot = pool.allocate()
        with pytest.raises(PoolError):
            pool.observe_batch([slot, slot + 1], [0x400, 0x404], [1, 1])

    def test_reset_slot_matches_fresh_tracker(self):
        config = ClassifierConfig.paper_default()
        pool = TrackerPool(capacity=2, config=config)
        handle = pool.acquire(interval_instructions=INTERVAL)
        rng = np.random.default_rng(3)
        handle.observe_batch(
            rng.integers(0, 64, size=400) * 4,
            rng.integers(0, 200, size=400),
        )
        handle.reset()
        fresh = PhaseTracker(config, interval_instructions=INTERVAL)
        assert json.dumps(handle.export_state(), sort_keys=True) == (
            json.dumps(fresh.export_state(), sort_keys=True)
        )


class TestValidation:
    def test_infinite_table_rejected(self):
        config = ClassifierConfig(table_entries=None)
        with pytest.raises(PoolError):
            TrackerPool(capacity=4, config=config)

    def test_custom_normalizer_rejected(self):
        with pytest.raises(PoolError):
            ClassifierPool(4, normalizer=lambda a, b: float(max(a, b, 1)))

    def test_max_normalizer_supported(self):
        trace = _make_trace(9, 8)
        config = ClassifierConfig.paper_default()
        pooled = _pool_classify_with_normalizer(trace, config, max_normalizer)
        scalar = PhaseClassifier(
            config, normalizer=max_normalizer
        ).classify_trace(trace)
        assert pooled == [r for r in scalar.results]

    def test_duplicate_slots_in_classify_rejected(self):
        pool = ClassifierPool(4)
        with pytest.raises(PoolError):
            pool.classify(np.array([1, 1]), np.array([1.0, 1.0]))

    def test_boundary_pending_blocks_ingest(self):
        pool = TrackerPool(capacity=2)
        slot = pool.allocate(interval_instructions=100)
        assert pool.observe_branch(slot, 0x400, 150) is True
        with pytest.raises(PredictionError):
            pool.observe_branch(slot, 0x404, 1)
        with pytest.raises(PredictionError):
            pool.observe_batch([slot], [0x404], [1])
        report = pool.complete_interval(slot, cpi=1.0)
        assert report.interval_index == 0

    def test_negative_counts_rejected(self):
        pool = TrackerPool(capacity=2)
        slot = pool.allocate()
        with pytest.raises(ValueError):
            pool.observe_batch([slot], [0x400], [-1])

    def test_empty_batch_is_noop(self):
        pool = TrackerPool(capacity=2)
        pool.allocate()
        assert pool.observe_batch([], [], []) == []


def _make_trace(seed, num_intervals):
    rng = np.random.default_rng(seed)
    intervals = []
    for _ in range(num_intervals):
        branches = int(rng.integers(3, 20))
        intervals.append(Interval(
            branch_pcs=(rng.integers(0, 50, size=branches) * 4 + 0x400)
            .astype(np.int64),
            instr_counts=rng.integers(1, 300, size=branches)
            .astype(np.int64),
            cpi=float(rng.uniform(0.5, 3.0)),
        ))
    return IntervalTrace(name=f"synthetic-{seed}", intervals=intervals)


def _pool_classify_with_normalizer(trace, config, normalizer):
    from repro.core.events import ClassificationResult

    pool = ClassifierPool(1, config, normalizer=normalizer)
    results = []
    for interval in trace:
        pool.ingest(
            np.zeros(interval.branch_pcs.size, dtype=np.int64),
            interval.branch_pcs, interval.instr_counts,
        )
        verdict = pool.classify(
            np.array([0]), np.array([interval.cpi])
        )
        results.append(ClassificationResult(
            phase_id=int(verdict["phase_id"][0]),
            matched=bool(verdict["matched"][0]),
            distance=float(verdict["distance"][0]),
            threshold_tightened=bool(verdict["threshold_tightened"][0]),
            new_phase_allocated=bool(verdict["new_phase_allocated"][0]),
        ))
    return results


def test_pooled_reports_are_json_safe():
    """Pooled reports must carry Python scalars, not numpy ones — the
    service serializes them straight to the wire (numpy equality made
    ``==``-based comparisons blind to this)."""
    pool = TrackerPool(capacity=1)
    handle = pool.acquire(interval_instructions=50)
    reports = handle.observe_batch(
        [0x400, 0x404, 0x400, 0x500], [60, 60, 60, 60], cpi=1.0
    )
    assert reports
    for report in reports:
        payload = report.to_dict()
        json.dumps(payload)  # numpy scalars would raise TypeError
        for name, value in payload.items():
            assert value is None or type(value) in (int, bool), name


def test_report_legacy_alias():
    """The retired ``interval`` alias of ``interval_index`` is gone:
    the wire form carries only the current key, and asking for the
    alias is an error."""
    pool = TrackerPool(capacity=1)
    slot = pool.allocate(interval_instructions=50)
    pool.observe_branch(slot, 0x400, 60)
    report = pool.complete_interval(slot, cpi=1.0)
    payload = report.to_dict()
    assert "interval" not in payload
    assert payload["interval_index"] == 0
    with pytest.raises(TypeError):
        report.to_dict(legacy=True)


class TestPoolTelemetry:
    """The pool's self-instrumentation (gauges, counters, the boundary
    batch-size histogram) — all optional, all keyed off ``telemetry=``."""

    def make(self, capacity=4, **kwargs):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        pool = TrackerPool(
            capacity=capacity,
            config=ClassifierConfig.paper_default(),
            telemetry=telemetry,
            **kwargs,
        )
        return pool, telemetry.metrics

    def test_capacity_and_active_gauges(self):
        pool, metrics = self.make(capacity=4)
        assert metrics.get("repro_pool_capacity").value == 4
        assert metrics.get("repro_pool_active_slots").value == 0
        a = pool.allocate()
        pool.allocate()
        assert metrics.get("repro_pool_active_slots").value == 2
        pool.release(a)
        assert metrics.get("repro_pool_active_slots").value == 1
        assert metrics.get("repro_pool_acquires_total").value == 2
        assert metrics.get("repro_pool_releases_total").value == 1

    def test_grow_updates_capacity_gauge_and_counter(self):
        pool, metrics = self.make(capacity=1, auto_grow=True)
        pool.allocate()
        pool.allocate()  # forces growth
        assert metrics.get("repro_pool_grows_total").value == 1
        assert metrics.get("repro_pool_capacity").value == pool.capacity
        assert pool.capacity > 1

    def test_adoption_counter(self):
        source = TrackerPool(capacity=1, config=ClassifierConfig.paper_default())
        handle = source.acquire(interval_instructions=INTERVAL)
        handle.observe_batch([0x400, 0x404], [60, 60], cpi=1.0)
        pool, metrics = self.make(capacity=1)
        assert pool.try_adopt(handle.export_state()) is not None
        assert metrics.get("repro_pool_adoptions_total").value == 1

    def test_boundary_batch_size_histogram(self):
        pool, metrics = self.make(capacity=4)
        slots = [pool.allocate(interval_instructions=100) for _ in range(3)]
        # Every slot crosses its boundary in the same batched round.
        pool.observe_batch(slots, [0x40, 0x44, 0x48], [150, 150, 150])
        histogram = metrics.get("repro_pool_boundary_batch_size")
        assert histogram.count == 1
        assert histogram.sum == 3

    def test_untelemetered_pool_has_no_metrics_overhead(self):
        pool = TrackerPool(capacity=2, config=ClassifierConfig.paper_default())
        assert pool._m_capacity is None
        assert pool._m_batch is None
        slot = pool.allocate()
        pool.observe_batch([slot], [0x40], [10])  # must not raise


class TestObserveFanin:
    """The coalescing fan-in entry point: many per-session slices, one
    fused pass, reports attributed back to the owning segment — and
    the pool state byte-identical to running the slices sequentially."""

    @staticmethod
    def segment_stream(seed, trackers, segments, max_records=12):
        """Random per-request slices: (tracker_index, pcs, counts, cpi),
        several per tracker, each with its own cpi."""
        rng = np.random.default_rng(seed)
        out = []
        for index in range(segments):
            tracker = int(rng.integers(0, trackers))
            size = int(rng.integers(0, max_records + 1))
            pcs = (
                (tracker * 256 + rng.integers(0, 12, size=size)) * 4
                + 0x4000
            )
            counts = rng.integers(0, 400, size=size)
            cpi = float(1.0 + 0.25 * (index % 5))
            out.append((tracker, pcs, counts, cpi))
        return out

    @pytest.mark.parametrize("config", CONFIGS)
    def test_fanin_matches_sequential_observe_batch(self, config):
        trackers = 5
        fused = TrackerPool(capacity=trackers, config=config)
        oracle = TrackerPool(capacity=trackers, config=config)
        fused_handles = [
            fused.acquire(interval_instructions=INTERVAL)
            for _ in range(trackers)
        ]
        oracle_handles = [
            oracle.acquire(interval_instructions=INTERVAL)
            for _ in range(trackers)
        ]
        crossings = 0
        for round_index in range(30):
            stream = self.segment_stream(
                round_index, trackers, segments=16
            )
            segments = [
                (fused_handles[tracker].slot, pcs, counts, cpi)
                for tracker, pcs, counts, cpi in stream
            ]
            fanned = fused.observe_fanin(segments)
            assert len(fanned) == len(segments)
            for (tracker, pcs, counts, cpi), reports in zip(
                stream, fanned
            ):
                expected = oracle_handles[tracker].observe_batch(
                    pcs, counts, cpi=cpi
                )
                assert reports == expected
                crossings += len(reports)
        assert crossings > 0  # the stream actually crossed boundaries
        for fused_handle, oracle_handle in zip(
            fused_handles, oracle_handles
        ):
            assert json.dumps(
                fused_handle.export_state(), sort_keys=True
            ) == json.dumps(oracle_handle.export_state(), sort_keys=True)

    def test_empty_segment_owns_no_reports(self):
        config = ClassifierConfig.paper_default()
        pool = TrackerPool(capacity=2, config=config)
        a = pool.allocate(interval_instructions=100)
        b = pool.allocate(interval_instructions=100)
        # The empty slice sits between two crossing slices that share
        # its concatenation offset; attribution must skip it.
        fanned = pool.observe_fanin([
            (a, [0x40], [150], 1.5),
            (b, [], [], 9.0),
            (b, [0x44], [150], 2.5),
        ])
        assert [len(reports) for reports in fanned] == [1, 0, 1]
        oracle_a = PhaseTracker(config, interval_instructions=100)
        oracle_b = PhaseTracker(config, interval_instructions=100)
        assert fanned[0] == oracle_a.observe_batch([0x40], [150], cpi=1.5)
        assert fanned[2] == oracle_b.observe_batch([0x44], [150], cpi=2.5)

    def test_repeated_slot_slices_apply_in_order(self):
        config = ClassifierConfig.paper_default()
        pool = TrackerPool(capacity=1, config=config)
        oracle = PhaseTracker(config, interval_instructions=100)
        slot = pool.allocate(interval_instructions=100)
        fanned = pool.observe_fanin([
            (slot, [0x40, 0x44], [60, 30], 1.25),
            (slot, [0x48], [80], 3.0),   # crosses here with cpi=3.0
            (slot, [0x4C], [140], 0.5),  # crosses again with cpi=0.5
        ])
        expected = [
            oracle.observe_batch([0x40, 0x44], [60, 30], cpi=1.25),
            oracle.observe_batch([0x48], [80], cpi=3.0),
            oracle.observe_batch([0x4C], [140], cpi=0.5),
        ]
        assert fanned == expected
        assert [len(reports) for reports in fanned] == [0, 1, 1]
        # The per-segment cpis landed in the pool's interval history
        # exactly as sequential scalar calls would record them.
        assert json.dumps(
            pool.export_slot(slot), sort_keys=True
        ) == json.dumps(oracle.export_state(), sort_keys=True)

    def test_empty_call_and_validation(self):
        config = ClassifierConfig.paper_default()
        pool = TrackerPool(capacity=1, config=config)
        slot = pool.allocate(interval_instructions=100)
        assert pool.observe_fanin([]) == []
        assert pool.observe_fanin([(slot, [], [], 1.0)]) == [[]]
        with pytest.raises(PredictionError):
            pool.observe_fanin([(slot, [0x40], [1, 2], 1.0)])
        with pytest.raises(ValueError):
            pool.observe_fanin([(slot, [0x40], [-1], 1.0)])
        with pytest.raises(PoolError):
            pool.observe_fanin([(slot + 1, [0x40], [1], 1.0)])
