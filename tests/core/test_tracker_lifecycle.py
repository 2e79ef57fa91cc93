"""PhaseTracker lifecycle hooks: reset(), observe_batch(), and the
TrackerReport wire form — the contracts the service subsystem builds on."""

import dataclasses

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.core.online import TrackerReport
from repro.errors import PredictionError


def two_region_stream(seed=0, n=5000):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(n) < 0.5, 0x400000, 0x900000)
    pcs = (region + rng.integers(0, 64, size=n) * 4).tolist()
    counts = rng.integers(1, 120, size=n).tolist()
    return pcs, counts


def drive_per_branch(tracker, pcs, counts, cpi=1.0):
    reports = []
    for pc, count in zip(pcs, counts):
        if tracker.observe_branch(pc, count):
            reports.append(tracker.complete_interval(cpi))
    return reports


class TestReset:
    def test_reset_tracker_reproduces_fresh_classification_stream(self):
        """The session-pool recycling contract: after reset() the
        tracker's classification and prediction stream is identical to
        a newly constructed tracker's over the same branches."""
        pcs, counts = two_region_stream()
        recycled = PhaseTracker(interval_instructions=4_000)
        # Pollute every piece of state with a different stream first.
        other_pcs, other_counts = two_region_stream(seed=99)
        drive_per_branch(recycled, other_pcs, other_counts, cpi=2.5)
        recycled.reset()

        fresh = PhaseTracker(interval_instructions=4_000)
        reports_recycled = drive_per_branch(recycled, pcs, counts)
        reports_fresh = drive_per_branch(fresh, pcs, counts)
        assert ([r.to_dict() for r in reports_recycled]
                == [r.to_dict() for r in reports_fresh])
        assert reports_recycled            # streams actually classified

    def test_reset_clears_bookkeeping_and_listeners(self):
        tracker = PhaseTracker(interval_instructions=1_000)
        tracker.add_phase_change_listener(lambda report: None)
        tracker.observe_branch(4096, 700)
        tracker.reset()
        assert tracker.intervals_observed == 0
        assert tracker.current_phase is None
        assert tracker.instructions_into_interval == 0
        assert tracker._listeners == []

    def test_reset_clears_a_pending_boundary(self):
        tracker = PhaseTracker(interval_instructions=100)
        assert tracker.observe_branch(4096, 200)   # boundary pending
        tracker.reset()
        tracker.observe_branch(4096, 50)           # must not raise


class TestObserveBatch:
    def test_equivalent_to_per_branch_loop(self):
        pcs, counts = two_region_stream(seed=1)
        batched = PhaseTracker(interval_instructions=4_000)
        looped = PhaseTracker(interval_instructions=4_000)
        reports_batched = []
        for start in range(0, len(pcs), 777):   # deliberately odd strides
            reports_batched += batched.observe_batch(
                pcs[start:start + 777], counts[start:start + 777], cpi=1.0
            )
        reports_looped = drive_per_branch(looped, pcs, counts, cpi=1.0)
        assert ([r.to_dict() for r in reports_batched]
                == [r.to_dict() for r in reports_looped])
        assert batched.instructions_into_interval \
            == looped.instructions_into_interval

    def test_single_batch_crossing_many_boundaries(self):
        tracker = PhaseTracker(interval_instructions=100)
        reports = tracker.observe_batch([4096] * 10, [60] * 10)
        # 600 instructions over 100-instruction intervals: the crossing
        # branch is attributed entirely to the completing interval.
        assert len(reports) == 5
        assert tracker.instructions_into_interval == 0

    def test_empty_batch_is_a_no_op(self):
        tracker = PhaseTracker()
        assert tracker.observe_batch([], []) == []

    def test_rejects_mismatched_arrays(self):
        tracker = PhaseTracker()
        with pytest.raises(PredictionError):
            tracker.observe_batch([1, 2], [3])

    def test_rejects_negative_counts(self):
        tracker = PhaseTracker()
        with pytest.raises(ValueError):
            tracker.observe_batch([4096], [-1])

    def test_rejects_pending_boundary(self):
        tracker = PhaseTracker(interval_instructions=100)
        assert tracker.observe_branch(4096, 200)
        with pytest.raises(PredictionError):
            tracker.observe_batch([4096], [10])


UNUSABLE_CPIS = [float("nan"), float("inf"), 0.0, -1.0]


class TestCpiRefusal:
    """The tracker refuses a CPI it cannot fold into an entry's running
    mean, once per public call and before any state changes."""

    @pytest.mark.parametrize("cpi", UNUSABLE_CPIS)
    def test_observe_batch_refuses_before_ingesting(self, cpi):
        tracker = PhaseTracker(interval_instructions=100)
        tracker.observe_batch([4096], [60])
        before = tracker.export_state()
        with pytest.raises(ValueError, match="cpi"):
            tracker.observe_batch([4096] * 4, [60] * 4, cpi=cpi)
        # Nothing ingested, and no boundary left pending.
        assert tracker.export_state() == before
        assert len(tracker.observe_batch([4096] * 4, [60] * 4)) == 2

    @pytest.mark.parametrize("cpi", UNUSABLE_CPIS)
    def test_complete_interval_refuses_and_keeps_the_boundary(self, cpi):
        tracker = PhaseTracker(interval_instructions=100)
        assert tracker.observe_branch(4096, 200)
        before = tracker.export_state()
        with pytest.raises(ValueError, match="cpi"):
            tracker.complete_interval(cpi)
        assert tracker.export_state() == before
        assert tracker.complete_interval(1.0).interval_index == 0

    def test_refused_nan_keeps_the_adaptive_threshold_halving(self):
        """A NaN folded into a stable entry's CPI mean would make every
        later deviation NaN, and the threshold would never halve."""
        tracker = PhaseTracker(interval_instructions=1000)
        stable = ([4096, 4100], [500, 500])
        for _ in range(12):
            tracker.observe_batch(*stable, cpi=1.0)
        table = tracker.classifier.table
        assert len(table) == 1
        assert table.phase_ids[0] is not None
        with pytest.raises(ValueError):
            tracker.observe_batch(*stable, cpi=float("nan"))
        for _ in range(5):
            tracker.observe_batch(*stable, cpi=50.0)
        assert table.thresholds[0] == 0.125


class TestReportWireForm:
    def test_to_dict_from_dict_round_trip(self):
        tracker = PhaseTracker(interval_instructions=500)
        report = tracker.observe_batch([4096] * 20, [40] * 20)[0]
        payload = report.to_dict()
        assert payload["interval_index"] == 0
        assert isinstance(payload["phase_id"], int)
        assert TrackerReport.from_dict(payload) == report
        # Interval pushes and the benchmark's oracle digests are built
        # from this dict, so its key order is part of the wire format.
        assert list(payload) == [
            field.name for field in dataclasses.fields(TrackerReport)
        ]
        assert payload == dataclasses.asdict(report)

    def test_to_dict_is_json_safe(self):
        import json

        tracker = PhaseTracker(interval_instructions=500)
        report = tracker.observe_batch([4096] * 20, [40] * 20)[0]
        decoded = json.loads(json.dumps(report.to_dict()))
        assert TrackerReport.from_dict(decoded) == report
