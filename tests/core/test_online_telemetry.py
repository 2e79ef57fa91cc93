"""PhaseTracker instrumentation and listener isolation."""

import io

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.telemetry import EventLog, Telemetry, read_events


def drive_tracker(tracker, branches=8192, seed=0, interval_cpi=1.0):
    """Replay a synthetic branch stream; returns completed reports."""
    rng = np.random.default_rng(seed)
    pcs = (0x400000 + rng.integers(0, 64, size=branches) * 4).astype(int)
    counts = rng.integers(50, 150, size=branches).astype(int)
    reports = []
    for pc, count in zip(pcs, counts):
        if tracker.observe_branch(int(pc), int(count)):
            reports.append(tracker.complete_interval(cpi=interval_cpi))
    return reports


@pytest.fixture
def telemetry():
    return Telemetry(events=EventLog(stream=io.StringIO()))


def events_of(telemetry):
    return read_events(io.StringIO(telemetry.events._stream.getvalue()))


class TestTrackerMetrics:
    def test_counters_consistent_with_reports(self, telemetry):
        tracker = PhaseTracker(
            ClassifierConfig.paper_default(),
            interval_instructions=50_000,
            telemetry=telemetry,
        )
        reports = drive_tracker(tracker)
        metrics = telemetry.metrics
        intervals = metrics.get("repro_tracker_intervals_total").value
        assert intervals == len(reports) > 0
        hits = metrics.get("repro_signature_table_hits_total").value
        misses = metrics.get("repro_signature_table_misses_total").value
        assert hits + misses == intervals
        assert metrics.get("repro_tracker_branches_total").value > 0
        assert (
            metrics.get("repro_tracker_transition_intervals_total").value
            == sum(r.is_transition for r in reports)
        )
        assert (
            metrics.get("repro_tracker_phase_changes_total").value
            == sum(r.phase_changed for r in reports)
        )
        occupancy = metrics.get("repro_signature_table_occupancy").value
        assert occupancy == len(tracker.classifier.table)

    def test_prediction_accuracy_counters(self, telemetry):
        tracker = PhaseTracker(
            ClassifierConfig.paper_default(),
            interval_instructions=50_000,
            telemetry=telemetry,
        )
        reports = drive_tracker(tracker)
        metrics = telemetry.metrics
        total = metrics.get("repro_next_phase_predictions_total").value
        correct = metrics.get("repro_next_phase_correct_total").value
        confident = metrics.get("repro_next_phase_confident_total").value
        # One prediction scored per boundary after the first.
        assert total == len(reports) - 1
        assert 0 <= correct <= total
        assert (
            metrics.get(
                "repro_next_phase_confident_correct_total"
            ).value <= confident <= total
        )

    def test_prediction_counters_continue_across_a_restore(self):
        """A restored tracker scores its first interval against the
        prediction its snapshot carries, so one hub's next-phase
        counters across the restore equal an unbroken tracker's."""
        from repro.service.snapshot import restore_tracker, snapshot_tracker

        rng = np.random.default_rng(3)
        region = np.repeat(rng.integers(0, 3, size=40), 300)
        pcs = 0x400000 + region * 0x10000 + rng.integers(
            0, 48, size=region.size
        ) * 4
        counts = rng.integers(20, 80, size=region.size)
        names = [
            f"repro_next_phase_{name}_total"
            for name in ("predictions", "correct", "confident",
                         "confident_correct")
        ]

        unbroken_hub = Telemetry()
        unbroken = PhaseTracker(
            interval_instructions=20_000, telemetry=unbroken_hub
        )
        unbroken.observe_batch(pcs, counts)
        expected = [unbroken_hub.metrics.get(name).value for name in names]
        assert expected[0] == unbroken.next_phase.stats.total > 0

        hub = Telemetry()
        half = pcs.size // 2
        first = PhaseTracker(interval_instructions=20_000, telemetry=hub)
        first.observe_batch(pcs[:half], counts[:half])
        restored = restore_tracker(snapshot_tracker(first), telemetry=hub)
        restored.observe_batch(pcs[half:], counts[half:])
        assert [hub.metrics.get(name).value for name in names] == expected

    def test_stage_spans_nested_under_interval(self, telemetry):
        tracker = PhaseTracker(
            interval_instructions=50_000, telemetry=telemetry
        )
        drive_tracker(tracker, branches=4096)
        timings = telemetry.span_timings()
        for path in (
            "interval", "interval/signature", "interval/match",
            "interval/predict",
        ):
            assert timings[path].count == tracker.intervals_observed

    def test_branch_ingest_histogram_populated(self, telemetry):
        tracker = PhaseTracker(
            interval_instructions=50_000, telemetry=telemetry
        )
        drive_tracker(tracker)
        histogram = telemetry.metrics.get("repro_branch_ingest_seconds")
        # First interval has no observe window; the rest do.
        assert histogram.count == tracker.intervals_observed - 1
        assert histogram.mean < 1e-3  # microseconds, not milliseconds

    def test_bare_tracker_matches_instrumented_results(self, telemetry):
        bare = PhaseTracker(interval_instructions=50_000)
        instrumented = PhaseTracker(
            interval_instructions=50_000, telemetry=telemetry
        )
        bare_reports = drive_tracker(bare)
        instr_reports = drive_tracker(instrumented)
        assert bare_reports == instr_reports


class TestTrackerEvents:
    def test_one_interval_event_per_boundary(self, telemetry):
        tracker = PhaseTracker(
            interval_instructions=50_000, telemetry=telemetry
        )
        reports = drive_tracker(tracker)
        records = events_of(telemetry)
        assert records[0]["event"] == "tracker_start"
        assert records[0]["interval_instructions"] == 50_000
        intervals = [r for r in records if r["event"] == "interval"]
        assert len(intervals) == len(reports)
        for record, report in zip(intervals, reports):
            # Interval events carry the report's wire form verbatim.
            for key, value in report.to_dict().items():
                assert record[key] == value
        assert all("table_occupancy" in r for r in intervals)
        assert all("threshold_halvings" in r for r in intervals)


class TestListenerIsolation:
    def test_raising_listener_does_not_abort_interval(self, telemetry):
        tracker = PhaseTracker(
            interval_instructions=50_000, telemetry=telemetry
        )
        seen = []

        def bad(report):
            raise RuntimeError("listener exploded")

        tracker.add_phase_change_listener(bad)
        tracker.add_phase_change_listener(seen.append)
        reports = drive_tracker(tracker)
        changes = sum(r.phase_changed for r in reports)
        assert changes > 0
        # The second listener still saw every change and tracking
        # continued past the failures.
        assert len(seen) == changes
        assert tracker.intervals_observed == len(reports)
        errors = telemetry.metrics.get(
            "repro_tracker_listener_errors_total"
        ).value
        assert errors == changes
        error_events = [
            r for r in events_of(telemetry)
            if r["event"] == "listener_error"
        ]
        assert len(error_events) == changes
        assert "listener exploded" in error_events[0]["error"]

    def test_raising_listener_without_telemetry(self):
        """Regression: isolation must not depend on telemetry."""
        tracker = PhaseTracker(interval_instructions=50_000)
        seen = []

        def bad(report):
            raise ValueError("no hub attached")

        tracker.add_phase_change_listener(bad)
        tracker.add_phase_change_listener(seen.append)
        reports = drive_tracker(tracker)
        assert sum(r.phase_changed for r in reports) == len(seen) > 0
