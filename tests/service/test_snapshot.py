"""Tracker snapshot/restore: exactness, the envelope, failure modes."""

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.errors import SessionNotFoundError, SnapshotError
from repro.prediction import MarkovChangePredictor
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    dumps,
    loads,
    restore_tracker,
    snapshot_tracker,
)


def two_region_stream(seed=0, n=4000):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(n) < 0.5, 0x400000, 0x900000)
    pcs = region + rng.integers(0, 64, size=n) * 4
    counts = rng.integers(1, 120, size=n)
    return pcs.tolist(), counts.tolist()


def drive(tracker, pcs, counts, cpi=1.0):
    return [r.to_dict() for r in tracker.observe_batch(pcs, counts, cpi)]


class TestRoundTrip:
    def test_restored_tracker_replays_identically(self):
        pcs, counts = two_region_stream()
        original = PhaseTracker(interval_instructions=5_000)
        drive(original, pcs[:2500], counts[:2500], cpi=1.3)

        document = loads(dumps(snapshot_tracker(original)))
        restored = restore_tracker(document)

        tail_original = drive(original, pcs[2500:], counts[2500:], cpi=0.8)
        tail_restored = drive(restored, pcs[2500:], counts[2500:], cpi=0.8)
        assert tail_original == tail_restored
        assert tail_original  # the tail actually classified intervals

    def test_mid_interval_accumulator_contents_travel(self):
        tracker = PhaseTracker(interval_instructions=10_000)
        tracker.observe_batch([4096, 4100], [700, 800], cpi=1.0)
        assert tracker.instructions_into_interval == 1500
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.instructions_into_interval == 1500
        # Same partial interval: the next boundary classifies equally.
        pcs, counts = two_region_stream(seed=3, n=500)
        assert drive(tracker, pcs, counts) == drive(restored, pcs, counts)

    def test_branch_count_travels_and_reads_zero_from_older_snapshots(
        self
    ):
        tracker = PhaseTracker(interval_instructions=10_000)
        tracker.observe_batch([4096, 4100], [700, 800], cpi=1.0)
        tracker.observe_branch(4104, 10)
        document = snapshot_tracker(tracker)
        assert restore_tracker(document).branches_observed == 3
        del document["tracker"]["branches"]
        assert restore_tracker(document).branches_observed == 0

    def test_interval_length_and_config_travel_in_document(self):
        config = ClassifierConfig(num_counters=32, table_entries=16)
        tracker = PhaseTracker(config, interval_instructions=1234)
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.interval_instructions == 1234
        assert restored.classifier.config == config

    def test_markov_change_predictor_round_trips(self):
        tracker = PhaseTracker(
            interval_instructions=2_000,
            change_predictor=MarkovChangePredictor(1, entry_kind="top4"),
        )
        pcs, counts = two_region_stream(seed=5)
        drive(tracker, pcs[:2000], counts[:2000])
        restored = restore_tracker(snapshot_tracker(tracker))
        assert isinstance(
            restored.next_phase.change_predictor, MarkovChangePredictor
        )
        assert (drive(tracker, pcs[2000:], counts[2000:])
                == drive(restored, pcs[2000:], counts[2000:]))

    def test_no_change_predictor_round_trips(self):
        tracker = PhaseTracker(
            interval_instructions=2_000, change_predictor=None
        )
        pcs, counts = two_region_stream(seed=6)
        drive(tracker, pcs[:1000], counts[:1000])
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.next_phase.change_predictor is None
        assert (drive(tracker, pcs[1000:], counts[1000:])
                == drive(restored, pcs[1000:], counts[1000:]))

    def test_document_is_json_safe(self):
        tracker = PhaseTracker(interval_instructions=2_000)
        pcs, counts = two_region_stream(seed=7, n=1500)
        drive(tracker, pcs, counts)
        text = dumps(snapshot_tracker(tracker))
        assert isinstance(text, str)
        assert loads(text)["schema_version"] == SNAPSHOT_VERSION


#: Change-predictor specs that are not a ``{"kind": name, ...}`` object.
BAD_CHANGE_PREDICTOR_SPECS = [
    "rle",
    ["rle"],
    {"kind": ["rle"], "kwargs": {}},
]


class TestFailureModes:
    def test_version_mismatch(self):
        document = snapshot_tracker(PhaseTracker())
        document["schema_version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            restore_tracker(document)

    def test_version_mismatch_is_typed(self):
        from repro.errors import SnapshotSchemaError

        document = snapshot_tracker(PhaseTracker())
        document["schema_version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotSchemaError):
            restore_tracker(document)

    def test_legacy_version_key_still_accepted(self):
        document = snapshot_tracker(PhaseTracker())
        document["version"] = document.pop("schema_version")
        restore_tracker(document)

    @pytest.mark.parametrize("document", [
        "not a dict",
        {},
        {"version": SNAPSHOT_VERSION},
        {"version": SNAPSHOT_VERSION, "tracker": "nope"},
    ])
    def test_malformed_envelope(self, document):
        with pytest.raises(SnapshotError):
            restore_tracker(document)

    def test_unknown_change_predictor_kind(self):
        document = snapshot_tracker(PhaseTracker())
        document["tracker"]["change_predictor"]["kind"] = "quantum"
        with pytest.raises(SnapshotError, match="quantum"):
            restore_tracker(document)

    @pytest.mark.parametrize("spec", BAD_CHANGE_PREDICTOR_SPECS)
    def test_change_predictor_spec_of_the_wrong_type(self, spec):
        document = snapshot_tracker(PhaseTracker())
        document["tracker"]["change_predictor"] = spec
        with pytest.raises(SnapshotError, match="change-predictor"):
            restore_tracker(document)

    def test_change_predictor_spec_without_kwargs(self):
        document = snapshot_tracker(PhaseTracker())
        del document["tracker"]["change_predictor"]["kwargs"]
        with pytest.raises(SnapshotError, match="kwargs"):
            restore_tracker(document)

    def test_corrupt_component_state(self):
        document = snapshot_tracker(PhaseTracker())
        document["tracker"]["classifier"]["accumulator"]["counters"] = [1]
        with pytest.raises(SnapshotError):
            restore_tracker(document)

    def test_loads_rejects_garbage(self):
        with pytest.raises(SnapshotError):
            loads("{broken")
        with pytest.raises(SnapshotError):
            loads("[1,2]")


def driven_snapshot():
    """A snapshot with a populated table and a mid-interval accumulator."""
    pcs, counts = two_region_stream()
    tracker = PhaseTracker(interval_instructions=5_000)
    drive(tracker, pcs[:2510], counts[:2510])
    document = snapshot_tracker(tracker)
    state = document["tracker"]["classifier"]
    assert state["table"]["entries"]
    assert any(state["accumulator"]["counters"])
    return document


def _negative_counter(state):
    state["accumulator"]["counters"][0] = -1


def _negative_total(state):
    state["accumulator"]["total"] = -1


def _entry_missing_a_value(state):
    state["table"]["entries"][0]["values"].pop()


def _entry_with_wrong_bits(state):
    state["table"]["entries"][0]["bits"] += 1


def _more_entries_than_the_table_holds(state):
    entries = state["table"]["entries"]
    while len(entries) <= state["config"]["table_entries"]:
        entries.append(dict(entries[0]))


UNRUNNABLE = [
    _negative_counter,
    _negative_total,
    _entry_missing_a_value,
    _entry_with_wrong_bits,
    _more_entries_than_the_table_holds,
]


class TestUnrunnableSnapshotsRefused:
    """A snapshot the tracker could not run is refused when it is
    restored. Accepted, it used to fail the session's first boundary as
    ``internal`` and leave the session wedged, boundary pending."""

    @pytest.fixture(scope="class")
    def service(self):
        from repro.service import start_in_thread

        handle = start_in_thread()
        yield handle
        handle.stop()

    @pytest.mark.parametrize("corrupt", UNRUNNABLE)
    def test_restore_tracker_refuses(self, corrupt):
        document = driven_snapshot()
        corrupt(document["tracker"]["classifier"])
        with pytest.raises(SnapshotError, match="malformed"):
            restore_tracker(document)

    @pytest.mark.parametrize("corrupt", UNRUNNABLE)
    def test_open_session_fails_with_the_snapshot_code(self, service,
                                                       corrupt):
        from repro.service import PhaseServiceClient

        document = driven_snapshot()
        corrupt(document["tracker"]["classifier"])
        with PhaseServiceClient(port=service.port) as client:
            with pytest.raises(SnapshotError):
                client.open_session(session="restored", snapshot=document)
            with pytest.raises(SessionNotFoundError):
                client.observe("restored", [4096], [10])
            # The intact document still opens and serves.
            client.open_session(session="restored",
                                snapshot=driven_snapshot())
            assert client.observe("restored", [4096] * 200, [100] * 200)
            client.close_session("restored")

    @pytest.mark.parametrize("spec", BAD_CHANGE_PREDICTOR_SPECS)
    def test_open_refuses_a_bad_change_predictor_spec(self, service, spec):
        """Such a spec used to fail ``open`` with the ``internal``
        code, an ``AttributeError`` or ``TypeError`` in the reader."""
        from repro.service import PhaseServiceClient

        document = driven_snapshot()
        document["tracker"]["change_predictor"] = spec
        with PhaseServiceClient(port=service.port) as client:
            with pytest.raises(SnapshotError, match="change-predictor"):
                client.open_session(session="bad-spec", snapshot=document)
            with pytest.raises(SessionNotFoundError):
                client.observe("bad-spec", [4096], [10])

    def test_open_refuses_a_snapshot_at_a_pending_boundary(self, service):
        """Only ``complete_interval`` closes a pending boundary, and no
        request calls it: such a session would refuse every observe,
        after the observe had been journaled."""
        from repro.service import PhaseServiceClient

        tracker = PhaseTracker(interval_instructions=100)
        assert tracker.observe_branch(0x400, 150)
        document = snapshot_tracker(tracker)
        assert restore_tracker(document) is not None  # a library may
        with PhaseServiceClient(port=service.port) as client:
            with pytest.raises(SnapshotError, match="pending"):
                client.open_session(session="pending", snapshot=document)
            with pytest.raises(SessionNotFoundError):
                client.observe("pending", [4096], [10])
