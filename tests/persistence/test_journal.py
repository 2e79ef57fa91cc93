"""The segment journal: CRC framing, rotation, sync modes, and the
torn-tail truncation that makes ``kill -9`` a recoverable event."""

import json
import struct

import numpy as np
import pytest

from repro.errors import PersistenceError
from repro.persistence import (
    Journal,
    list_segments,
    replay_journal,
)
from repro.persistence.journal import (
    MAX_RECORD_BYTES,
    encode_payload,
    encode_record,
    segment_first_seq,
    segment_name,
)


def append_n(journal, n, start=0):
    for index in range(start, start + n):
        journal.append({"kind": "observe", "session": "s", "index": index})


def columns(index, size=50):
    """A binary observe record's ``pcs`` and ``counts``."""
    pcs = 0x400000 + 4 * np.arange(index, index + size, dtype=np.int64)
    return {"pcs": pcs, "counts": np.full(size, 40 + index)}


def append_binary(journal, n, start=0, size=50):
    for index in range(start, start + n):
        journal.append(
            {"kind": "observe", "session": "s", "index": index},
            arrays=columns(index, size),
        )


def frame_payloads(segment):
    """Every frame's payload in one segment file, in order."""
    data, offset, payloads = segment.read_bytes(), 0, []
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        offset += 8
        payloads.append(data[offset:offset + length])
        offset += length
    return payloads


class TestFraming:
    def test_round_trip(self, tmp_path):
        with Journal(tmp_path, sync="batch") as journal:
            append_n(journal, 5)
        replay = replay_journal(tmp_path)
        assert [r["index"] for r in replay.records] == list(range(5))
        assert [r["seq"] for r in replay.records] == [1, 2, 3, 4, 5]
        assert replay.stats.records == 5
        assert replay.stats.torn_tails == 0
        assert replay.stats.next_seq == 6

    def test_segment_name_round_trip(self):
        assert segment_first_seq(segment_name(0xDEAD)) == 0xDEAD
        with pytest.raises(PersistenceError):
            segment_first_seq("not-a-segment.bin")

    def test_reopen_continues_sequence(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 3)
        stats = replay_journal(tmp_path).stats
        with Journal(tmp_path, next_seq=stats.next_seq) as journal:
            append_n(journal, 2, start=3)
        replay = replay_journal(tmp_path)
        assert [r["seq"] for r in replay.records] == [1, 2, 3, 4, 5]
        assert [r["index"] for r in replay.records] == list(range(5))

    def test_binary_records_round_trip(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 2)
            append_binary(journal, 3, start=2)
            append_binary(journal, 1, start=5, size=0)
            append_n(journal, 1, start=6)
        replay = replay_journal(tmp_path)
        assert [r["seq"] for r in replay.records] == list(range(1, 8))
        assert [r["index"] for r in replay.records] == list(range(7))
        for record in replay.records[2:6]:
            expected = columns(record["index"], 0 if record["seq"] == 6
                               else 50)
            assert "arrays" not in record
            for name in ("pcs", "counts"):
                assert record[name].dtype == np.int64
                assert not record[name].flags.writeable
                assert record[name].tolist() == expected[name].tolist()
        assert "pcs" not in replay.records[0]
        # JSON records start with "{", binary ones with the 0x00 marker.
        payloads = frame_payloads(list_segments(tmp_path)[0])
        assert [p[:1] for p in payloads] == (
            [b"{"] * 2 + [b"\x00"] * 4 + [b"{"]
        )
        # 16 bytes a record: two int64 columns of 50, plus the header.
        assert len(payloads[2]) - 800 < 120

    def test_empty_directory_replays_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "missing")
        assert replay.records == []
        assert replay.stats.next_seq == 1


class TestRotation:
    def test_rotates_at_segment_bytes(self, tmp_path):
        with Journal(tmp_path, segment_bytes=256) as journal:
            append_n(journal, 40)
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        firsts = [segment_first_seq(p) for p in segments]
        assert firsts == sorted(firsts) and firsts[0] == 1
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 40
        assert replay.stats.segments == len(segments)

    def test_reopen_continues_unfilled_segment(self, tmp_path):
        with Journal(tmp_path, segment_bytes=1 << 20) as journal:
            append_n(journal, 3)
        with Journal(tmp_path, next_seq=4, segment_bytes=1 << 20) as journal:
            append_n(journal, 3, start=3)
        assert len(list_segments(tmp_path)) == 1
        assert replay_journal(tmp_path).stats.records == 6

    def test_an_empty_newest_segment_names_the_next_seq(self, tmp_path):
        """Compaction can leave one empty segment behind: its name, not
        the records it no longer has, says where the sequence goes on."""
        (tmp_path / segment_name(17)).touch()
        stats = replay_journal(tmp_path).stats
        assert stats.next_seq == 17
        with Journal(tmp_path, next_seq=stats.next_seq) as journal:
            append_n(journal, 3)
        assert [
            record["seq"] for record in replay_journal(tmp_path).records
        ] == [17, 18, 19]


class TestTornTails:
    def corrupt_tail(self, tmp_path, cut):
        """Chop ``cut`` bytes off the newest segment — what a crash
        mid-append leaves behind."""
        segment = list_segments(tmp_path)[-1]
        size = segment.stat().st_size
        with open(segment, "rb+") as handle:
            handle.truncate(size - cut)
        return segment

    def test_short_tail_is_truncated_and_counted(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 5)
        segment = self.corrupt_tail(tmp_path, cut=3)
        good_size = segment.stat().st_size  # pre-replay, still torn
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 4
        assert replay.stats.torn_tails == 1
        assert replay.stats.truncated_bytes > 0
        assert segment.stat().st_size < good_size
        # The repaired journal replays cleanly.
        again = replay_journal(tmp_path)
        assert again.stats.records == 4 and again.stats.torn_tails == 0

    def test_crc_corruption_is_a_torn_tail(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 4)
        segment = list_segments(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte in the last record
        segment.write_bytes(bytes(data))
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 3
        assert replay.stats.torn_tails == 1

    def test_segments_after_tear_are_discarded(self, tmp_path):
        with Journal(tmp_path, segment_bytes=256) as journal:
            append_n(journal, 40)
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        # Corrupt the first record of the *second* segment.
        data = bytearray(segments[1].read_bytes())
        data[struct.calcsize("<II")] ^= 0xFF
        segments[1].write_bytes(bytes(data))
        replay = replay_journal(tmp_path)
        assert replay.stats.torn_tails == 1
        assert replay.stats.segments_discarded == len(segments) - 2
        remaining = list_segments(tmp_path)
        assert remaining[-1] == segments[1]
        # Every surviving record predates the tear.
        assert replay.records[-1]["seq"] < segment_first_seq(segments[2])

    @pytest.mark.parametrize("cut", [1, 8, 100, 799])
    def test_binary_frame_cut_mid_tail_is_truncated(self, tmp_path, cut):
        with Journal(tmp_path) as journal:
            append_n(journal, 2)
            append_binary(journal, 3, start=2)
        segment = self.corrupt_tail(tmp_path, cut=cut)
        size = segment.stat().st_size
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 4
        assert replay.stats.torn_tails == 1
        assert replay.stats.truncated_bytes == size - replay.stats.bytes_read
        assert replay.records[-1]["pcs"].tolist() == (
            columns(3)["pcs"].tolist()
        )
        again = replay_journal(tmp_path)
        assert again.stats.records == 4 and again.stats.torn_tails == 0

    @pytest.mark.parametrize("damage", [
        "tail_short", "tail_long", "negative_count", "no_arrays",
        "prefix_only",
    ])
    def test_binary_tail_disagreeing_with_header_is_torn(
        self, tmp_path, damage
    ):
        """A CRC-valid binary frame whose tail does not match its
        header is a torn frame: truncated, counted, and the segments
        after it discarded — never raised."""
        with Journal(tmp_path, segment_bytes=256) as journal:
            append_binary(journal, 4)
        segments = list_segments(tmp_path)
        # One record a segment, then the empty active one.
        assert [len(frame_payloads(path)) for path in segments] == (
            [1, 1, 1, 1, 0]
        )
        payload = encode_payload(
            {"kind": "observe", "session": "s", "seq": 2},
            columns(1),
        )
        header_length = struct.unpack_from("<I", payload, 1)[0]
        header = json.loads(payload[5:5 + header_length])
        if damage == "tail_short":
            payload = payload[:-8]
        elif damage == "tail_long":
            payload += bytes(8)
        elif damage == "negative_count":
            header["arrays"] = {"pcs": -50, "counts": 150}
        elif damage == "no_arrays":
            del header["arrays"]
        else:
            payload = payload[:3]
        if damage in ("negative_count", "no_arrays"):
            text = json.dumps(header).encode()
            payload = (b"\x00" + struct.pack("<I", len(text)) + text
                       + payload[5 + header_length:])
        segments[1].write_bytes(encode_record(payload))

        replay = replay_journal(tmp_path)
        assert replay.stats.records == 1
        assert replay.stats.torn_tails == 1
        assert replay.stats.segments_discarded == 3
        assert list_segments(tmp_path) == segments[:2]
        assert segments[1].stat().st_size == 0
        assert replay_journal(tmp_path).stats.torn_tails == 0

    def test_truncate_false_leaves_damage_in_place(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 3)
        segment = self.corrupt_tail(tmp_path, cut=2)
        size = segment.stat().st_size
        replay = replay_journal(tmp_path, truncate=False)
        assert replay.stats.torn_tails == 1
        assert segment.stat().st_size == size

    def test_absurd_length_header_is_corruption(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 1)
        segment = list_segments(tmp_path)[0]
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 1
        assert replay.stats.torn_tails == 1

    def test_non_monotonic_seq_ends_replay(self, tmp_path):
        with Journal(tmp_path) as journal:
            append_n(journal, 2)
        segment = list_segments(tmp_path)[0]
        stale = json.dumps({"kind": "observe", "seq": 1}).encode()
        with open(segment, "ab") as handle:
            handle.write(encode_record(stale))
        replay = replay_journal(tmp_path)
        assert replay.stats.records == 2
        assert replay.stats.torn_tails == 1


class TestSyncModes:
    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="sync"):
            Journal(tmp_path, sync="sometimes")

    def test_invalid_sizes_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            Journal(tmp_path, segment_bytes=0)
        with pytest.raises(PersistenceError):
            Journal(tmp_path, batch_records=0)
        with pytest.raises(PersistenceError):
            Journal(tmp_path, next_seq=0)

    def test_batch_fsyncs_every_batch_records(self, tmp_path):
        journal = Journal(tmp_path, sync="batch", batch_records=3)
        append_n(journal, 2)
        assert journal.unsynced_records == 2
        append_n(journal, 1, start=2)
        assert journal.unsynced_records == 0
        assert journal.fsyncs == 1
        journal.close()

    def test_always_never_lags(self, tmp_path):
        journal = Journal(tmp_path, sync="always")
        append_n(journal, 3)
        assert journal.unsynced_records == 0
        assert journal.fsyncs == 3
        journal.close()

    def test_explicit_sync_clears_lag(self, tmp_path):
        journal = Journal(tmp_path, sync="batch", batch_records=100)
        append_n(journal, 5)
        assert journal.unsynced_records == 5
        journal.sync()
        assert journal.unsynced_records == 0
        journal.close()

    def test_none_mode_still_replayable_after_close(self, tmp_path):
        with Journal(tmp_path, sync="none") as journal:
            append_n(journal, 4)
        assert replay_journal(tmp_path).stats.records == 4

    def test_oversized_record_is_refused_before_write(
        self, tmp_path, monkeypatch
    ):
        import repro.persistence.journal as journal_module

        monkeypatch.setattr(journal_module, "MAX_RECORD_BYTES", 256)
        with Journal(tmp_path) as journal:
            journal.append({"kind": "open", "session": "s"})
            with pytest.raises(PersistenceError, match="frame cap"):
                journal.append({
                    "kind": "open", "session": "s",
                    "snapshot": "x" * 1024,
                })
            # Nothing was written and the seq was not consumed.
            journal.append({"kind": "close", "session": "s"})
        replay = replay_journal(tmp_path)
        assert [r["seq"] for r in replay.records] == [1, 2]
        assert replay.stats.torn_tails == 0

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal(tmp_path)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(PersistenceError, match="closed"):
            journal.append({"kind": "observe"})


class TestTelemetry:
    def test_counters_and_lag_gauge(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        with Journal(
            tmp_path, sync="batch", batch_records=100, telemetry=telemetry
        ) as journal:
            append_n(journal, 7)
            metrics = telemetry.metrics
            records = metrics.get(
                "repro_persistence_journal_records_total"
            )
            assert records.value == 7
            lag = metrics.get("repro_persistence_unsynced_records")
            assert lag.value == 7
            journal.sync()
            assert lag.value == 0
            fsync = metrics.get("repro_persistence_fsync_seconds")
            assert fsync.count >= 1

    def test_lag_gauge_reads_the_journal_across_rotation_and_close(
        self, tmp_path
    ):
        """A rotation fsyncs the segment it retires and ``close``
        fsyncs the active one; the lag gauge follows both."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        journal = Journal(
            tmp_path, sync="batch", batch_records=100, segment_bytes=256,
            telemetry=telemetry,
        )
        lag = telemetry.metrics.get("repro_persistence_unsynced_records")
        first_segment = journal.active_path
        appended = 0
        while journal.active_path == first_segment:
            append_n(journal, 1, start=appended)
            appended += 1
        assert appended > 1
        assert journal.unsynced_records == 0
        assert lag.value == journal.unsynced_records
        append_n(journal, 1, start=appended)
        assert lag.value == journal.unsynced_records == 1
        journal.close()
        assert journal.unsynced_records == 0
        assert lag.value == journal.unsynced_records

    def test_torn_tail_emits_event(self, tmp_path):
        import io

        from repro.telemetry import EventLog, Telemetry, read_events

        with Journal(tmp_path) as journal:
            append_n(journal, 3)
        segment = list_segments(tmp_path)[0]
        with open(segment, "rb+") as handle:
            handle.truncate(segment.stat().st_size - 1)
        stream = io.StringIO()
        telemetry = Telemetry(events=EventLog(stream=stream))
        replay_journal(tmp_path, telemetry=telemetry)
        kinds = [
            record["event"]
            for record in read_events(io.StringIO(stream.getvalue()))
        ]
        assert "journal_torn_tail" in kinds
