"""The checkpoint store: atomic publication, CRC-verified loads, and
corrupt-is-a-counted-miss semantics."""

import json

import pytest

from repro.errors import PersistenceError
from repro.persistence import CHECKPOINT_SCHEMA_VERSION, CheckpointStore


def sample_document(seq=7):
    return {"seq": seq, "snapshot": {"kind": "test"}, "meta": {"n": 3}}


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document())
        body = store.load("alpha")
        assert body["seq"] == 7
        assert body["session"] == "alpha"
        assert body["checkpoint_schema"] == CHECKPOINT_SCHEMA_VERSION
        assert body["snapshot"] == {"kind": "test"}

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("ghost") is None

    def test_overwrite_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document(seq=1))
        store.write("alpha", sample_document(seq=9))
        assert store.load("alpha")["seq"] == 9
        assert len(store) == 1

    def test_load_all_keys_by_session_name(self, tmp_path):
        store = CheckpointStore(tmp_path)
        names = ["a", "weird/name with spaces", "☃"]
        for index, name in enumerate(names):
            store.write(name, sample_document(seq=index))
        documents = store.load_all()
        assert sorted(documents) == sorted(names)
        assert documents["☃"]["seq"] == 2

    def test_delete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document())
        assert store.delete("alpha") is True
        assert store.delete("alpha") is False
        assert store.load("alpha") is None

    def test_a_delete_that_fails_raises(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document())

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(type(tmp_path), "unlink", refuse)
        with pytest.raises(PersistenceError, match="Permission denied"):
            store.delete("alpha")
        monkeypatch.undo()
        assert store.load("alpha")["seq"] == 7


class TestAtomicity:
    def test_no_tmp_files_survive_a_write(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in range(5):
            store.write("alpha", sample_document(seq=index))
        leftovers = [p.name for p in tmp_path.iterdir()
                     if not p.name.endswith(".ckpt")]
        assert leftovers == []

    def test_unwritable_root_raises_persistence_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        # Replace the directory with a plain file: the temp-file open
        # fails, which must surface as a typed error, not an OSError.
        import shutil
        shutil.rmtree(tmp_path / "store")
        (tmp_path / "store").write_text("in the way")
        with pytest.raises(PersistenceError, match="alpha"):
            store.write("alpha", sample_document())


class TestCorruption:
    def write_raw(self, store, name, data):
        store.path_for(name).write_bytes(data)

    def test_garbage_bytes_are_a_counted_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        self.write_raw(store, "alpha", b"\x00\xffnot json")
        assert store.load("alpha") is None
        assert store.corrupt_dropped == 1
        # Best-effort unlinked, so the miss does not repeat forever.
        assert not store.path_for("alpha").exists()

    def test_crc_mismatch_is_a_counted_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document())
        raw = json.loads(store.path_for("alpha").read_bytes())
        raw["body"]["seq"] = 999  # tamper without recomputing the CRC
        self.write_raw(store, "alpha", json.dumps(raw).encode())
        assert store.load("alpha") is None
        assert store.corrupt_dropped == 1

    def test_schema_mismatch_is_a_counted_miss(self, tmp_path):
        import zlib

        store = CheckpointStore(tmp_path)
        body = dict(
            sample_document(),
            checkpoint_schema=CHECKPOINT_SCHEMA_VERSION + 1,
            session="alpha",
        )
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode()
        envelope = json.dumps({"crc": zlib.crc32(canonical), "body": body})
        self.write_raw(store, "alpha", envelope.encode())
        assert store.load("alpha") is None
        assert store.corrupt_dropped == 1

    def test_load_all_skips_corrupt_entries(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("good", sample_document())
        self.write_raw(store, "bad", b"{broken")
        documents = store.load_all()
        assert list(documents) == ["good"]
        assert store.corrupt_dropped == 1

    def test_transient_read_error_keeps_the_file(
        self, tmp_path, monkeypatch
    ):
        import builtins

        store = CheckpointStore(tmp_path)
        store.write("alpha", sample_document())
        target = store.path_for("alpha")
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if file == target:
                raise OSError(5, "Input/output error")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        assert store.load("alpha") is None
        assert store.read_errors == 1
        assert store.corrupt_dropped == 0
        # The intact file survives the transient failure...
        assert target.exists()
        monkeypatch.undo()
        # ...so a retry serves the durable state.
        assert store.load("alpha")["seq"] == 7

    def test_corruption_emits_event_and_counter(self, tmp_path):
        import io

        from repro.telemetry import EventLog, Telemetry, read_events

        stream = io.StringIO()
        telemetry = Telemetry(events=EventLog(stream=stream))
        store = CheckpointStore(tmp_path, telemetry=telemetry)
        self.write_raw(store, "alpha", b"junk")
        store.load("alpha")
        kinds = [
            record["event"]
            for record in read_events(io.StringIO(stream.getvalue()))
        ]
        assert "checkpoint_corrupt" in kinds
        counter = telemetry.metrics.get(
            "repro_persistence_checkpoints_corrupt_total"
        )
        assert counter.value == 1
