"""The headline durability guarantee, end to end over real sockets:
SIGKILL a live server mid-ingest, restart it on the same data
directory, and every session comes back byte-identical — including a
truncated journal tail when the kill lands mid-append."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.service import PhaseServiceClient, start_in_thread
from repro.service.snapshot import dumps

INTERVAL_INSTRUCTIONS = 3_000
BASE_A, BASE_B = 0x400000, 0x900000

SERVE_CODE = """\
import sys
from repro.harness.cli import main
sys.exit(main(sys.argv[1:]))
"""


def branch_batches(seed, batches, batch_size=300):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 4) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


def spawn_server(data_dir, sync="batch"):
    process = subprocess.Popen(
        [
            sys.executable, "-c", SERVE_CODE, "serve",
            "--port", "0", "--data-dir", str(data_dir), "--sync", sync,
            "--checkpoint-interval", "600",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            ),
        ),
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited early: {process.poll()}"
            )
        if "listening on" in line:
            port = int(line.split("listening on", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            break
    assert port, "server never reported its port"
    return process, port


class TestSigkillRecovery:
    def test_sigkill_mid_ingest_recovers_full_registry(self, tmp_path):
        data_dir = tmp_path / "data"
        batches = branch_batches(seed=42, batches=8)
        process, port = spawn_server(data_dir)
        try:
            with PhaseServiceClient(port=port) as client:
                client.open_session(
                    "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                client.open_session(
                    "beta", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                for pcs, counts in batches:
                    client.observe("alpha", pcs, counts, cpi=1.1)
                for pcs, counts in batches[:3]:
                    client.observe("beta", pcs, counts, cpi=1.4)
                expected = {
                    name: dumps(client.snapshot(name))
                    for name in ("alpha", "beta")
                }
                stats = client.stats()
                assert stats["persistence"]["journal_records"] == 13
        finally:
            # The crash: no drain, no checkpoint sweep, no journal
            # close. Batch mode's flush-per-append means an acked
            # batch still survives losing the process.
            process.kill()
            process.wait(timeout=10)

        process, port = spawn_server(data_dir)
        try:
            with PhaseServiceClient(port=port) as client:
                recovered = {
                    name: dumps(client.snapshot(name))
                    for name in ("alpha", "beta")
                }
                assert recovered == expected
                stats = client.stats()
                assert stats["persistence"]["replayed_records"] == 13
                # Recovered sessions keep streaming normally.
                extra = branch_batches(seed=7, batches=2)
                for pcs, counts in extra:
                    client.observe("alpha", pcs, counts, cpi=1.1)
                summary = client.close_session("alpha")
                assert summary["branches"] == (8 + 2) * 300
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

    def test_torn_tail_after_sigkill_is_counted_and_survivable(
        self, tmp_path
    ):
        # A kill can land mid-append; simulate the worst case
        # deterministically by tearing the journal tail ourselves
        # between the kill and the restart.
        data_dir = tmp_path / "data"
        batches = branch_batches(seed=3, batches=5)
        process, port = spawn_server(data_dir)
        try:
            with PhaseServiceClient(port=port) as client:
                client.open_session(
                    "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                for pcs, counts in batches:
                    client.observe("alpha", pcs, counts, cpi=1.1)
        finally:
            process.kill()
            process.wait(timeout=10)

        from repro.persistence import list_segments

        segment = list_segments(data_dir / "journal")[-1]
        with open(segment, "rb+") as handle:
            handle.truncate(segment.stat().st_size - 9)

        process, port = spawn_server(data_dir)
        try:
            with PhaseServiceClient(port=port) as client:
                stats = client.stats()["persistence"]
                assert stats["torn_tails"] == 1
                # One observe record was torn off the tail.
                assert stats["replayed_records"] == 1 + len(batches) - 1
                # The session is intact up to the last durable record.
                summary = client.close_session("alpha")
                assert summary["branches"] == (len(batches) - 1) * 300
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


class TestInThreadServiceDurability:
    """The same guarantees through start_in_thread — cheaper, and they
    cover the graceful path (shutdown checkpoints everything)."""

    def test_graceful_restart_recovers_from_checkpoints(self, tmp_path):
        batches = branch_batches(seed=11, batches=6)
        handle = start_in_thread(
            max_sessions=8, data_dir=tmp_path / "data"
        )
        try:
            with PhaseServiceClient(port=handle.port) as client:
                client.open_session(
                    "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                for pcs, counts in batches:
                    client.observe("alpha", pcs, counts, cpi=1.2)
                expected = dumps(client.snapshot("alpha"))
        finally:
            handle.stop()  # graceful: checkpoint sweep + compact

        handle = start_in_thread(
            max_sessions=8, data_dir=tmp_path / "data"
        )
        try:
            assert handle.service.sessions_recovered == 0  # cold, not live
            with PhaseServiceClient(port=handle.port) as client:
                assert dumps(client.snapshot("alpha")) == expected
                stats = client.stats()["persistence"]
                # Graceful shutdown checkpointed: no tail to replay.
                assert stats["replayed_records"] == 0
        finally:
            handle.stop()

    def test_checkpoint_loop_survives_a_failed_sweep(self, tmp_path):
        import asyncio

        from repro.errors import PersistenceError
        from repro.service.server import PhaseService

        service = PhaseService(
            data_dir=str(tmp_path / "data"), checkpoint_interval=0.01
        )
        service._persistence.close()

        calls = []

        class ExplodingPersistence:
            def checkpoint_all(self):
                calls.append("sweep")
                if len(calls) == 1:
                    raise PersistenceError("disk full")

        service._persistence = ExplodingPersistence()

        async def run():
            task = asyncio.ensure_future(service._checkpoint_loop())
            deadline = asyncio.get_event_loop().time() + 5
            while (
                len(calls) < 3
                and asyncio.get_event_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(run())
        # The first sweep failed; the loop counted it and kept going.
        assert len(calls) >= 3
        assert service.checkpoint_failures == 1

    def test_a_shutdown_whose_final_sweep_fails_still_stops(self, tmp_path):
        """A final sweep that cannot write a checkpoint (disk full) is
        counted like a periodic one, and the stop goes on: the journal
        and the registry close and ``serve_forever`` returns. The
        journal still holds every acknowledged batch."""
        import asyncio

        from repro.errors import PersistenceError
        from repro.service import protocol
        from repro.service.server import PhaseService

        batches = branch_batches(seed=15, batches=3)
        data_dir = str(tmp_path / "data")
        service = PhaseService(data_dir=data_dir, http_port=0)

        def disk_full(name, document):
            raise PersistenceError(
                f"cannot write checkpoint for {name!r}: [Errno 28] No "
                "space left on device"
            )

        async def run():
            await service.start()
            serving = asyncio.ensure_future(service.serve_forever())
            requests = [protocol.OpenRequest(
                id=1, session="alpha",
                interval_instructions=INTERVAL_INSTRUCTIONS,
            )] + [
                protocol.ObserveRequest(
                    id=2 + index, session="alpha",
                    pcs=np.array(pcs, dtype=np.int64),
                    counts=np.array(counts, dtype=np.int64),
                    cpi=1.2,
                )
                for index, (pcs, counts) in enumerate(batches)
            ]
            for request in requests:
                assert service._execute(request)[-1]["ok"]
            service.persistence.checkpoints.write = disk_full
            await asyncio.wait_for(service.shutdown(), 10)
            await asyncio.wait_for(serving, 10)

        asyncio.run(run())
        assert service.checkpoint_failures == 1
        assert service.persistence.journal.closed
        assert len(service.registry) == 0 and service.gateway is None

        reference = PhaseService(data_dir=data_dir)
        try:
            assert reference.sessions_recovered == 1
            recovered = reference.registry.get("alpha")
            assert recovered.tracker.branches_observed == 3 * 300
        finally:
            reference.persistence.close()

    def test_an_open_the_journal_refuses_leaves_no_session(self, tmp_path):
        """An ``open`` whose record cannot be journaled is undone before
        the error is answered: the name stays free, and an observe on it
        is refused instead of acknowledged with no ``open`` journaled
        before it."""
        import errno

        from repro.errors import ServiceError, SessionNotFoundError

        batches = branch_batches(seed=16, batches=3)
        handle = start_in_thread(
            max_sessions=8, data_dir=tmp_path / "data"
        )
        try:
            journal = handle.service.persistence.journal
            append = journal.append

            def refuse_opens(record, arrays=None):
                if record["kind"] == "open":
                    raise OSError(errno.ENOSPC, "No space left on device")
                return append(record, arrays)

            journal.append = refuse_opens
            with PhaseServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError, match="No space left"):
                    client.open_session(
                        "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                    )
                stats = client.stats()
                assert stats["live"] == 0
                assert stats["opened"] - stats["closed"] == stats["live"]
                with pytest.raises(SessionNotFoundError):
                    client.observe("alpha", *batches[0], cpi=1.2)
                del journal.append  # the disk has room again
                client.open_session(
                    "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                for pcs, counts in batches:
                    client.observe("alpha", pcs, counts, cpi=1.2)
                expected = dumps(client.snapshot("alpha"))
        finally:
            handle.stop()

        handle = start_in_thread(
            max_sessions=8, data_dir=tmp_path / "data"
        )
        try:
            with PhaseServiceClient(port=handle.port) as client:
                assert dumps(client.snapshot("alpha")) == expected
        finally:
            handle.stop()

    @pytest.mark.parametrize("sweep", [True, False])
    def test_a_close_the_journal_refuses_leaves_the_session_open(
        self, tmp_path, monkeypatch, sweep
    ):
        """A ``close`` whose record the disk refuses partway through
        leaves no trace in the journal and does not take effect: the
        session stays open and uncounted and keeps acknowledging
        observes, and a restart, after a sweep or without one, recovers
        every acknowledged branch."""
        import errno

        from repro.service import protocol
        from repro.service.server import PhaseService
        from repro.service.snapshot import snapshot_tracker

        data_dir = str(tmp_path / "data")
        service = PhaseService(data_dir=data_dir)
        requests = [protocol.OpenRequest(
            id=1, session="alpha",
            interval_instructions=INTERVAL_INSTRUCTIONS,
        )] + [
            protocol.ObserveRequest(
                id=2 + index, session="alpha",
                pcs=np.array(pcs, dtype=np.int64),
                counts=np.array(counts, dtype=np.int64), cpi=1.2,
            )
            for index, (pcs, counts) in enumerate(
                branch_batches(seed=17, batches=5, batch_size=100)
            )
        ]
        for request in requests[:3]:
            assert service._execute(request)[-1]["ok"]
        service._sweep()
        for request in requests[3:5]:
            assert service._execute(request)[-1]["ok"]

        # The disk fills 5 bytes into the close record's frame.
        journal = service.persistence.journal
        room, write = 5, journal._file.write

        def write_some(data):
            nonlocal room
            if not room:
                raise OSError(errno.ENOSPC, "No space left on device")
            done = write(bytes(data[:room]))
            room -= done
            return done

        monkeypatch.setattr(journal._file, "write", write_some)
        (response,) = service._execute(
            protocol.CloseRequest(id=9, session="alpha")
        )
        assert not response["ok"]
        assert "No space left" in response["error"]["message"]
        stats = service.registry.stats()
        assert (stats["live"], stats["closed"]) == (1, 0)
        monkeypatch.undo()  # the disk has room again
        assert service._execute(requests[5])[-1]["ok"]
        expected = dumps(snapshot_tracker(
            service.registry.get("alpha").tracker
        ))
        if sweep:
            service._sweep()
            assert service.checkpoint_failures == 0
        service.persistence.close()  # stops with no final sweep

        restarted = PhaseService(data_dir=data_dir)
        try:
            session = restarted.registry.get("alpha")
            assert session.tracker.branches_observed == 500
            assert dumps(snapshot_tracker(session.tracker)) == expected
        finally:
            restarted.persistence.close()

    def test_an_observe_the_journal_refuses_is_not_applied(
        self, tmp_path, monkeypatch
    ):
        """An observe whose record the disk refuses partway through is
        journaled before it is applied, so it changes nothing: not the
        tracker, not the branch count, not the dirty flag. A client's
        retry is counted once, and a restart recovers exactly the
        acknowledged batches."""
        import errno

        from repro.service import protocol
        from repro.service.server import PhaseService
        from repro.service.snapshot import snapshot_tracker

        data_dir = str(tmp_path / "data")
        service = PhaseService(data_dir=data_dir)
        batches = branch_batches(seed=18, batches=2, batch_size=100)

        def observe(request_id, batch):
            return protocol.ObserveRequest(
                id=request_id, session="alpha",
                pcs=np.array(batch[0], dtype=np.int64),
                counts=np.array(batch[1], dtype=np.int64), cpi=1.2,
            )

        assert service._execute(protocol.OpenRequest(
            id=1, session="alpha",
            interval_instructions=INTERVAL_INSTRUCTIONS,
        ))[-1]["ok"]
        assert service._execute(observe(2, batches[0]))[-1]["ok"]
        service._sweep()
        session = service.registry.get("alpha")
        before = dumps(snapshot_tracker(session.tracker))
        assert session.tracker.branches_observed == 100 and not session.dirty

        # The disk fills 5 bytes into the observe record's frame.
        journal = service.persistence.journal
        room, write = 5, journal._file.write

        def write_some(data):
            nonlocal room
            if not room:
                raise OSError(errno.ENOSPC, "No space left on device")
            done = write(bytes(data[:room]))
            room -= done
            return done

        monkeypatch.setattr(journal._file, "write", write_some)
        (response,) = service._execute(observe(3, batches[1]))
        assert not response["ok"]
        assert "No space left" in response["error"]["message"]
        assert session.tracker.branches_observed == 100 and not session.dirty
        assert dumps(snapshot_tracker(session.tracker)) == before
        monkeypatch.undo()  # the disk has room again
        assert service._execute(observe(4, batches[1]))[-1]["ok"]
        assert session.tracker.branches_observed == 200 and session.dirty
        expected = dumps(snapshot_tracker(session.tracker))
        service.persistence.close()  # stops with no final sweep

        restarted = PhaseService(data_dir=data_dir)
        try:
            recovered = restarted.registry.get("alpha")
            assert recovered.tracker.branches_observed == 200
            assert dumps(snapshot_tracker(recovered.tracker)) == expected
        finally:
            restarted.persistence.close()

    def test_observe_batches_are_journaled(self, tmp_path):
        batches = branch_batches(seed=12, batches=2)
        handle = start_in_thread(
            max_sessions=8, data_dir=tmp_path / "data"
        )
        try:
            with PhaseServiceClient(port=handle.port) as client:
                client.open_session(
                    "alpha", interval_instructions=INTERVAL_INSTRUCTIONS
                )
                for pcs, counts in batches:
                    client.observe("alpha", pcs, counts, cpi=1.0)
                stats = client.stats()["persistence"]
                assert stats["journal_records"] == 3
                assert stats["journal_unsynced"] <= 3
        finally:
            handle.stop()

    def test_scoreboard_counts_restored_and_hydrated_sessions(
        self, tmp_path
    ):
        """A session reopened from its own snapshot mid-stream and one
        evicted to disk and hydrated score every interval an unbroken
        session scores: each carries its pending prediction in its
        tracker, so the service scoreboard equals an unbroken run's."""
        streams = {
            "reopened": branch_batches(seed=13, batches=8),
            "hydrated": branch_batches(seed=14, batches=8),
        }
        with start_in_thread(max_sessions=8) as handle:
            with PhaseServiceClient(port=handle.port) as client:
                for name, batches in streams.items():
                    client.open_session(
                        name, interval_instructions=INTERVAL_INSTRUCTIONS
                    )
                    for pcs, counts in batches:
                        client.observe(name, pcs, counts, cpi=1.0)
                expected = client.stats()["predictions"]
        assert expected["scored"] > 0

        with start_in_thread(
            max_sessions=2, data_dir=tmp_path / "data"
        ) as handle:
            with PhaseServiceClient(port=handle.port) as client:
                for name, batches in streams.items():
                    client.open_session(
                        name, interval_instructions=INTERVAL_INSTRUCTIONS
                    )
                    for pcs, counts in batches[:4]:
                        client.observe(name, pcs, counts, cpi=1.0)
                snapshot = client.snapshot("reopened")
                client.close_session("reopened")
                client.open_session("reopened", snapshot=snapshot)
                client.open_session("filler")  # evicts "hydrated"
                for name, batches in streams.items():
                    for pcs, counts in batches[4:]:
                        client.observe(name, pcs, counts, cpi=1.0)
                stats = client.stats()
        assert stats["evicted_saved"] >= 1 and stats["hydrated"] >= 1
        assert stats["predictions"] == expected
