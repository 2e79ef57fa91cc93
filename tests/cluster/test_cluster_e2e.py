"""End-to-end cluster tests: a dispatcher + real worker processes must
be indistinguishable from a single in-process PhaseService — byte-for-
byte identical interval reports, including across a live mid-stream
migration — and must survive kill -9 of a worker (supervised restart +
persistence recovery) and drain a worker to zero without losing a
session.

These tests spawn real subprocesses; they are the slowest in the suite
but they are the acceptance test for repro.cluster.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.cluster import start_cluster_in_thread
from repro.errors import ClusterError
from repro.service import PhaseServiceClient, start_in_thread

INTERVAL_INSTRUCTIONS = 20_000


def branch_stream(seed, records):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(records) < 0.5, 0x400000, 0x900000)
    pcs = region + (rng.integers(0, 48, size=records)) * 4
    counts = rng.integers(1, 120, size=records)
    return pcs, counts


def drive(client, session, pcs, counts, chunk=500):
    """Feed a stream through an open session; returns the canonical
    JSON of every interval report emitted."""
    reports = []
    for start in range(0, len(pcs), chunk):
        result = client.observe(
            session,
            [int(pc) for pc in pcs[start:start + chunk]],
            [int(count) for count in counts[start:start + chunk]],
            cpi=1.25,
        )
        reports.extend(
            json.dumps(report, sort_keys=True) for report in result
        )
    return reports


def single_service_reports(sessions):
    """Ground truth: the same streams through one in-process service;
    returns each session's reports, each session's ``close`` result
    and the service's prediction scoreboard."""
    expected, closed = {}, {}
    with start_in_thread(max_sessions=16) as handle:
        with PhaseServiceClient(port=handle.port) as client:
            for name, (pcs, counts) in sessions.items():
                client.open_session(
                    session=name,
                    interval_instructions=INTERVAL_INSTRUCTIONS,
                )
                expected[name] = drive(client, name, pcs, counts)
                closed[name] = client.close_session(name)
            predictions = client.stats()["predictions"]
    return expected, closed, predictions


def wait_for(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestClusterByteIdentity:
    def test_reports_identical_to_single_service_with_live_migration(
        self, tmp_path
    ):
        """Four sessions through a 2-worker cluster, one of them
        migrated between workers mid-stream, produce byte-identical
        interval reports, the same ``close`` results and the same
        prediction scoreboard as a single-process service."""
        sessions = {
            name: branch_stream(seed, 3000)
            for seed, name in enumerate(
                ["alpha", "bravo", "charlie", "delta"]
            )
        }
        expected, expected_closed, expected_predictions = (
            single_service_reports(sessions)
        )

        with start_cluster_in_thread(
            port=0, workers=2, runtime_dir=str(tmp_path / "rt"),
        ) as cluster:
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as client:
                for name in sessions:
                    client.open_session(
                        session=name,
                        interval_instructions=INTERVAL_INSTRUCTIONS,
                    )
                # Sessions actually land on both workers.
                status = client.cluster("status")
                per_worker = [
                    worker["sessions"]
                    for worker in status["workers"].values()
                ]
                assert sum(per_worker) == len(sessions)

                # First half of every stream …
                halves = {}
                for name, (pcs, counts) in sessions.items():
                    half = len(pcs) // 2
                    halves[name] = drive(
                        client, name, pcs[:half], counts[:half]
                    )

                # … then live-migrate one session to the other worker …
                dispatcher = cluster.service
                victim = "charlie"
                source = dispatcher._sessions[victim]
                target = next(
                    worker
                    for worker in dispatcher.shard_map.workers
                    if worker != source
                )
                moved = client.cluster(
                    "migrate", session=victim, worker=target
                )
                assert moved["migrated"] is True
                assert moved["to"] == target
                assert dispatcher._sessions[victim] == target

                # … and finish the streams. Reports must not notice.
                got, closed = {}, {}
                for name, (pcs, counts) in sessions.items():
                    half = len(pcs) // 2
                    got[name] = halves[name] + drive(
                        client, name, pcs[half:], counts[half:]
                    )
                    closed[name] = client.close_session(name)
                # The migrated session's target scored its first
                # interval against the snapshot's pending prediction.
                predictions = client.stats()["predictions"]

        for name in sessions:
            assert got[name] == expected[name], (
                f"session {name!r} diverged from the single-process "
                f"service"
            )
        # The migrated session's count travelled in its snapshot.
        assert closed == expected_closed
        assert closed[victim]["branches"] == 3000
        assert expected_predictions["scored"] > 0
        assert predictions == expected_predictions

    def test_anonymous_opens_and_aggregate_stats(self, tmp_path):
        with start_cluster_in_thread(
            port=0, workers=2, runtime_dir=str(tmp_path / "rt"),
        ) as cluster:
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as client:
                names = [client.open_session() for _ in range(6)]
                assert len(set(names)) == 6
                stats = client.stats()
                assert stats["live"] == 6
                assert stats["cluster"]["sessions_routed"] == 6
                assert set(stats["per_worker"]) == set(
                    cluster.service.shard_map.workers
                )
                ping = client.ping()
                assert ping["cluster"] is True
                for name in names:
                    client.close_session(name)
                assert client.stats()["live"] == 0


class TestGrowAndRebalance:
    def test_grow_then_rebalance_keeps_every_report_identical(
        self, tmp_path
    ):
        """Eight sessions on one worker, half-fed; a ``grow`` past the
        shard count is refused before any worker starts, ``grow
        count=2`` adds two workers, and ``rebalance`` moves every
        session whose shard they took. The sessions' reports and
        ``close`` results equal a single service's on the same
        streams."""
        names = [f"s{index}" for index in range(8)]
        sessions = {
            name: branch_stream(40 + index, 3000)
            for index, name in enumerate(names)
        }
        expected, expected_closed, _ = single_service_reports(sessions)

        with start_cluster_in_thread(
            port=0, workers=1, runtime_dir=str(tmp_path / "rt"),
        ) as cluster:
            dispatcher = cluster.service
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as client:
                got = {}
                for name, (pcs, counts) in sessions.items():
                    client.open_session(
                        session=name,
                        interval_instructions=INTERVAL_INSTRUCTIONS,
                    )
                    got[name] = drive(
                        client, name, pcs[:1500], counts[:1500]
                    )

                with pytest.raises(ClusterError, match="shards exist"):
                    client.cluster("grow", count=64)
                assert list(dispatcher.supervisor.workers) == ["w0"]

                grown = client.cluster("grow", count=2)
                assert grown["added"] == ["w1", "w2"]
                rebalanced = client.cluster("rebalance")
                moved = rebalanced["migrated"]
                assert rebalanced["count"] == len(moved)
                assert {move["from"] for move in moved.values()} == {"w0"}
                assert {move["to"] for move in moved.values()} == {
                    "w1", "w2",
                }
                for name in names:
                    assert dispatcher._sessions[name] == (
                        dispatcher.shard_map.owner_of(name)
                    )

                closed = {}
                for name, (pcs, counts) in sessions.items():
                    got[name] += drive(
                        client, name, pcs[1500:], counts[1500:]
                    )
                    closed[name] = client.close_session(name)

        assert got == expected
        assert closed == expected_closed


class TestClusterAggregates:
    def test_durable_stats_are_the_workers_documents_summed(
        self, tmp_path
    ):
        """A durable cluster's ``stats`` has every top-level key one
        durable service's has, and its ``persistence`` block, in
        ``stats`` and in ``diagnostics``, is the workers' own summed."""
        with start_in_thread(data_dir=str(tmp_path / "single")) as single:
            with PhaseServiceClient(port=single.port) as client:
                single_keys = set(client.stats())
        names = ["alpha", "bravo", "charlie", "delta"]
        pcs, counts = branch_stream(11, 600)
        with start_cluster_in_thread(
            port=0, workers=2, runtime_dir=str(tmp_path / "rt"),
            data_root=str(tmp_path / "data"), checkpoint_interval=3600,
        ) as cluster:
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as client:
                for name in names:
                    client.open_session(
                        session=name,
                        interval_instructions=INTERVAL_INSTRUCTIONS,
                    )
                    drive(client, name, pcs, counts, chunk=200)
                stats = client.stats()
                diagnostics = client.cluster("diagnostics")
        workers = stats["per_worker"].values()
        assert len(workers) == 2
        assert single_keys <= set(stats)
        persistence = [worker["persistence"] for worker in workers]
        assert all(block["journal_records"] for block in persistence)
        summed = {
            key: sum(block[key] for block in persistence)
            for key in persistence[0]
        }
        assert stats["persistence"] == summed
        assert summed["journal_records"] == len(names) * (1 + 3)
        assert stats["checkpoint_failures"] == sum(
            worker["checkpoint_failures"] for worker in workers
        )
        assert diagnostics["persistence"] == summed
        assert diagnostics["registry"]["live"] == len(names)


class TestClusterFailover:
    def test_kill_dash_nine_worker_restarts_and_recovers(self, tmp_path):
        """SIGKILL the worker that owns a durable session: the
        supervisor restarts it, persistence recovery rehydrates the
        session, and its snapshot is byte-identical to before the
        crash."""
        pcs, counts = branch_stream(97, 2000)
        with start_cluster_in_thread(
            port=0, workers=2, runtime_dir=str(tmp_path / "rt"),
            data_root=str(tmp_path / "data"), sync="always",
        ) as cluster:
            dispatcher = cluster.service
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0, retries=2
            ) as client:
                client.open_session(
                    session="durable",
                    interval_instructions=INTERVAL_INSTRUCTIONS,
                )
                drive(client, "durable", pcs, counts)
                before = json.dumps(
                    client.snapshot("durable"), sort_keys=True
                )

                owner = dispatcher._sessions["durable"]
                handle = dispatcher.supervisor.workers[owner]
                old_pid = handle.process.pid
                os.kill(old_pid, signal.SIGKILL)

                assert wait_for(
                    lambda: handle.process.pid != old_pid
                    and handle.state == "up"
                ), "supervisor did not restart the killed worker"
                assert handle.restarts == 1

                # Read-only ops ride the restart via the retry window;
                # the recovered state is byte-identical.
                after = json.dumps(
                    client.snapshot("durable"), sort_keys=True
                )
                assert after == before
                # The session keeps working after recovery.
                more_pcs, more_counts = branch_stream(98, 500)
                drive(client, "durable", more_pcs, more_counts)
                client.close_session("durable")


class TestDrainWorker:
    def test_drain_worker_migrates_sessions_and_stops_it(self, tmp_path):
        with start_cluster_in_thread(
            port=0, workers=2, runtime_dir=str(tmp_path / "rt"),
        ) as cluster:
            dispatcher = cluster.service
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as client:
                for index in range(4):
                    client.open_session(
                        session=f"drain-{index}",
                        interval_instructions=INTERVAL_INSTRUCTIONS,
                    )
                victim = sorted(dispatcher.shard_map.workers)[0]
                moved = client.cluster("drain-worker", worker=victim)
                assert moved["stopped"] is True
                assert victim not in dispatcher.shard_map
                assert (
                    dispatcher.supervisor.workers[victim].state
                    == "stopped"
                )
                # Every session survived the drain and still answers.
                survivor = next(iter(dispatcher.shard_map.workers))
                pcs, counts = branch_stream(7, 600)
                for index in range(4):
                    name = f"drain-{index}"
                    assert dispatcher._sessions[name] == survivor
                    drive(client, name, pcs, counts)
                    client.close_session(name)

                # The last worker is not drainable.
                with pytest.raises(ClusterError):
                    client.cluster("drain-worker", worker=survivor)

    def test_single_service_refuses_cluster_actions(self):
        with start_in_thread(max_sessions=4) as handle:
            with PhaseServiceClient(port=handle.port) as client:
                # diagnostics works everywhere …
                diagnostics = client.cluster("diagnostics")
                assert "registry" in diagnostics
                # … but topology actions need a dispatcher.
                with pytest.raises(ClusterError):
                    client.cluster("migrate", session="x", worker="w0")


class TestServeOptions:
    def test_no_evict_is_refused_before_any_worker_starts(self, tmp_path):
        """Cluster workers always evict the LRU session, so ``serve
        --workers N --no-evict`` exits 2 instead of ignoring the flag.
        Run in a subprocess with a timeout: a server that accepted the
        flag would start serving and never return."""
        runtime_dir = tmp_path / "rt"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.harness.cli", "serve",
                "--port", "0", "--workers", "1", "--no-evict",
                "--runtime-dir", str(runtime_dir),
            ],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 2
        assert "--no-evict is not supported with --workers" in result.stderr
        assert not runtime_dir.exists()
