"""The asyncio server: protocol behaviour over real sockets, admission
control, backpressure, and the graceful-drain zero-loss guarantee.

Line framing, admission control and drain are shared lifecycle code, so
those cases also run against a one-worker cluster's dispatcher."""

import asyncio
import functools
import json
import socket
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterDispatcher, start_cluster_in_thread
from repro.core import PhaseTracker
from repro.errors import ConfigurationError
from repro.service import PhaseServiceClient, start_in_thread
from repro.service.server import PhaseService
from repro.telemetry import parse_prometheus_text

BASE_A, BASE_B = 0x400000, 0x900000


def branch_batches(seed, batches, batch_size=300, interval=3_000):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 4) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


class RawConnection:
    """A bare socket speaking the protocol, for tests that need to
    pipeline requests without waiting for responses."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=15)
        self.reader = self.sock.makefile("rb")

    def send(self, payload):
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def read_message(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def read_until_eof(self):
        messages = []
        while True:
            message = self.read_message()
            if message is None:
                return messages
            messages.append(message)

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def service():
    handle = start_in_thread(max_sessions=8)
    yield handle
    handle.stop()


@pytest.fixture()
def start():
    """Starts the server under test on a thread."""
    return start_in_thread


class OneWorkerCluster:
    """Runs a test class's cases against a one-worker cluster, whose
    dispatcher shares the service's connection lifecycle."""

    @pytest.fixture()
    def start(self, tmp_path):
        return functools.partial(
            start_cluster_in_thread, workers=1,
            runtime_dir=str(tmp_path / "rt"),
        )


class TestRequestHandling:
    def test_ping_stats_and_session_cycle(self, service):
        with PhaseServiceClient(port=service.port) as client:
            assert client.ping()["protocol"] == 1
            name = client.open_session(interval_instructions=3_000)
            batches = branch_batches(seed=1, batches=6)
            total = 0
            for pcs, counts in batches:
                total += len(client.observe(name, pcs, counts, cpi=1.1))
            assert total > 0
            stats = client.stats()
            assert stats["live"] == 1 and stats["errors"] == 0
            summary = client.close_session(name)
            assert summary["intervals"] == total
            assert summary["branches"] == 6 * 300

    def test_service_stream_matches_local_tracker(self, service):
        batches = branch_batches(seed=2, batches=8)
        local = PhaseTracker(interval_instructions=3_000)
        with PhaseServiceClient(port=service.port) as client:
            name = client.open_session(interval_instructions=3_000)
            remote_reports, local_reports = [], []
            for pcs, counts in batches:
                remote_reports += client.observe(name, pcs, counts, cpi=1.2)
                local_reports += [
                    r.to_dict()
                    for r in local.observe_batch(pcs, counts, cpi=1.2)
                ]
        assert remote_reports == local_reports
        assert remote_reports

    def test_protocol_error_response_keeps_connection_alive(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "warp", "id": 5})
        message = raw.read_message()
        assert message["id"] == 5
        assert message["error"]["code"] == "protocol"
        raw.send({"op": "ping", "id": 6})          # still usable
        assert raw.read_message()["ok"] is True
        raw.close()

    def test_unparseable_id_gets_minus_one(self, service):
        raw = RawConnection(service.port)
        raw.send([1, 2, 3])
        message = raw.read_message()
        assert message["id"] == -1
        assert message["error"]["code"] == "protocol"
        raw.close()

    def test_unknown_session_and_duplicate_open(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "observe", "id": 1, "session": "ghost",
                  "pcs": [], "counts": []})
        assert raw.read_message()["error"]["code"] == "session_not_found"
        raw.send({"op": "open", "id": 2, "session": "dup"})
        assert raw.read_message()["ok"] is True
        raw.send({"op": "open", "id": 3, "session": "dup"})
        assert raw.read_message()["error"]["code"] == "session_exists"
        raw.close()

    def test_overloaded_when_eviction_disabled(self):
        handle = start_in_thread(max_sessions=1, evict_lru=False)
        try:
            raw = RawConnection(handle.port)
            raw.send({"op": "open", "id": 1})
            assert raw.read_message()["ok"] is True
            raw.send({"op": "open", "id": 2})
            assert raw.read_message()["error"]["code"] == "overloaded"
            raw.close()
        finally:
            handle.stop()

    def test_pushes_precede_the_observe_ack(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "open", "id": 1, "session": "s",
                  "interval_instructions": 1000})
        raw.read_message()
        raw.send({"op": "observe", "id": 2, "session": "s",
                  "pcs": [4096] * 60, "counts": [40] * 60})
        messages = [raw.read_message() for _ in range(3)]
        assert [m.get("push") for m in messages[:-1]] == ["interval"] * 2
        ack = messages[-1]
        assert ack["id"] == 2 and ack["result"]["intervals"] == 2
        raw.close()

    def test_a_session_reopened_from_its_snapshot_keeps_its_count(
        self, service
    ):
        """Observe 600, snapshot, close, open with the snapshot, observe
        600, close: the totals are an unbroken session's."""
        batches = branch_batches(seed=4, batches=4)
        with PhaseServiceClient(port=service.port) as client:
            client.open_session("whole", interval_instructions=3_000)
            for pcs, counts in batches:
                client.observe("whole", pcs, counts)
            whole = client.close_session("whole")
            client.open_session("split", interval_instructions=3_000)
            for pcs, counts in batches[:2]:
                client.observe("split", pcs, counts)
            snapshot = client.snapshot("split")
            client.close_session("split")
            client.open_session("split", snapshot=snapshot)
            for pcs, counts in batches[2:]:
                client.observe("split", pcs, counts)
            split = client.close_session("split")
        assert whole["branches"] == split["branches"] == 1_200
        assert whole["intervals"] == split["intervals"] > 0

    def test_open_reports_whether_it_restored_a_snapshot(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "open", "id": 1, "session": "fresh"})
        fresh = raw.read_message()["result"]
        raw.send({"op": "snapshot", "id": 2, "session": "fresh"})
        snapshot = raw.read_message()["result"]["snapshot"]
        raw.send({"op": "open", "id": 3, "session": "copy",
                  "snapshot": snapshot})
        copy = raw.read_message()["result"]
        raw.close()
        assert fresh["restored"] is False
        assert copy["restored"] is True


class TestLineFraming:
    def test_final_line_without_newline_is_answered(self, start):
        """A request whose line ends at the client's EOF instead of a
        newline is still answered, and the connection then closes."""
        handle = start()
        try:
            raw = RawConnection(handle.port)
            raw.send({"op": "open", "id": 1, "session": "s"})
            assert raw.read_message()["ok"] is True
            # The canonical wire form, which a cluster forwards as is.
            raw.sock.sendall(b'{"op":"predict","id":2,"session":"s"}')
            raw.sock.shutdown(socket.SHUT_WR)
            answer = raw.read_message()
            assert answer["id"] == 2 and answer["ok"] is True
            assert answer["result"]["session"] == "s"
            assert raw.read_message() is None
            raw.close()
        finally:
            handle.stop()


    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter has no integer digit limit",
    )
    def test_json_the_decoder_refuses_is_a_protocol_error(self, start):
        """An integer literal past the interpreter's digit limit and
        nesting too deep for the JSON scanner are refused like any
        malformed line, and the connection keeps serving."""
        handle = start()
        try:
            raw = RawConnection(handle.port)
            raw.sock.sendall(
                b'{"op":"ping","id":' + b"1" * 5_000 + b"}\n"
                + b"[" * 100_000 + b"\n"
                + b'{"op":"ping","id":3}\n'
            )
            for _ in range(2):
                refusal = raw.read_message()
                assert refusal["id"] == -1
                assert refusal["error"]["code"] == "protocol"
                assert "not valid JSON" in refusal["error"]["message"]
            pong = raw.read_message()
            assert pong["id"] == 3 and pong["ok"] is True
            raw.close()
        finally:
            handle.stop()


class TestAdmissionControl:
    def test_connection_cap_closes_surplus_sockets(self, start):
        handle = start(max_connections=1)
        try:
            keeper = RawConnection(handle.port)
            keeper.send({"op": "ping", "id": 1})
            assert keeper.read_message()["ok"] is True
            surplus = RawConnection(handle.port)
            # The server closes the surplus socket without a response.
            assert surplus.read_message() is None
            assert handle.service.connections_refused >= 1
            surplus.close()
            keeper.close()
        finally:
            handle.stop()


class TestBackpressure:
    def test_tiny_queue_still_processes_everything(self):
        handle = start_in_thread(queue_size=1)
        try:
            batches = branch_batches(seed=3, batches=20, batch_size=100)
            with PhaseServiceClient(port=handle.port) as client:
                name = client.open_session(interval_instructions=2_000)
                intervals = 0
                for pcs, counts in batches:
                    intervals += len(client.observe(name, pcs, counts))
                summary = client.close_session(name)
            assert summary["branches"] == 20 * 100
            assert summary["intervals"] == intervals > 0
        finally:
            handle.stop()


class TestGracefulDrain:
    def test_queued_requests_classify_and_flush_before_close(self, start):
        """The zero-loss/zero-duplication guarantee: pipeline many
        observe requests, shut down while they are queued, and verify
        the pushed interval stream equals a local tracker fed exactly
        the acknowledged batches — nothing lost, nothing classified
        twice. A snapshot taken post-drain via a fresh service restore
        must also continue identically."""
        handle = start(queue_size=64)
        batches = branch_batches(seed=4, batches=30)
        raw = RawConnection(handle.port)
        raw.send({"op": "open", "id": 0, "session": "drainee",
                  "interval_instructions": 3000})
        assert raw.read_message()["ok"] is True

        def observe(index):
            pcs, counts = batches[index]
            raw.send({"op": "observe", "id": index + 1, "session":
                      "drainee", "pcs": pcs, "counts": counts,
                      "cpi": 1.0})

        # The first observe is acknowledged before the drain can begin,
        # so at least one batch is always executed.
        observe(0)
        messages = [raw.read_message()]
        while "push" in messages[-1]:
            messages.append(raw.read_message())
        # Pipeline every other batch without reading responses, then
        # shut down concurrently so the drain races live queue contents.
        for index in range(1, len(batches)):
            observe(index)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        messages += raw.read_until_eof()
        stopper.join()
        raw.close()

        acked, refused, pushes = set(), set(), []
        for message in messages:
            if message.get("push") == "interval":
                pushes.append(message["report"])
            elif message.get("ok"):
                acked.add(message["id"])
            else:
                # Only lines read after the drain began are refused;
                # every queued observe still executes.
                assert message["error"]["code"] == "shutting_down"
                refused.add(message["id"])

        # Responses are FIFO: every acknowledged batch precedes any
        # refused one, and none is both.
        assert acked and not (acked & refused)
        if refused:
            assert max(acked) < min(refused)

        # Replay exactly the acknowledged batches locally: the pushed
        # interval stream must match it one-for-one.
        local = PhaseTracker(interval_instructions=3000)
        expected = []
        for index in sorted(acked):
            pcs, counts = batches[index - 1]
            expected += [
                r.to_dict()
                for r in local.observe_batch(pcs, counts, cpi=1.0)
            ]
        assert pushes == expected

    def test_work_read_after_the_drain_began_is_refused(self, start):
        """Once ``POST /v1/drain`` has begun a drain, an observe read
        from a connection that was already open is refused with
        ``shutting_down`` and its own id, and a ping on that connection
        is still answered, reporting the drain."""
        handle = start(http_port=0)
        try:
            raw = RawConnection(handle.port)
            raw.send({"op": "open", "id": 1, "session": "late",
                      "interval_instructions": 3000})
            assert raw.read_message()["ok"] is True
            pcs, counts = branch_batches(seed=5, batches=1)[0]

            def observe(request_id):
                raw.send({"op": "observe", "id": request_id,
                          "session": "late", "pcs": pcs,
                          "counts": counts, "cpi": 1.0})
                message = raw.read_message()
                while "push" in message:
                    message = raw.read_message()
                return message

            assert observe(2) == {"id": 2, "ok": True, "result": {
                "branches": 300, "intervals": 3}}
            service = handle.service
            request = urllib.request.Request(
                f"http://{service.http_host}:{service.http_port}"
                "/v1/drain", data=b'{"grace": 5.0}', method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.load(response)["draining"] is True
            refusal = observe(3)
            assert refusal["id"] == 3 and refusal["ok"] is False
            assert refusal["error"]["code"] == "shutting_down"
            raw.send({"op": "ping", "id": 4})
            pong = raw.read_message()
            assert pong["id"] == 4 and pong["result"]["draining"] is True
            raw.close()
        finally:
            handle.stop()

    def test_new_connections_refused_while_stopped(self, start):
        handle = start()
        port = handle.port
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2)

    def test_shutdown_is_idempotent(self, start):
        handle = start()
        handle.stop()
        handle.stop()

    def test_a_backend_stop_that_raises_still_stops(self, start):
        """``serve_forever`` returns and the gateway stops even when
        the backend's stop raises, so a daemon never hangs on SIGTERM."""
        handle = start(http_port=0)
        service = handle.service
        stop_backend = service._stop_backend

        async def stop_then_fail():
            await stop_backend()
            raise RuntimeError("backend stop failed")

        service._stop_backend = stop_then_fail
        future = asyncio.run_coroutine_threadsafe(
            service.shutdown(), handle._loop
        )
        with pytest.raises(RuntimeError, match="backend stop failed"):
            future.result(30)
        handle._thread.join(30)
        assert not handle._thread.is_alive()
        assert service.gateway is None


class TestClusterLineFraming(OneWorkerCluster, TestLineFraming):
    pass


class TestClusterAdmissionControl(OneWorkerCluster, TestAdmissionControl):
    pass


class TestClusterGracefulDrain(OneWorkerCluster, TestGracefulDrain):
    pass


class TestIdleSweep:
    def test_idle_sessions_are_swept_in_the_background(self):
        handle = start_in_thread(idle_ttl=0.2)
        try:
            with PhaseServiceClient(port=handle.port) as client:
                client.open_session(session="sleepy")
                assert client.stats()["live"] == 1
                deadline = time.time() + 5
                while time.time() < deadline:
                    if client.stats()["expired"] == 1:
                        break
                    time.sleep(0.05)
                stats = client.stats()
                assert stats["live"] == 0 and stats["expired"] == 1
        finally:
            handle.stop()


class TestHubWithoutGateway:
    """A server with no HTTP port and no sinks still owns a hub, and
    its series count what the server did."""

    @pytest.mark.parametrize("durable", [False, True])
    def test_a_service_counts_without_a_gateway(self, durable, tmp_path):
        data_dir = str(tmp_path / "data") if durable else None
        handle = start_in_thread(data_dir=data_dir)
        try:
            sent = pushed = 0
            with PhaseServiceClient(port=handle.port) as client:
                name = client.open_session(interval_instructions=3_000)
                for pcs, counts in branch_batches(seed=5, batches=3):
                    pushed += len(client.observe(name, pcs, counts))
                    sent += len(pcs)
                client.predict(name)
                raw = RawConnection(handle.port)
                raw.send({"op": "warp", "id": 1})
                assert raw.read_message()["error"]["code"] == "protocol"
                raw.close()
                client.close_session(name)
                stats = client.stats()
        finally:
            handle.stop()
        service = handle.service
        samples = parse_prometheus_text(service.telemetry.render_metrics())
        assert pushed > 0
        assert samples["repro_service_requests_total"] == (
            service.requests_served
        )
        assert samples["repro_service_errors_total"] == 1
        assert samples["repro_service_branches_total"] == sent
        assert samples["repro_service_intervals_total"] == pushed
        assert samples["repro_service_sessions"] == 0
        if durable:
            assert samples["repro_persistence_journal_records_total"] == (
                stats["persistence"]["journal_records"]
            )

    def test_a_cluster_counts_without_a_gateway(self, tmp_path):
        handle = start_cluster_in_thread(
            workers=1, runtime_dir=str(tmp_path / "rt")
        )
        try:
            telemetry = handle.service.telemetry
            samples = parse_prometheus_text(telemetry.render_metrics())
        finally:
            handle.stop()
        assert samples["repro_cluster_workers"] == 1


class TestConstruction:
    def test_invalid_parameters(self, tmp_path):
        runtime_dir = tmp_path / "rt"
        dispatcher = functools.partial(
            ClusterDispatcher, runtime_dir=str(runtime_dir)
        )
        for build in (PhaseService, dispatcher):
            for bad in (
                {"max_connections": 0},
                {"queue_size": 0},
                {"http_port": -1},
            ):
                with pytest.raises(ConfigurationError):
                    build(**bad)
        # Refused before the dispatcher prepared anything for workers.
        assert not runtime_dir.exists()
