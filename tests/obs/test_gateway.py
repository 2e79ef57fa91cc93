"""The HTTP operations gateway, end to end against a live service.

The load-bearing guarantee: the HTTP session routes run the *same*
``PhaseService._execute`` path as the NDJSON-over-TCP protocol, so the
interval reports that come back over HTTP are byte-for-byte the ones
the TCP client would have received for the same stream.
"""

import json
import socket
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import PhaseTracker
from repro.service import PhaseServiceClient, start_in_thread
from repro.service.snapshot import snapshot_tracker
from repro.telemetry import parse_prometheus_text

BASE_A, BASE_B = 0x400000, 0x900000
INTERVAL = 3_000


def branch_batches(seed, batches, batch_size=300):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 4) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


def call(base, method, path, body=None):
    """One JSON request; returns ``(status, decoded_body)`` for both
    success and error statuses."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def service():
    handle = start_in_thread(max_sessions=8, http_port=0)
    yield handle
    handle.stop()


@pytest.fixture()
def base(service):
    return f"http://{service.service.http_host}:{service.service.http_port}"


class TestProbesAndMetadata:
    def test_healthz_shape(self, base):
        status, health = call(base, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["sessions"] == 0
        assert health["uptime_seconds"] >= 0
        assert isinstance(health["pid"], int)
        from repro import __version__

        assert health["version"] == __version__

    def test_readyz_while_live(self, base):
        status, body = call(base, "GET", "/readyz")
        assert status == 200 and body == {"ready": True}

    def test_dashboard_served_at_root(self, base):
        with urllib.request.urlopen(base + "/", timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            page = response.read().decode()
        assert "/v1/diagnostics" in page and "/v1/events" in page

    def test_unknown_route_is_404(self, base):
        status, body = call(base, "GET", "/nope")
        assert status == 404
        assert "no route" in body["error"]["message"]

    def test_wrong_method_is_405(self, base):
        status, _ = call(base, "DELETE", "/healthz")
        assert status == 405


class TestSessionRoutes:
    def test_http_reports_match_ndjson_byte_for_byte(self, service, base):
        """The acceptance test: one stream pushed through both fronts
        of the same service must yield identical report payloads."""
        batches = branch_batches(seed=7, batches=10)

        _, opened = call(base, "POST", "/v1/sessions", {
            "session": "via-http", "interval_instructions": INTERVAL,
        })
        assert opened["session"] == "via-http"
        http_reports = []
        for pcs, counts in batches:
            status, result = call(
                base, "POST", "/v1/sessions/via-http/observe-batch",
                {"pcs": pcs, "counts": counts, "cpi": 1.1},
            )
            assert status == 200
            http_reports.extend(result["reports"])

        with PhaseServiceClient(port=service.port) as client:
            client.open_session(
                session="via-tcp", interval_instructions=INTERVAL
            )
            tcp_reports = []
            for pcs, counts in batches:
                tcp_reports.extend(
                    client.observe("via-tcp", pcs, counts, cpi=1.1)
                )

        assert len(http_reports) > 0
        assert json.dumps(http_reports, sort_keys=True) == (
            json.dumps(tcp_reports, sort_keys=True)
        )

    def test_crud_cycle(self, base):
        status, opened = call(base, "POST", "/v1/sessions", {
            "session": "s1", "interval_instructions": INTERVAL,
        })
        assert status == 201

        status, listing = call(base, "GET", "/v1/sessions")
        assert status == 200
        assert [s["session"] for s in listing["sessions"]] == ["s1"]

        status, info = call(base, "GET", "/v1/sessions/s1")
        assert status == 200
        assert info["session"] == "s1"

        status, snapshot = call(base, "GET", "/v1/sessions/s1/snapshot")
        assert status == 200
        assert "snapshot" in snapshot

        status, closed = call(base, "DELETE", "/v1/sessions/s1")
        assert status == 200
        assert closed["session"] == "s1"

        status, listing = call(base, "GET", "/v1/sessions")
        assert listing["sessions"] == []

    def test_snapshot_round_trips_into_new_session(self, base):
        call(base, "POST", "/v1/sessions", {
            "session": "orig", "interval_instructions": INTERVAL,
        })
        for pcs, counts in branch_batches(seed=3, batches=4):
            call(base, "POST", "/v1/sessions/orig/observe-batch",
                 {"pcs": pcs, "counts": counts})
        _, snapshot = call(base, "GET", "/v1/sessions/orig/snapshot")
        status, reopened = call(base, "POST", "/v1/sessions", {
            "session": "clone", "snapshot": snapshot["snapshot"],
        })
        assert status == 201
        _, a = call(base, "GET", "/v1/sessions/orig")
        _, b = call(base, "GET", "/v1/sessions/clone")
        assert a["current_phase"] == b["current_phase"]
        assert a["predicted_next_phase"] == b["predicted_next_phase"]
        assert a["intervals"] == b["intervals"]

    def test_error_status_mapping(self, base):
        status, body = call(base, "GET", "/v1/sessions/ghost")
        assert status == 404
        assert body["error"]["message"]

        call(base, "POST", "/v1/sessions", {"session": "dup"})
        status, _ = call(base, "POST", "/v1/sessions", {"session": "dup"})
        assert status == 409

    def test_observe_errors_map_to_http_status(self, base):
        status, body = call(
            base, "POST", "/v1/sessions/ghost/observe-batch",
            {"pcs": [0x400], "counts": [1], "cpi": 1.0},
        )
        assert status == 404
        assert "ghost" in body["error"]["message"]

    def test_body_validation_is_400(self, base):
        call(base, "POST", "/v1/sessions", {"session": "v"})
        for bad in (
            {"pcs": [1], "counts": [1, 2]},           # length mismatch
            {"pcs": "nope", "counts": [1]},           # not a list
            {"pcs": [1.5], "counts": [1]},            # non-int entries
            {"pcs": [True], "counts": [1]},           # bools are not ints
            {"pcs": [1], "counts": [1], "cpi": "x"},  # non-numeric cpi
        ):
            status, body = call(
                base, "POST", "/v1/sessions/v/observe-batch", bad
            )
            assert status == 400, bad
            assert body["error"]["message"]
        status, _ = call(base, "POST", "/v1/sessions", {"session": 7})
        assert status == 400

    @pytest.mark.parametrize("body", [
        pytest.param(
            b'{"session":"s","id":' + b"1" * 5_000 + b"}", id="digits",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this interpreter has no integer digit limit",
            ),
        ),
        pytest.param(b"[" * 100_000, id="depth"),
    ])
    def test_json_the_decoder_refuses_is_400(self, base, body):
        """An integer past the interpreter's digit limit and nesting
        too deep to decode are bad bodies, not server errors."""
        request = urllib.request.Request(
            base + "/v1/sessions", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=10)
        assert refused.value.code == 400
        answer = json.loads(refused.value.read())
        assert "invalid JSON body" in answer["error"]["message"]


#: Observe bodies both wire surfaces must refuse, with code ``protocol``
#: over NDJSON and status 400 over HTTP. Each replaces fields of a good
#: one-record observe.
BAD_OBSERVES = [
    {"pcs": [-4]},                        # negative pc
    {"counts": [-1]},                     # negative count
    {"cpi": 0},                           # non-positive cpi
    {"cpi": -1.5},
    {"cpi": float("nan")},                # json.loads accepts NaN ...
    {"cpi": float("inf")},                # ... and +-Infinity
    {"cpi": float("-inf")},
    {"cpi": True},
    {"cpi": "x"},
    {"pcs": [2 ** 63]},                   # past int64
    {"counts": [2 ** 64 + 5]},
    {"pcs": [1.5]},
    {"pcs": [True]},
    {"counts": ["5"]},
    {"pcs": [None]},
    {"pcs": [[4]]},
    {"pcs": "nope"},
    {"pcs": [4, 8]},                      # length mismatch
]


class TestOneObserveValidator:
    """HTTP observe-batch bodies go through the NDJSON observe
    validator, so the two surfaces refuse exactly the same observes.
    Values the decoder cannot represent (past int64, NaN or infinite
    cpi) are typed refusals on both, never ``internal`` or an ack."""

    @pytest.mark.parametrize("mutation", BAD_OBSERVES, ids=str)
    def test_both_surfaces_refuse(self, service, base, mutation):
        call(base, "POST", "/v1/sessions", {"session": "v"})
        body = dict({"pcs": [4096], "counts": [40], "cpi": 1.0},
                    **mutation)
        status, answer = call(
            base, "POST", "/v1/sessions/v/observe-batch", body
        )
        assert status == 400, answer
        assert answer["error"]["message"]

        payload = dict(body, op="observe", id=7, session="v")
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["id"] == 7 and reply["ok"] is False
        assert reply["error"]["code"] == "protocol", reply

        # Neither refusal touched the session.
        with PhaseServiceClient(port=service.port) as client:
            assert client.predict("v")["intervals"] == 0
        status, answer = call(base, "GET", "/v1/sessions")
        assert [s["branches"] for s in answer["sessions"]] == [0]


#: Open bodies both wire surfaces must refuse, with code ``protocol``
#: over NDJSON and status 400 over HTTP.
BAD_OPENS = {
    "zero-interval": {"session": "z", "interval_instructions": 0},
    "negative-interval": {"session": "z", "interval_instructions": -5},
    "bool-interval": {"session": "z", "interval_instructions": True},
    "empty-name": {"session": ""},
    # A valid snapshot carries its own config and interval.
    "snapshot-with-config": {
        "session": "z", "config": {}, "interval_instructions": 3_000,
        "snapshot": snapshot_tracker(PhaseTracker()),
    },
}


class TestOneOpenValidator:
    """``POST /v1/sessions`` bodies go through the NDJSON open
    validator, so the two surfaces refuse exactly the same opens."""

    @pytest.mark.parametrize(
        "body", BAD_OPENS.values(), ids=BAD_OPENS.keys()
    )
    def test_both_surfaces_refuse(self, service, base, body):
        status, answer = call(base, "POST", "/v1/sessions", body)
        assert status == 400, answer
        assert answer["error"]["message"]

        payload = dict(body, op="open", id=9)
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["id"] == 9 and reply["ok"] is False
        assert reply["error"]["code"] == "protocol", reply

        # Neither refusal opened a session.
        status, answer = call(base, "GET", "/v1/sessions")
        assert answer["sessions"] == []


class TestMetrics:
    def test_metrics_round_trip_with_request_counters(self, base):
        call(base, "GET", "/healthz")
        call(base, "POST", "/v1/sessions", {"session": "m"})
        for pcs, counts in branch_batches(seed=5, batches=2):
            call(base, "POST", "/v1/sessions/m/observe-batch",
                 {"pcs": pcs, "counts": counts})

        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = resp.read().decode()
        samples = parse_prometheus_text(text)

        assert samples[
            'repro_http_requests_total{method="GET",route="/healthz"}'
        ] >= 1
        assert samples[
            'repro_http_requests_total'
            '{method="POST",route="/v1/sessions/{id}/observe-batch"}'
        ] == 2
        assert samples[
            'repro_http_request_seconds_count{route="/healthz"}'
        ] >= 1
        assert samples["repro_service_uptime_seconds"] > 0
        assert samples["repro_http_in_flight"] >= 1  # the scrape itself
        info_keys = [k for k in samples if k.startswith("repro_service_info")]
        assert len(info_keys) == 1 and samples[info_keys[0]] == 1
        assert 'version="' in info_keys[0] and 'pid="' in info_keys[0]

    def test_refused_methods_count_under_their_route(self, service, base):
        """A 405 counts under the route pattern its path matched, so
        paths naming 200 sessions add one series, not 200."""
        metrics = service.service.telemetry.metrics

        def request_series():
            return {
                name for name in metrics.names()
                if name.startswith("repro_http_requests_total")
            }

        before = request_series()
        for index in range(200):
            status, _ = call(
                base, "POST", f"/v1/sessions/s{index}/snapshot", {}
            )
            assert status == 405
        added = request_series() - before
        key = (
            'repro_http_requests_total'
            '{method="POST",route="/v1/sessions/{id}/snapshot"}'
        )
        assert added == {key}
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            samples = parse_prometheus_text(resp.read().decode())
        assert samples[key] == 200

    def test_every_line_of_live_output_parses(self, base):
        call(base, "POST", "/v1/sessions", {"session": "p"})
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
        sample_lines = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(parse_prometheus_text(text)) == len(sample_lines)


class TestStateSeries:
    """Every single-process series that reports kept state reads the
    value ``stats`` reports for it, after a run that moves each one."""

    def test_series_read_what_stats_reports(self, tmp_path):
        handle = start_in_thread(
            max_sessions=1, data_dir=str(tmp_path / "data"), http_port=0,
        )
        try:
            service = handle.service
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as sock:
                lines = sock.makefile("rb")

                def request(op, **fields):
                    fields.update(op=op, id=len(sent) + 1)
                    sent.append(fields)
                    sock.sendall(json.dumps(fields).encode() + b"\n")
                    while True:
                        message = json.loads(lines.readline())
                        if "push" not in message:
                            return message

                sent = []
                sock.sendall(b"not json\n")
                assert json.loads(lines.readline())["ok"] is False
                # With room for one session, each open evicts the last
                # one to disk.
                for name in ("a", "b", "c"):
                    request("open", session=name,
                            interval_instructions=INTERVAL)
                    for pcs, counts in branch_batches(seed=3, batches=8):
                        request("observe", session=name, pcs=pcs,
                                counts=counts)
                checkpoints = service.persistence.checkpoints
                checkpoints.path_for("b").write_bytes(b"not a checkpoint")
                refused = request("predict", session="b")
                assert refused["error"]["code"] == "session_not_found"
                assert request("predict", session="a")["ok"]  # hydrates
                base = f"http://{service.http_host}:{service.http_port}"
                with urllib.request.urlopen(base + "/metrics") as answer:
                    series = parse_prometheus_text(answer.read().decode())
                stats = request("stats")["result"]
        finally:
            handle.stop()

        predictions = stats["predictions"]
        persistence = stats["persistence"]
        expected = {
            "repro_service_requests_total": stats["requests"],
            "repro_service_errors_total": stats["errors"],
            "repro_service_connections": stats["connections"],
            "repro_service_predictions_total": predictions["scored"],
            "repro_service_predictions_correct_total":
                predictions["correct"],
            "repro_service_predictions_confident_total":
                predictions["confident_scored"],
            "repro_service_predictions_confident_correct_total":
                predictions["confident_correct"],
            "repro_service_checkpoint_failures_total":
                stats["checkpoint_failures"],
            "repro_service_sessions": stats["live"],
            "repro_persistence_hydrates_total": persistence["hydrated"],
            "repro_persistence_cold_sessions": persistence["cold"],
            "repro_persistence_journal_records_total":
                persistence["journal_records"],
            "repro_persistence_journal_bytes_total":
                persistence["journal_bytes"],
            "repro_persistence_unsynced_records":
                persistence["journal_unsynced"],
            "repro_persistence_checkpoints_written_total":
                persistence["checkpoints_written"],
            "repro_persistence_checkpoints_corrupt_total":
                checkpoints.corrupt_dropped,
            "repro_persistence_checkpoint_read_errors_total":
                checkpoints.read_errors,
        }
        assert {name: series[name] for name in expected} == expected
        assert 0 < series["repro_service_uptime_seconds"] <= (
            stats["uptime_seconds"]
        )
        # The run moved what it set out to move.
        # Every request before the stats one, plus the bad line.
        assert stats["requests"] == len(sent)
        assert stats["errors"] == 2 and stats["connections"] == 1
        assert predictions["correct"] > 0
        assert persistence["hydrated"] == persistence["cold"] == 1
        assert persistence["checkpoints_written"] == 3
        assert checkpoints.corrupt_dropped == 1


class TestDiagnostics:
    def test_shape_reflects_live_state(self, base):
        call(base, "POST", "/v1/sessions",
             {"session": "d", "interval_instructions": INTERVAL})
        for pcs, counts in branch_batches(seed=9, batches=8):
            call(base, "POST", "/v1/sessions/d/observe-batch",
                 {"pcs": pcs, "counts": counts})
        status, diag = call(base, "GET", "/v1/diagnostics")
        assert status == 200
        assert diag["draining"] is False
        assert diag["uptime_seconds"] > 0
        assert sum(diag["phase_occupancy"].values()) == 1
        prediction = diag["prediction"]
        assert prediction["scored"] >= 0
        assert set(prediction) >= {
            "scored", "correct", "accuracy",
            "confident_scored", "confident_correct", "confident_accuracy",
        }
        assert diag["ingest_queue_depth"] >= 0
        assert diag["registry"]["live"] == 1


class TestEventsStream:
    def read_sse_events(self, host, port, limit, path="/v1/events",
                        timeout=10.0):
        sock = socket.create_connection((host, port), timeout=timeout)
        events = []
        try:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            buffer = b""
            deadline = time.time() + timeout
            while len(events) < limit and time.time() < deadline:
                try:
                    chunk = sock.recv(4096)
                except socket.timeout:
                    break
                if not chunk:
                    break
                buffer += chunk
                while b"\n\n" in buffer and len(events) < limit:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    name, data = None, None
                    for line in frame.splitlines():
                        if line.startswith(b"event: "):
                            name = line[7:].decode()
                        elif line.startswith(b"data: "):
                            data = json.loads(line[6:])
                    if data is not None:
                        events.append((name, data))
        finally:
            sock.close()
        return events

    def test_subscriber_receives_interval_events(self, service, base):
        import threading

        call(base, "POST", "/v1/sessions",
             {"session": "sse", "interval_instructions": INTERVAL})
        host = service.service.http_host
        port = service.service.http_port

        def feed():
            for pcs, counts in branch_batches(seed=2, batches=6):
                call(base, "POST", "/v1/sessions/sse/observe-batch",
                     {"pcs": pcs, "counts": counts})
                time.sleep(0.05)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        events = self.read_sse_events(
            host, port, limit=3, path="/v1/events?types=interval"
        )
        feeder.join()
        assert len(events) == 3
        for name, data in events:
            assert name == "interval"
            assert data["session"] == "sse"
            assert "phase_id" in data and "interval_index" in data
            assert "seq" in data and "ts" in data

    def test_type_filter_excludes_other_events(self, service, base):
        # Opening sessions emits session_open events; an interval-only
        # subscriber must never see them.
        import threading

        host = service.service.http_host
        port = service.service.http_port
        collected = []

        def subscribe():
            collected.extend(self.read_sse_events(
                host, port, limit=1,
                path="/v1/events?types=interval", timeout=4.0,
            ))

        subscriber = threading.Thread(target=subscribe, daemon=True)
        subscriber.start()
        time.sleep(0.3)
        call(base, "POST", "/v1/sessions", {"session": "noise"})
        call(base, "DELETE", "/v1/sessions/noise")
        subscriber.join()
        assert collected == []

    def test_subscriber_gauge_returns_to_zero_after_disconnect(
        self, service, base
    ):
        self.read_sse_events(
            service.service.http_host, service.service.http_port,
            limit=1, timeout=1.0,
        )
        deadline = time.time() + 5
        while time.time() < deadline:
            with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                samples = parse_prometheus_text(r.read().decode())
            if samples.get("repro_http_sse_subscribers") == 0:
                return
            time.sleep(0.1)
        pytest.fail("SSE subscriber gauge never returned to zero")


class TestDrain:
    def test_drain_flips_readyz_and_refuses_mutations(self):
        handle = start_in_thread(max_sessions=4, http_port=0)
        try:
            base = (
                f"http://{handle.service.http_host}"
                f":{handle.service.http_port}"
            )
            status, body = call(base, "POST", "/v1/drain", {"grace": 5.0})
            assert status == 200 and body["draining"] is True

            status, body = call(base, "GET", "/readyz")
            assert status == 503
            assert body == {"ready": False, "reason": "draining"}

            # Liveness stays green; mutating routes get a typed refusal.
            status, health = call(base, "GET", "/healthz")
            assert status == 200 and health["draining"] is True
            status, body = call(base, "POST", "/v1/sessions",
                                {"session": "late"})
            assert status == 503
            assert body["error"]["code"] == "shutting_down"
        finally:
            handle.stop()

    @pytest.mark.parametrize("grace", [
        float("inf"), float("nan"), float("-inf"), -1, -0.5, 10 ** 400,
        True, "1",
    ], ids=["inf", "nan", "-inf", "-1", "-0.5", "10**400", "true", "str"])
    def test_unusable_grace_is_refused_before_draining(self, base, grace):
        status, body = call(base, "POST", "/v1/drain", {"grace": grace})
        assert status == 400, body
        assert "grace" in body["error"]["message"]
        status, body = call(base, "GET", "/readyz")
        assert status == 200 and body == {"ready": True}
