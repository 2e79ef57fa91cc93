"""The cluster-aware HTTP gateway: /v1/cluster (topology + control
actions), cluster-wide /healthz and /v1/diagnostics, and the labeled
per-worker Prometheus gauges."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.cluster import start_cluster_in_thread
from repro.service import PhaseServiceClient
from repro.telemetry import parse_prometheus_text


def call(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method
    )
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cluster-gw")
    handle = start_cluster_in_thread(
        port=0, workers=2, runtime_dir=str(tmp / "rt"), num_shards=8,
        http_port=0,
    )
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def base(cluster):
    dispatcher = cluster.service
    return f"http://{dispatcher.http_host}:{dispatcher.http_port}"


class TestClusterEndpoints:
    def test_healthz_lists_workers(self, base):
        status, body = call(base, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["workers"].values()) == {"up"}

    def test_v1_cluster_topology(self, base, cluster):
        status, body = call(base, "GET", "/v1/cluster")
        assert status == 200
        assert set(body["workers"]) == set(
            cluster.service.shard_map.workers
        )
        assert (
            sum(body["shard_map"]["occupancy"].values())
            == body["shard_map"]["num_shards"]
        )

    def test_post_migrate_moves_a_session(self, base, cluster):
        dispatcher = cluster.service
        with PhaseServiceClient(port=cluster.port, timeout=30.0) as c:
            c.open_session(session="gw-mig", interval_instructions=5000)
            source = dispatcher._sessions["gw-mig"]
            target = next(
                worker
                for worker in dispatcher.shard_map.workers
                if worker != source
            )
            status, body = call(
                base, "POST", "/v1/cluster",
                {"action": "migrate",
                 "params": {"session": "gw-mig", "worker": target}},
            )
            assert status == 200
            assert body["migrated"] is True
            assert dispatcher._sessions["gw-mig"] == target
            c.close_session("gw-mig")

    def test_post_bad_action_maps_to_503(self, base):
        status, body = call(
            base, "POST", "/v1/cluster", {"action": "no-such-action"}
        )
        assert status == 503
        assert "unknown cluster action" in body["error"]["message"]

    @pytest.mark.parametrize("body", [
        {},
        {"action": ""},
        {"action": 5},
        {"action": "status", "params": []},
    ])
    def test_malformed_actions_refused_on_both_surfaces(
        self, base, cluster, body
    ):
        """One validator: HTTP answers 400, NDJSON the protocol code."""
        status, answer = call(base, "POST", "/v1/cluster", body)
        assert status == 400, answer
        line = json.dumps(dict(body, op="cluster", id=7)).encode() + b"\n"
        with socket.create_connection(
            ("127.0.0.1", cluster.port), timeout=10
        ) as sock:
            sock.sendall(line)
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["id"] == 7 and reply["ok"] is False
        assert reply["error"]["code"] == "protocol", reply

    def test_metrics_have_labeled_worker_gauges(self, base, cluster):
        with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
            text = r.read().decode()
        assert "repro_cluster_workers 2" in text
        for worker in cluster.service.shard_map.workers:
            assert f'repro_cluster_worker_up{{worker="{worker}"}} 1' in text
            assert f'repro_cluster_worker_shards{{worker="{worker}"}}' in text

    def test_cluster_series_read_what_status_reports(self, base, cluster):
        dispatcher = cluster.service
        with PhaseServiceClient(port=cluster.port, timeout=30.0) as c:
            names = ("st-a", "st-b", "st-c")
            for name in names:
                c.open_session(session=name, interval_instructions=5000)
            source = dispatcher._sessions["st-a"]
            target = next(
                worker
                for worker in dispatcher.shard_map.workers
                if worker != source
            )
            c.cluster("migrate", session="st-a", worker=target)
            with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                series = parse_prometheus_text(r.read().decode())
            status = c.cluster("status")
            for name in names:
                c.close_session(name)
        expected = {
            "repro_cluster_workers": len(status["shard_map"]["workers"]),
            "repro_cluster_migrations_total":
                status["migrations"]["completed"],
            "repro_cluster_migrations_failed_total":
                status["migrations"]["failed"],
        }
        for worker_id, worker in status["workers"].items():
            labels = f'{{worker="{worker_id}"}}'
            expected.update({
                "repro_cluster_worker_up" + labels:
                    float(worker["state"] == "up"),
                "repro_cluster_worker_sessions" + labels: worker["sessions"],
                "repro_cluster_worker_shards" + labels: worker["shards"],
                "repro_cluster_worker_restarts_total" + labels:
                    worker["restarts"],
            })
        assert {key: series[key] for key in expected} == expected
        assert status["migrations"]["completed"] >= 1
        assert status["workers"][target]["sessions"] >= 1

    def test_diagnostics_have_cluster_section(self, base):
        status, body = call(base, "GET", "/v1/diagnostics")
        assert status == 200
        assert "registry" in body
        assert len(body["cluster"]["workers"]) == 2

    def test_dashboard_has_worker_panel(self, base):
        with urllib.request.urlopen(base + "/", timeout=10) as response:
            html = response.read().decode()
        assert "cluster-panel" in html
        assert "drawCluster" in html
