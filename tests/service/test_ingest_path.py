"""The one ingest path under pipelined multi-connection load.

Every observe is classified by its session's scalar ``PhaseTracker``
inline on the connection's worker loop. These tests pipeline whole
request streams down several connections at once and hold the service
to the protocol contract: pushes precede their observe's ack,
responses come back in request order, a pipelined snapshot sees all
earlier ingest, and every session's pushed reports equal a local
scalar ``PhaseTracker`` replay of the same stream — including sessions
churned through evict-to-disk and hydrate, and foreign configurations.
"""

import json
import socket

import numpy as np
import pytest

from repro.core import PhaseTracker
from repro.service.server import start_in_thread
from repro.service.session import build_config
from repro.service.snapshot import snapshot_tracker

BASE = 0x40000
INTERVAL = 2_000


def observe_plan(seed, observes, records=60, spread=24):
    """Deterministic per-session observe payloads: (pcs, counts, cpi)."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(observes):
        base = BASE + (0x9000 if (index // 5) % 2 else 0)
        pcs = (base + rng.integers(0, spread, size=records) * 4).tolist()
        counts = rng.integers(10, 60, size=records).tolist()
        out.append((pcs, counts, 1.0 + 0.2 * (index % 4)))
    return out


def connection_requests(session, seed, observes, config=None):
    """The full pipelined request list for one connection."""
    requests = [{
        "op": "open", "id": 1, "session": session,
        "interval_instructions": INTERVAL,
    }]
    if config is not None:
        requests[0]["config"] = config
    for index, (pcs, counts, cpi) in enumerate(
        observe_plan(seed, observes)
    ):
        requests.append({
            "op": "observe", "id": 2 + index, "session": session,
            "pcs": pcs, "counts": counts, "cpi": cpi,
        })
    requests.append({
        "op": "close", "id": 2 + observes, "session": session,
    })
    return requests


def drive(port, plans):
    """Pipeline each plan's requests down its own connection — all
    connections' writes land before any reads — then read each stream
    until every request is answered. Returns the decoded messages per
    connection.

    A worker executes whatever its queue holds in one cycle, so the
    callers pass a small ``queue_size``: each connection then runs a
    few requests per cycle and the connections genuinely interleave.
    """
    socks = []
    for requests in plans:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        payload = b"".join(
            json.dumps(request).encode() + b"\n" for request in requests
        )
        sock.sendall(payload)
        socks.append(sock)
    streams = []
    for sock, requests in zip(socks, plans):
        reader = sock.makefile("rb")
        messages = []
        answered = 0
        while answered < len(requests):
            line = reader.readline()
            assert line, "connection closed before all responses"
            message = json.loads(line)
            messages.append(message)
            if "id" in message:
                answered += 1
        reader.close()
        sock.close()
        streams.append(messages)
    return streams


def replay(plan):
    """A local scalar tracker fed the plan's observes: the expected
    pushed reports, JSON-normalized like the wire form."""
    opened = plan[0]
    tracker = PhaseTracker(
        build_config(opened.get("config")),
        interval_instructions=opened["interval_instructions"],
    )
    reports = []
    for request in plan:
        if request["op"] == "observe":
            reports += [
                report.to_dict()
                for report in tracker.observe_batch(
                    request["pcs"], request["counts"], cpi=request["cpi"]
                )
            ]
    return json.loads(json.dumps(reports))


def pushed_reports(messages):
    return [
        message["report"] for message in messages
        if message.get("push") == "interval"
    ]


class TestOrdering:
    def test_pushes_precede_acks_in_request_order(self):
        plans = [
            connection_requests(f"o{index}", seed=40 + index, observes=12)
            for index in range(5)
        ]
        with start_in_thread(max_sessions=8, queue_size=2) as handle:
            streams = drive(handle.port, plans)
        for messages, plan in zip(streams, plans):
            session = plan[0]["session"]
            op_by_id = {request["id"]: request["op"] for request in plan}
            expected_ids = [request["id"] for request in plan]
            seen_ids = []
            pushes_since_ack = 0
            for message in messages:
                if "push" in message:
                    assert message["push"] == "interval"
                    assert message["session"] == session
                    pushes_since_ack += 1
                    continue
                seen_ids.append(message["id"])
                assert message["ok"] is True
                if op_by_id[message["id"]] == "observe":
                    # An observe's pushes all precede its ack, and the
                    # ack counts exactly those pushes.
                    assert (
                        message["result"]["intervals"] == pushes_since_ack
                    )
                else:
                    # open/close acks never have stray pushes pending.
                    assert pushes_since_ack == 0
                pushes_since_ack = 0
            assert seen_ids == expected_ids
            reports = pushed_reports(messages)
            assert reports and reports == replay(plan)

    def test_snapshot_mid_stream_sees_earlier_ingest(self):
        # A snapshot pipelined behind four observes must capture exactly
        # those four: its tracker state equals a local scalar replay of
        # the same prefix.
        session = "barrier"
        plan = connection_requests(session, seed=50, observes=8)
        plan = plan[:5] + [
            {"op": "snapshot", "id": 100, "session": session}
        ] + plan[5:]
        with start_in_thread(max_sessions=4) as handle:
            (messages,) = drive(handle.port, [plan])
        snapshot = next(
            message for message in messages if message.get("id") == 100
        )
        assert snapshot["ok"] is True
        local = PhaseTracker(
            build_config(None), interval_instructions=INTERVAL
        )
        for request in plan[1:5]:
            local.observe_batch(
                request["pcs"], request["counts"], cpi=request["cpi"]
            )
        expected = json.loads(json.dumps(snapshot_tracker(local)))
        assert snapshot["result"]["snapshot"] == expected
        assert pushed_reports(messages) == replay(plan)


class TestScalarReplay:
    def test_evict_hydrate_churn_matches_scalar_replay(self, tmp_path):
        # 8 pipelined sessions through a 3-session table: requests
        # interleave with evict-to-disk and hydrate on nearly every
        # lookup, and each session's reports must still equal an
        # uninterrupted local scalar tracker. All 8 opens are answered
        # before any observe is sent, so the fourth open evicts and the
        # first observe on an evicted session hydrates, however the
        # server interleaves the connections.
        plans = [
            connection_requests(f"d{index}", seed=10 + index, observes=10)
            for index in range(8)
        ]
        with start_in_thread(
            max_sessions=3, queue_size=2, data_dir=str(tmp_path / "data"),
        ) as handle:
            opened = drive(handle.port, [plan[:1] for plan in plans])
            rest = drive(handle.port, [plan[1:] for plan in plans])
            streams = [acks + more for acks, more in zip(opened, rest)]
            stats = handle.service.registry.stats()
        assert stats["evicted_saved"] > 0 and stats["hydrated"] > 0
        for messages, plan in zip(streams, plans):
            assert all(
                message["ok"] for message in messages if "id" in message
            )
            reports = pushed_reports(messages)
            assert reports and reports == replay(plan)

    @pytest.mark.parametrize("config", [
        {"num_counters": 8, "table_entries": 16},
        {"table_entries": None},
        {"match_policy": "first", "bit_selector": "static",
         "static_low_bit": 2, "perf_dev_threshold": 0.5},
    ], ids=["small-table", "unbounded-table", "first-match-static"])
    def test_foreign_configs_match_scalar_replay(self, config):
        # Wire-supplied configurations, mixed with default-config
        # sessions on concurrent connections.
        plans = [
            connection_requests(
                f"m{index}", seed=20 + index, observes=10,
                config=config if index % 2 else None,
            )
            for index in range(4)
        ]
        with start_in_thread(max_sessions=8, queue_size=2) as handle:
            streams = drive(handle.port, plans)
        for messages, plan in zip(streams, plans):
            reports = pushed_reports(messages)
            assert reports and reports == replay(plan)


def test_diagnostics_have_no_coalesce_or_pool_section():
    with start_in_thread(max_sessions=4) as handle:
        diagnostics = handle.service.diagnostics()
    assert "coalesce" not in diagnostics
    assert "pool" not in diagnostics


@pytest.mark.parametrize("option", [
    ["--pool-slots", "8"], ["--coalesce"], ["--no-coalesce"],
    ["--coalesce-window", "0.05"],
])
def test_removed_ingest_options_are_refused(option, capsys):
    from repro.cluster.worker import build_arg_parser
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as serve_exit:
        main(["serve", "--port", "0", *option])
    assert serve_exit.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as worker_exit:
        build_arg_parser().parse_args([
            "--worker-id", "w0", "--service", '{"uds_path": "w0.sock"}',
            *option,
        ])
    assert worker_exit.value.code == 2
