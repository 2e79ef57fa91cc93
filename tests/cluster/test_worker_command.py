"""A worker's options come from the dispatcher, through the command
line that ``repro.cluster.worker`` builds and parses. No process is
started here."""

import os
import sys

import pytest

from repro.cluster import ClusterDispatcher
from repro.cluster.worker import build_arg_parser
from repro.service.server import PhaseService


def test_dispatcher_options_reach_the_worker_service(tmp_path):
    runtime_dir, data_root = tmp_path / "rt", tmp_path / "data"
    dispatcher = ClusterDispatcher(
        workers=1,
        runtime_dir=str(runtime_dir),
        data_root=str(data_root),
        worker_max_sessions=77,
        sync="always",
        checkpoint_interval=4.5,
        idle_ttl=90.0,
        queue_size=5,
        max_connections=12,
    )
    argv = dispatcher.supervisor.command("w3")
    assert argv[:3] == [sys.executable, "-m", "repro.cluster.worker"]

    args = build_arg_parser().parse_args(argv[3:])
    assert args.worker_id == "w3"
    assert args.parent_pid == os.getpid()
    assert args.service == {
        "max_sessions": 77,
        "sync": "always",
        "checkpoint_interval": 4.5,
        "idle_ttl": 90.0,
        "queue_size": 5,
        "max_connections": 12 + 8,
        "uds_path": str(runtime_dir / "w3.sock"),
        "data_dir": str(data_root / "w3"),
    }

    service = PhaseService(**args.service)
    try:
        assert service.registry.max_sessions == 77
        assert service.registry.idle_ttl == 90.0
        assert service.checkpoint_interval == 4.5
        assert service.queue_size == 5
        assert service.max_connections == 20
        assert service.uds_path == str(runtime_dir / "w3.sock")
        assert service.persistence.root == data_root / "w3"
        assert service.persistence.journal.sync_mode == "always"
    finally:
        service.persistence.close()


@pytest.mark.parametrize("service", ["{}", "[1]", "not json"])
def test_the_worker_refuses_a_service_value_without_a_socket(service):
    with pytest.raises(SystemExit) as exit_info:
        build_arg_parser().parse_args(
            ["--worker-id", "w0", "--service", service]
        )
    assert exit_info.value.code == 2
