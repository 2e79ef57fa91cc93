"""The serving tier's settable surface, pinned.

Every constructor parameter and command-line option of the service,
the cluster and the thread handle is listed here, so adding or
removing a knob takes a visible edit to this file. Timings that no
caller varies are named constants instead (DESIGN.md §10).
"""

import inspect

from repro.cluster import ClusterDispatcher, ClusterSupervisor
from repro.cluster.worker import build_arg_parser
from repro.harness.cli import build_serve_parser
from repro.service.server import PhaseService, ServiceHandle

SURFACE = {
    "PhaseService": [
        "host", "port", "max_sessions", "idle_ttl", "evict_lru",
        "max_connections", "queue_size", "telemetry", "data_dir",
        "checkpoint_interval", "sync", "uds_path", "http_host", "http_port",
    ],
    "ClusterDispatcher": [
        "host", "port", "workers", "runtime_dir", "data_root", "num_shards",
        "queue_size", "max_connections", "telemetry", "http_host",
        "http_port", "worker_max_sessions", "sync", "checkpoint_interval",
        "idle_ttl",
    ],
    "ServiceHandle": ["service"],
    "ServiceHandle.start": [],
    "ServiceHandle.stop": [],
    "ClusterSupervisor": ["runtime_dir", "data_root", "service", "telemetry"],
    "serve": [
        "--host", "--port", "--max-sessions", "--idle-ttl", "--no-evict",
        "--max-connections", "--queue-size", "--data-dir",
        "--checkpoint-interval", "--sync", "--http-port", "--http-host",
        "--metrics", "--events", "--workers", "--runtime-dir",
        "--num-shards",
    ],
    "worker": ["--worker-id", "--parent-pid", "--service"],
}


def _parameters(function):
    return [
        name for name in inspect.signature(function).parameters
        if name != "self"
    ]


def _options(parser):
    return [
        option
        for action in parser._actions if action.dest != "help"
        for option in action.option_strings
    ]


def test_the_settable_surface_is_pinned():
    actual = {
        "PhaseService": _parameters(PhaseService),
        "ClusterDispatcher": _parameters(ClusterDispatcher),
        "ServiceHandle": _parameters(ServiceHandle),
        "ServiceHandle.start": _parameters(ServiceHandle.start),
        "ServiceHandle.stop": _parameters(ServiceHandle.stop),
        "ClusterSupervisor": _parameters(ClusterSupervisor),
        "serve": _options(build_serve_parser()),
        "worker": _options(build_arg_parser()),
    }
    assert actual == SURFACE
    assert sum(len(names) for names in actual.values()) == 54
