"""Cluster worker entry point: ``python -m repro.cluster.worker``.

A worker is a complete :class:`~repro.service.server.PhaseService`
(persistence-capable) listening on a Unix domain socket
instead of TCP. The dispatcher is its only client, so the socket lives
in the cluster's private runtime directory and ``max_connections`` is
sized for the dispatcher's per-client channels, not the public
internet.

This module owns the worker's command line: :func:`command` builds it
and :func:`build_arg_parser` parses it. Its three arguments are the
worker id, the parent pid, and ``--service``, one JSON object of
:class:`~repro.service.server.PhaseService` keyword arguments (the
socket path and data dir among them) that :func:`main` passes to the
constructor unchanged.

The process contract with :class:`~repro.cluster.supervisor.ClusterSupervisor`:

- construction recovers any persisted sessions from the data dir
  *before* binding, so the READY line implies recovery is complete;
- ``CLUSTER-WORKER READY <path>`` is printed to stdout (and flushed)
  once the socket is accepting;
- SIGTERM/SIGINT trigger a graceful drain (queued frames execute,
  final checkpoint, sockets close) — the supervisor's stop path;
- when ``--parent-pid`` is given, a watchdog exits the worker once the
  parent dies, so a killed dispatcher never leaks worker processes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Dict, List, Optional

from repro.service.server import PhaseService

#: Stdout banner the supervisor waits for; the socket path follows.
READY_BANNER = "CLUSTER-WORKER READY"

#: How often the orphan watchdog checks that the parent is alive.
_PARENT_POLL_SECONDS = 1.0


def command(
    worker_id: str, parent_pid: int, service: Dict[str, object]
) -> List[str]:
    """The command line that launches one worker: ``service`` holds its
    :class:`PhaseService` keyword arguments, ``uds_path`` included."""
    return [
        sys.executable, "-m", "repro.cluster.worker",
        "--worker-id", worker_id,
        "--parent-pid", str(parent_pid),
        "--service", json.dumps(service, sort_keys=True),
    ]


def _service_options(text: str) -> dict:
    try:
        options = json.loads(text)
    except json.JSONDecodeError as error:
        raise argparse.ArgumentTypeError(f"not JSON: {error}") from None
    if not isinstance(options, dict) or "uds_path" not in options:
        raise argparse.ArgumentTypeError(
            "must be a JSON object with a 'uds_path'"
        )
    return options


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description=(
            "Run one cluster worker: a full PhaseService on a Unix "
            "domain socket, supervised by a cluster dispatcher."
        ),
    )
    parser.add_argument("--worker-id", required=True,
                        help="stable worker id for logs and telemetry")
    parser.add_argument("--parent-pid", type=int, default=None,
                        help="exit when this pid is gone (orphan guard)")
    parser.add_argument("--service", type=_service_options, required=True,
                        metavar="JSON",
                        help="PhaseService keyword arguments as a JSON "
                        "object, including uds_path (and data_dir)")
    return parser


async def _watch_parent(parent_pid: int, service: PhaseService) -> None:
    """Drain and exit once the parent process disappears."""
    while True:
        await asyncio.sleep(_PARENT_POLL_SECONDS)
        if os.getppid() != parent_pid:
            # Reparented to init: the dispatcher/supervisor died
            # without stopping us. Drain so persisted sessions get a
            # final checkpoint, then exit.
            await service.shutdown()
            return


async def run_worker(args: argparse.Namespace) -> int:
    service = PhaseService(**args.service)
    await service.start()
    print(f"{READY_BANNER} {service.uds_path}", flush=True)
    if service.sessions_recovered:
        print(
            f"worker {args.worker_id}: recovered "
            f"{service.sessions_recovered} session(s) from "
            f"{args.service.get('data_dir')}",
            flush=True,
        )

    service.drain_on_signals()
    watchdog: Optional[asyncio.Task] = None
    if args.parent_pid is not None:
        watchdog = asyncio.ensure_future(
            _watch_parent(args.parent_pid, service)
        )
    try:
        await service.serve_forever()
    finally:
        if watchdog is not None:
            watchdog.cancel()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return asyncio.run(run_worker(args))
    except KeyboardInterrupt:  # pragma: no cover - signal path
        return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
