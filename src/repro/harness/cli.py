"""Command-line entry point: ``repro-phases``.

Regenerates the paper's tables and figures as plain-text tables::

    repro-phases                     # every experiment at full scale
    repro-phases fig4 fig8           # a subset
    repro-phases --scale 0.25 fig2   # quarter-length runs (fast)
    repro-phases --jobs 4 fig4       # compute the work grid in parallel
    repro-phases --list              # show available experiments

Work units (traces and classification runs) are computed through the
:mod:`repro.harness.engine` and persisted in a content-addressed
on-disk store, so repeat runs start warm (disable with ``--no-store``;
inspect with ``repro-phases cache stats``). It also hosts the
streaming classification service::

    repro-phases serve --port 9137   # NDJSON phase service (Ctrl-C drains)
    repro-phases serve --workers 4   # sharded multi-process cluster
    repro-phases cluster status      # inspect a running cluster
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional, Sequence


def _scale(text: str) -> float:
    """``--scale``: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}"
        )
    return value


def _jobs(text: str) -> int:
    """``--jobs``: a worker count of at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}"
        )
    return value


def _output_path(text: str) -> str:
    """``--json``, ``--metrics``, ``--events``: a file that can be
    opened for writing, checked when the command line is parsed so a
    bad path is refused before any work runs. The check leaves no file
    behind."""
    existed = os.path.lexists(text)
    try:
        with open(text, "a", encoding="utf-8"):
            pass
    except OSError as error:
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: {error.strerror}"
        ) from None
    if not existed:
        os.unlink(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-phases",
        description=(
            "Reproduce the tables/figures of 'Transition Phase "
            "Classification and Prediction' (HPCA 2005)."
        ),
        epilog=(
            "Use 'repro-phases serve --help' for the streaming "
            "phase-classification service and 'repro-phases cache "
            "--help' for the on-disk result store."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="benchmark run-length multiplier (default 1.0)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiments and exit",
    )
    parser.add_argument(
        "--benchmarks",
        action="store_true",
        help="list the synthetic benchmark models and exit",
    )
    parser.add_argument(
        "--classify",
        metavar="BENCHMARK",
        default=None,
        help="classify one benchmark model and print its phase report "
        "(profiles, timeline, prediction summary) instead of running "
        "experiments",
    )
    parser.add_argument(
        "--json",
        type=_output_path,
        metavar="PATH",
        default=None,
        help="also write each experiment's raw data as JSON to PATH "
        "(one object keyed by experiment name)",
    )
    parser.add_argument(
        "--metrics",
        type=_output_path,
        metavar="PATH",
        default=None,
        help="write a telemetry metrics snapshot to PATH after the run "
        "(Prometheus text format; a .json extension selects the JSON "
        "exporter)",
    )
    parser.add_argument(
        "--events",
        type=_output_path,
        metavar="PATH",
        default=None,
        help="stream structured JSONL telemetry events to PATH during "
        "the run",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        metavar="N",
        help="worker processes for the experiment work grid (default: "
        "all cores; 1 computes in-process)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="on-disk result store location (default: "
        "$REPRO_PHASES_STORE, else ~/.cache/repro-phases/store)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the on-disk result store",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(list(argv[1:]))
    if argv and argv[0] == "cache":
        return _cache_main(list(argv[1:]))
    if argv and argv[0] == "cluster":
        return _cluster_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    # Imported here, not at module level: ``serve`` must not load the
    # experiment stack (DESIGN §14).
    from repro.harness.experiment import experiment_names, run_experiment

    available = experiment_names()
    if args.list:
        for name in available:
            print(name)
        return 0
    if args.benchmarks:
        from repro.workloads.spec2000 import BENCHMARK_NAMES, spec

        for name in BENCHMARK_NAMES:
            descriptor = spec(name)
            print(f"{name:8s} ~{descriptor.nominal_intervals:5d} intervals"
                  f"  {descriptor.description}")
        return 0

    telemetry = _build_telemetry(args)
    store = _build_store(args)
    if store is not None:
        from repro.harness.cache import set_result_store

        set_result_store(store)
    try:
        if args.classify is not None:
            return _classify_report(args.classify, args.scale, telemetry)

        requested: List[str] = args.experiments or available
        unknown = [name for name in requested if name not in available]
        if unknown:
            print(
                f"unknown experiment(s): {', '.join(unknown)}; "
                f"available: {', '.join(available)}",
                file=sys.stderr,
            )
            return 2

        # Compute the deduplicated work grid of every requested
        # experiment up front — in parallel and/or from the store —
        # so the bodies below run against warm caches.
        from repro.harness.engine import ExperimentEngine
        from repro.harness.experiment import experiment_work_units

        units = experiment_work_units(requested, scale=args.scale)
        if units:
            engine = ExperimentEngine(
                jobs=args.jobs, telemetry=telemetry
            )
            report = engine.ensure(units)
            print(f"[engine: {report.summary()}]\n")

        collected = {}
        for name in requested:
            start = time.time()
            result = run_experiment(
                name, scale=args.scale, telemetry=telemetry
            )
            print(result.rendered)
            print(f"[{name} completed in {time.time() - start:.1f}s]\n")
            collected[name] = {"title": result.title, "data": result.data}

        if args.json is not None:
            import json

            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(collected, handle, indent=2, default=float)
            print(f"[raw data written to {args.json}]")
        return 0
    finally:
        if store is not None:
            from repro.harness.cache import set_result_store

            set_result_store(None)
        _finalize_telemetry(args, telemetry)


def _build_store(args):
    """The on-disk result store (default on; ``--no-store`` opts out)."""
    if args.no_store:
        return None
    from repro.harness.store import ResultStore

    return ResultStore(root=args.store)


def _cache_main(argv: List[str]) -> int:
    """The ``repro-phases cache`` subcommand: inspect or empty the
    on-disk result store."""
    parser = argparse.ArgumentParser(
        prog="repro-phases cache",
        description=(
            "Inspect or empty the content-addressed on-disk result "
            "store backing the experiment engine."
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "clear"),
        help="'stats' prints entry/byte counts; 'clear' deletes every "
        "entry",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="store location (default: $REPRO_PHASES_STORE, else "
        "~/.cache/repro-phases/store)",
    )
    args = parser.parse_args(argv)

    from repro.harness.store import ResultStore

    store = ResultStore(root=args.store)
    if args.action == "stats":
        print(store.stats().render())
    else:
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    return 0


def _build_telemetry(args):
    """Build the run's telemetry hub when --metrics/--events ask for one."""
    if args.metrics is None and args.events is None:
        return None
    from repro.harness.cache import set_cache_telemetry
    from repro.telemetry import Telemetry

    telemetry = Telemetry.to_files(
        metrics_path=args.metrics, events_path=args.events
    )
    set_cache_telemetry(telemetry)
    telemetry.emit(
        "run_start",
        experiments=list(args.experiments),
        scale=args.scale,
        classify=args.classify,
    )
    return telemetry


def _finalize_telemetry(args, telemetry) -> None:
    if telemetry is None:
        return
    from repro.harness.cache import set_cache_telemetry

    set_cache_telemetry(None)
    telemetry.emit("run_end")
    telemetry.close()
    if args.metrics is not None:
        print(f"[metrics written to {args.metrics}]")
    if args.events is not None:
        print(f"[events written to {args.events}]")


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro-phases serve`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro-phases serve",
        description=(
            "Host the streaming phase-classification service: NDJSON "
            "over TCP, many concurrent tracker sessions, snapshots, "
            "and backpressure. Ctrl-C drains in-flight work before "
            "exiting."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=9137,
        help="TCP port (0 picks a free one; default 9137)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=64,
        help="live tracker-session cap (default 64)",
    )
    parser.add_argument(
        "--idle-ttl", type=float, default=None,
        help="drop sessions idle for this many seconds (default: never)",
    )
    parser.add_argument(
        "--no-evict", action="store_true",
        help="refuse opens when full instead of evicting the LRU session "
        "(one process only; refused with --workers)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="concurrent client-connection cap (default 64)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=32,
        help="per-connection ingest queue depth — the backpressure "
        "bound (default 32)",
    )
    parser.add_argument(
        "--data-dir", metavar="PATH", default=None,
        help="enable the durable session tier rooted at PATH: "
        "evicted/expired sessions checkpoint to disk and hydrate on "
        "demand, and a restart (even after kill -9) recovers the "
        "registry from checkpoints + journal replay",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=30.0,
        metavar="SECONDS",
        help="seconds between checkpoint+compact sweeps of dirty "
        "sessions (default 30; needs --data-dir)",
    )
    parser.add_argument(
        "--sync", choices=("none", "batch", "always"), default="batch",
        help="journal durability: 'none' buffers in-process, 'batch' "
        "flushes every record and fsyncs in batches (default), "
        "'always' fsyncs every record (needs --data-dir)",
    )
    parser.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also run the HTTP operations gateway on PORT (0 picks a "
        "free one): /healthz, /readyz, /metrics (Prometheus), a JSON "
        "session API, /v1/events (SSE), and the live dashboard at / "
        "(default: no gateway)",
    )
    parser.add_argument(
        "--http-host", default=None, metavar="HOST",
        help="bind address for the HTTP gateway (default: --host)",
    )
    parser.add_argument(
        "--metrics", type=_output_path, metavar="PATH", default=None,
        help="write a telemetry metrics snapshot to PATH at exit",
    )
    parser.add_argument(
        "--events", type=_output_path, metavar="PATH", default=None,
        help="stream JSONL telemetry events to PATH while serving",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run as a sharded cluster: a dispatcher on --port plus N "
        "supervised worker processes (each a full phase service on a "
        "Unix socket), sessions consistent-hashed across them, live "
        "migration via 'repro-phases cluster' (default: one process)",
    )
    parser.add_argument(
        "--runtime-dir", metavar="PATH", default=None,
        help="cluster sockets + worker logs directory (default: a "
        "fresh temp dir; needs --workers)",
    )
    return parser


def _serve_main(argv: List[str]) -> int:
    """The ``repro-phases serve`` subcommand: run the NDJSON phase
    service until SIGINT/SIGTERM, then drain gracefully."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.no_evict:
        # Cluster workers always evict the LRU session; without a data
        # dir that destroys the session the operator asked to keep.
        parser.error("--no-evict is not supported with --workers")

    from repro.telemetry import Telemetry

    # The server's hub: --metrics and --events only attach its sinks.
    telemetry = Telemetry.to_files(
        metrics_path=args.metrics, events_path=args.events
    )
    if args.workers is not None:
        return _serve_cluster(args, telemetry)

    from repro.service import PhaseService

    service = PhaseService(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        idle_ttl=args.idle_ttl,
        evict_lru=not args.no_evict,
        max_connections=args.max_connections,
        queue_size=args.queue_size,
        telemetry=telemetry,
        data_dir=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
        sync=args.sync,
        http_host=args.http_host,
        http_port=args.http_port,
    )
    if service.persistence is not None:
        print(
            f"durable sessions at {args.data_dir} (sync={args.sync}): "
            f"recovered {service.sessions_recovered} live, "
            f"{service.persistence.cold_sessions} cold on disk",
            flush=True,
        )

    def banners() -> List[str]:
        lines = [
            f"repro-phases service listening on "
            f"{service.host}:{service.port} "
            f"(max {service.registry.max_sessions} sessions); "
            f"Ctrl-C to drain and exit"
        ]
        if service.http_port is not None:
            lines.append(
                f"http gateway on "
                f"http://{service.http_host}:{service.http_port}/ "
                f"(dashboard; /metrics for Prometheus)"
            )
        return lines

    _serve_until_drained(service, banners)
    print(
        f"service drained cleanly: {service.requests_served} requests, "
        f"{service.registry.sessions_opened} sessions",
        flush=True,
    )
    return 0


def _serve_until_drained(server, banners) -> None:
    """Start ``server``, print ``banners()`` once it is bound, serve
    until SIGINT/SIGTERM has drained it, then close its hub, which
    writes ``--metrics``."""
    import asyncio

    async def _run() -> None:
        await server.start()
        server.drain_on_signals()
        for line in banners():
            print(line, flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        server.telemetry.emit("run_end")
        server.telemetry.close()


def _serve_cluster(args, telemetry) -> int:
    """``repro-phases serve --workers N``: the sharded multi-process
    cluster — dispatcher on ``--port``, N supervised workers."""
    import tempfile

    from repro.cluster import ClusterDispatcher

    runtime_dir = args.runtime_dir or tempfile.mkdtemp(
        prefix="repro-cluster-"
    )
    dispatcher = ClusterDispatcher(
        host=args.host,
        port=args.port,
        workers=args.workers,
        runtime_dir=runtime_dir,
        data_root=args.data_dir,
        queue_size=args.queue_size,
        max_connections=args.max_connections,
        telemetry=telemetry,
        http_host=args.http_host,
        http_port=args.http_port,
        worker_max_sessions=args.max_sessions,
        sync=args.sync,
        checkpoint_interval=args.checkpoint_interval,
        idle_ttl=args.idle_ttl,
    )

    def banners() -> List[str]:
        lines = [
            f"repro-phases cluster listening on "
            f"{dispatcher.host}:{dispatcher.port} "
            f"({len(dispatcher.shard_map)} workers, "
            f"{dispatcher.shard_map.num_shards} shards, "
            f"runtime {runtime_dir}); Ctrl-C to drain and exit"
        ]
        if args.data_dir is not None:
            lines.append(
                f"durable workers under {args.data_dir} "
                f"(sync={args.sync}, per-worker data dirs)"
            )
        if dispatcher.http_port is not None:
            lines.append(
                f"http gateway on "
                f"http://{dispatcher.http_host}:{dispatcher.http_port}/ "
                f"(dashboard; /v1/cluster for topology)"
            )
        return lines

    _serve_until_drained(dispatcher, banners)
    print(
        f"cluster drained cleanly: {dispatcher.requests_served} "
        f"requests, {dispatcher.migrations_completed} migrations",
        flush=True,
    )
    return 0


def _cluster_main(argv: List[str]) -> int:
    """The ``repro-phases cluster`` subcommand: control-plane actions
    against a running cluster dispatcher (or, for ``diagnostics``, any
    phase service)."""
    parser = argparse.ArgumentParser(
        prog="repro-phases cluster",
        description=(
            "Administer a running 'serve --workers N' cluster over its "
            "NDJSON endpoint: inspect topology, migrate sessions, "
            "drain or add workers."
        ),
    )
    parser.add_argument(
        "action",
        choices=(
            "status", "diagnostics", "migrate", "drain-worker",
            "rebalance", "grow",
        ),
        help="control-plane action to run",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="dispatcher address")
    parser.add_argument("--port", type=int, default=9137,
                        help="dispatcher NDJSON port (default 9137)")
    parser.add_argument("--session", default=None,
                        help="session name (migrate)")
    parser.add_argument("--worker", default=None,
                        help="worker id (migrate target / drain-worker)")
    parser.add_argument("--count", type=int, default=None,
                        help="workers to add (grow; default 1)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request timeout in seconds")
    args = parser.parse_args(argv)

    import json

    from repro.errors import ServiceError
    from repro.service import PhaseServiceClient

    params = {}
    if args.session is not None:
        params["session"] = args.session
    if args.worker is not None:
        params["worker"] = args.worker
    if args.count is not None:
        params["count"] = args.count
    try:
        with PhaseServiceClient(
            host=args.host, port=args.port, timeout=args.timeout
        ) as client:
            result = client.cluster(args.action, **params)
    except ServiceError as error:
        print(f"cluster {args.action} failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, default=float))
    return 0


def _classify_report(name: str, scale: float, telemetry=None) -> int:
    """Classify one benchmark and print the full phase report."""
    from repro.analysis.cov import weighted_cov
    from repro.analysis.profile import format_profile_table, profile_phases
    from repro.analysis.timeline import render_timeline
    from repro.core import ClassifierConfig, PhaseClassifier
    from repro.errors import ConfigurationError
    from repro.prediction import CompositePhasePredictor, RLEChangePredictor
    from repro.workloads import benchmark

    try:
        trace = benchmark(name, scale=scale)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2

    if telemetry is not None:
        telemetry.emit("classify_start", benchmark=name, scale=scale)
        with telemetry.span(f"classify:{name}"):
            run = PhaseClassifier(
                ClassifierConfig.paper_default()
            ).classify_trace(trace)
        telemetry.emit(
            "classify_end",
            benchmark=name,
            intervals=len(trace),
            phases=run.num_phases,
        )
    else:
        run = PhaseClassifier(
            ClassifierConfig.paper_default()
        ).classify_trace(trace)
    print(f"{name}: {len(trace)} intervals of "
          f"{trace.interval_instructions / 1e6:.0f}M instructions")
    print(f"whole-program CoV {trace.whole_program_cov():.1%}  ->  "
          f"per-phase CoV {weighted_cov(run, trace):.1%} across "
          f"{run.num_phases} phases "
          f"({run.transition_fraction:.1%} transition time)\n")
    print(format_profile_table(profile_phases(run, trace), count=10))
    print()
    print(render_timeline(run.phase_ids, width=72, max_legend_entries=6))
    stats = CompositePhasePredictor(RLEChangePredictor(2)).run(
        run.phase_ids
    )
    print(f"\nnext-phase prediction: {stats.accuracy:.1%} overall, "
          f"{stats.confident_accuracy:.1%} at {stats.coverage:.1%} "
          f"coverage when confidence-gated")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
