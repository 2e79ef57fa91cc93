"""The service benchmark: ``repro-phases serve`` under three traffic
mixes, every answer checked against the scalar-tracker oracle.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/selftest.py                  # the benchmark's own tests

A run launches ``serve`` as a child process with deployment and
capacity flags only (``--port 0 --http-port 0 --max-sessions N``, plus
``--data-dir`` or ``--workers 1 --runtime-dir`` per workload), opens
every session, warms up on sessions of its own, and then measures the
phases below. Each phase's requests are made before its clock starts:
the saturated phase gets the warm-up's rate times its length times
``HEADROOM``, the paced phase exactly what its rate sends.

- a **saturated** phase (closed loop, ``depth`` requests in flight per
  connection): ``records_per_s`` and ``server_cpu_us_per_record``
  (user + system CPU of every server process, from ``/proc``);
- a **paced** phase (open loop at the workload's fixed rate from
  ``spec.json``): ``ack_p50_ms``, each request timed from when it was
  due. The samples, in due order, are cut into blocks of
  ``BLOCK_SAMPLES``; a percentile is the median over blocks, so one
  stall moves at most the blocks it falls in. The run record also
  prints the p90 (the same way) and the p99 over all paced samples,
  each with its sample count. They are not metrics: on a virtual
  machine whose two CPUs the host also lends to others, they spread
  across runs by more than any bound the benchmark may set (the p90
  of ``cluster`` by 4x as the host's steal time goes from 0.2% to 10%);
- ``peak_rss_mb`` (summed ``VmHWM`` of the server processes at the end)
  and ``setup_s`` (spawn until ``ping`` answers; the median of three
  start-ups per run).

The two phases get ``--seconds / 2`` each, cut into ``ROUNDS``
alternating windows, so that both sample the same mix of a shared
machine's fast and slow spells.

``--trace 1`` instead runs the saturated phase twice on fresh servers
with the same inputs: once plain, once with span wrappers installed in
every server process (``tracehook/``). It prints the per-layer budget
of the traced phase and ``trace.overhead_frac``.

BENCHMARK.json gates ``fleet`` and ``stream``; ``cluster`` runs the same
way but is left out there (see its ``why`` in ``spec.json``).

Every run compares each connection's full answer stream with the
oracle, checks the oracle itself against the digest recorded in
``spec.json``, and checks the service's own counters (``stats``, the
``cluster`` op's ``diagnostics`` action, ``/metrics``) against the
loader's counts. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACEHOOK = os.path.join(HERE, "tracehook")
WORK = os.path.join(ROOT, ".perfbench")

#: Start-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds of a ``--trace 0`` run, each a saturated then a paced window.
ROUNDS = 6
#: Paced samples behind each block's latency percentiles (25 lie
#: beyond its p90); each reported percentile is the median over blocks.
BLOCK_SAMPLES = 250
#: Upper bound on any single wait for the server.
LIMIT = 60.0
#: Requests in flight per connection while opening sessions.
OPEN_DEPTH = 64
#: Requests made ahead for the saturated phase: the warm-up's rate
#: times the phase length times this. Should the server outrun them,
#: the rest are made on the spot, and the run is flagged.
HEADROOM = 2.0
#: Control requests a request counter may count besides the traffic
#: between the two counter readings.
CONTROL_REQUESTS = 8
#: A run is flagged when the server's CPU share of the saturated phase
#: falls below this (the loader, not the server, was the bottleneck),
#: or when paced sends ran this late at the 99th percentile.
BUSY_FLOOR = 0.85
LATE_FLAG_S = 0.001

END_TO_END_UNITS = {
    "records_per_s": "rec/s",
    "ack_p50_ms": "ms",
    "server_cpu_us_per_record": "us/rec",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fleet, stream, cluster, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: spec.json default_seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of the "
                        "end-to-end one")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, TRACEHOOK)

    from inputs import load_spec

    spec = load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [
        args.workload
    ]
    for name in names:
        if name not in spec["workloads"]:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(spec['workloads'])} or all")
    seed = spec["default_seed"] if args.seed is None else args.seed
    for name in names:
        result, record = run_workload(
            spec, name, seed, args.seconds, args.trace
        )
        print(render(record))
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


# -- one workload ---------------------------------------------------------------


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: int, shape_overrides: Optional[dict] = None):
    """Run one workload; returns ``(result, record)``: the driver's JSON
    object and the full run record."""
    from inputs import Shape, build_plans
    from oracle import Oracle, check

    shape = Shape.from_spec(name, spec, **(shape_overrides or {}))
    half = seconds / 2.0
    oracles = [
        Oracle(plan)
        for plan in build_plans(shape, seed, spec["foreign_config"])
    ]
    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "shape": shape.__dict__,
        "environment": environment(),
        "unmeasured": {entry["what"]: entry["why"]
                       for entry in spec["unmeasured"]},
        "problems": [],
        "flags": [],
    }
    if shape_overrides is None:
        golden_check(spec, name, record)
    work = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            runs = traced_runs(shape, spec, seed, half, work, record)
        else:
            runs = [end_to_end_run(shape, spec, seed, half, work, record)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for run in runs:
        for index, answer in enumerate(run["answers"]):
            verdict = check(oracles[index], answer["requests"],
                            answer["received"])
            attempted += verdict["sent"]
            failed += verdict["failed"]
            if verdict["failed"]:
                record["problems"].append(
                    f"{run['label']} connection {index}: "
                    f"{verdict['failed']} of {verdict['sent']} answers "
                    f"wrong or missing ({verdict['errors']} errors)"
                )
        counts = loader_counts(oracles, run)
        record[f"{run['label']}_counts"] = counts
        record["problems"].extend(agreement(shape, run, counts))
        if run["made_late"]:
            record["flags"].append(
                f"{run['label']}: {run['made_late']} requests were made "
                f"inside a timed phase (the prepared ones ran out)"
            )
    metrics = (
        layer_metrics(shape, runs, record) if trace
        else end_to_end_metrics(runs[0], record)
    )
    result = {
        "correct": failed == 0 and not record["problems"],
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record["error_rate"] = failed / max(attempted, 1)
    return result, record


def golden_check(spec: dict, name: str, record: dict) -> None:
    """The oracle on the default seed's fixed reference instance must
    reproduce the digest recorded in ``spec.json``."""
    from inputs import Shape, build_plans
    from oracle import digest

    shape = Shape.from_spec(name, spec)
    plans = build_plans(shape, spec["default_seed"], spec["foreign_config"])
    found = digest(plans, spec["golden_requests"])
    recorded = spec["workloads"][name].get("oracle_digest")
    record["oracle_digest"] = found
    if recorded is None:
        record["problems"].append(
            f"spec.json records no oracle digest for {name}; "
            f"this commit's is {found}"
        )
    elif recorded != found:
        record["problems"].append(
            f"oracle digest {found} differs from the recorded "
            f"{recorded}: classification results changed"
        )


# -- server runs ----------------------------------------------------------------


def _env(trace_dir: Optional[str]) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PERFBENCH_TRACE_DIR")}
    env["PYTHONPATH"] = SRC
    if trace_dir is not None:
        env["PYTHONPATH"] = os.pathsep.join([TRACEHOOK, SRC])
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


def start_server(shape, work: str, tag: str, trace_dir: Optional[str] = None):
    from procs import Server, serve_argv

    # Relative paths: the server runs from the checkout root, and
    # cluster socket paths must stay short.
    rel = os.path.relpath(work, ROOT)
    data_dir = os.path.join(rel, f"data-{tag}") if shape.data_dir else None
    runtime = os.path.join(rel, f"rt-{tag}") if shape.workers else None
    sessions = shape.sessions + shape.connections * shape.warmup_sessions
    argv = serve_argv(shape, sessions + 64, data_dir, runtime)
    return Server(argv, _env(trace_dir), ROOT,
                  os.path.join(work, f"server-{tag}.log"), LIMIT)


def drive(server, shape, spec: dict, seed: int, seconds: float,
          rounds: int, paced_too: bool, label: str) -> dict:
    """Open, warm up, run ``rounds`` rounds of timed windows (``seconds``
    of saturated load in all, and as much paced load if ``paced_too``),
    read the counters, drain. The server is always stopped: drained on
    success, killed (with its workers) on any failure."""
    import loadgen
    from inputs import build_plans
    from procs import (Control, close_sessions, counters, cpu_seconds,
                       steal_ticks)

    plans = build_plans(shape, seed, spec["foreign_config"])
    links: List = []
    conns: List = []
    finished = False
    try:
        control = Control(("127.0.0.1", server.port), LIMIT)
        links.append(control)
        workers = {}
        if shape.workers:
            status = control.call({"op": "cluster", "action": "status"})
            server.worker_pids = [
                worker["pid"] for worker in status["workers"].values()
            ]
            for worker_id, worker in status["workers"].items():
                workers[worker_id] = Control(
                    os.path.join(ROOT, worker["uds_path"]), LIMIT
                )
                links.append(workers[worker_id])
        for _ in plans:
            conns.append(loadgen.Connection("127.0.0.1", server.port))
        loadgen.run_all(conns, [p.opens for p in plans], OPEN_DEPTH, LIMIT)
        warm_start = clock()
        loadgen.run_all(conns, [p.warmup for p in plans], shape.depth, LIMIT)
        warm_rate = sum(len(p.warmup) for p in plans) / (clock() - warm_start)
        before = counters(control, server.http_port, workers)
        traffic = [plan.traffic for plan in plans]

        def probe() -> List[float]:
            return [cpu_seconds(pid) for pid in server.pids()]

        # Rounds alternate a saturated and a paced window, so both see
        # the same mix of the machine's fast and slow spells.
        window = seconds / rounds
        saturated_each = shape.depth + math.ceil(
            warm_rate * window * HEADROOM / len(plans))
        paced_each = math.ceil(
            loadgen.paced_requests(shape.paced_rate, window) / len(plans)
        ) if paced_too else 0
        saturated, paced = [], []
        steal_start = steal_ticks()
        for _ in range(rounds):
            for source in traffic:
                source.prepare(saturated_each)
            saturated.append(loadgen.saturated(
                conns, traffic, shape.depth, window, probe, LIMIT
            ))
            if paced_too:
                for source in traffic:
                    source.prepare(paced_each)
                paced.append(loadgen.paced(
                    conns, traffic, shape.paced_rate, window, LIMIT
                ))
        steal_end = steal_ticks()
        after = counters(control, server.http_port, workers)
        closed = close_sessions(
            control, [name for p in plans for name in p.traffic_sessions]
        )
        rss = server.peak_rss_mb()
        finished = True
    finally:
        for link in conns + links:
            link.close()
        if finished:
            clean = server.stop(LIMIT)
        else:
            server.kill()
    return {
        "label": label,
        "warmup_rate": warm_rate,
        "saturated": _merge_windows(saturated),
        "paced": paced,
        "before": before,
        "after": after,
        "closed": closed,
        "peak_rss_mb": rss,
        "steal_frac": (steal_end[0] - steal_start[0])
        / max(steal_end[1] - steal_start[1], 1),
        "clean_drain": clean,
        "made_late": sum(source.made_late for source in traffic),
        "pids": server.pids(),
        "answers": [
            {"requests": c.requests, "received": c.received()}
            for c in conns
        ],
    }


def _merge_windows(windows: List[dict]) -> dict:
    """Saturated windows as one phase: totals, plus each window's
    rate."""
    return {
        "windows": len(windows),
        "start": windows[0]["start"],
        "quiet": windows[-1]["quiet"],
        "seconds": sum(w["seconds"] for w in windows),
        "records": sum(w["records"] for w in windows),
        "answered": sum(w["answered"] for w in windows),
        "sent": sum(w["sent"] for w in windows),
        "cpu_s": [sum(shares) for shares in zip(
            *(w["cpu_s"] for w in windows))],
        "first_request": windows[0]["first_request"],
        "window_rates": [w["records"] / w["seconds"] for w in windows],
    }


def end_to_end_run(shape, spec: dict, seed: int, seconds: float, work: str,
                   record: dict) -> dict:
    setups: List[float] = []
    for index in range(SETUPS - 1):
        server = start_server(shape, work, f"s{index}")
        setups.append(server.setup_s)
        server.stop(LIMIT)
    server = start_server(shape, work, f"s{SETUPS - 1}")
    setups.append(server.setup_s)
    record["setup_samples_s"] = setups
    run = drive(server, shape, spec, seed, seconds, ROUNDS, True, "run")
    run["setups"] = setups
    if not run["clean_drain"]:
        record["problems"].append("server did not drain cleanly")
    return run


def traced_runs(shape, spec: dict, seed: int, seconds: float, work: str,
                record: dict) -> List[dict]:
    """The saturated phase twice on fresh servers with the same inputs:
    plain, then traced. The traced servers' spans are read back before
    the work directory goes."""
    import glob

    from pbtrace import load, summarize

    plain = drive(start_server(shape, work, "plain"), shape, spec, seed,
                  seconds, 1, False, "plain")
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    traced = drive(start_server(shape, work, "traced", trace_dir), shape,
                   spec, seed, seconds, 1, False, "traced")
    phase = traced["saturated"]
    traced["spans"] = {}
    for path in glob.glob(os.path.join(trace_dir, "spans-*.bin")):
        header, columns = load(path)
        traced["spans"][header["pid"]] = summarize(
            columns, phase["start"], phase["quiet"]
        )
    for run in (plain, traced):
        if not run["clean_drain"]:
            record["problems"].append(
                f"{run['label']} server did not drain cleanly"
            )
    return [plain, traced]


# -- counts and counters ----------------------------------------------------------


def loader_counts(oracles, run) -> dict:
    """Loader-side counts of the timed phases (saturated, and paced
    when run): requests by kind, records, and oracle boundaries."""
    from inputs import OBSERVE, PREDICT

    counts = {"requests": 0, "observes": 0, "predicts": 0, "records": 0,
              "boundaries": 0}
    for index, answer in enumerate(run["answers"]):
        requests = answer["requests"]
        oracle = oracles[index]
        oracle.answers(requests)
        for position in range(run["saturated"]["first_request"][index],
                              len(requests)):
            request = requests[position]
            counts["requests"] += 1
            counts["observes"] += request.kind == OBSERVE
            counts["predicts"] += request.kind == PREDICT
            counts["records"] += request.records
            counts["boundaries"] += oracle.pushes[position]
    return counts


def _delta(run: dict, *path) -> Optional[float]:
    values = []
    for side in ("before", "after"):
        node = run[side]
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, (int, float)):
            return None
        values.append(node)
    return values[1] - values[0]


def _worker_delta(run: dict, *path) -> Optional[float]:
    """``_delta`` summed over the cluster's workers (their own
    sockets); ``None`` if any worker lacks the counter."""
    deltas = [_delta(run, "workers", worker, *path)
              for worker in run["after"]["workers"]]
    if not deltas or None in deltas:
        return None
    return sum(deltas)


def agreement(shape, run: dict, counts: dict) -> List[str]:
    """The service's own counters over the timed phases must match the
    loader's counts. A counter the workload expects but cannot read is
    a problem too."""
    label = run["label"]
    requests, records = counts["requests"], counts["records"]
    boundaries = counts["boundaries"]
    # Request counters may also count the few control requests made
    # between the two readings (the readings themselves, and what the
    # dispatcher asks its workers to answer them).
    checks = [
        ("stats requests", requests, requests + CONTROL_REQUESTS,
         _delta(run, "stats", "cluster", "dispatcher_requests")
         if shape.workers else _delta(run, "stats", "requests")),
        ("closed sessions' branches", records, records,
         run["closed"]["branches"]),
        ("closed sessions' intervals", boundaries, boundaries,
         run["closed"]["intervals"]),
    ]
    # The closed sessions' counts are the serving process's own (in a
    # cluster, the worker's, relayed by the dispatcher). A cluster
    # worker runs without telemetry, so its totals come from its own
    # socket's ``stats`` instead of ``/metrics``.
    if shape.workers:
        checks.append(("workers' own stats requests", requests,
                       requests + CONTROL_REQUESTS,
                       _worker_delta(run, "stats", "requests")))
    else:
        checks += [
            ("repro_service_branches_total", records, records,
             _delta(run, "metrics", "repro_service_branches_total")),
            ("repro_service_intervals_total", boundaries, boundaries,
             _delta(run, "metrics", "repro_service_intervals_total")),
        ]
    if shape.data_dir:
        checks.append(("journal records", counts["observes"],
                       counts["observes"],
                       _delta(run, "stats", "persistence",
                              "journal_records")))
    problems = []
    for what, low, high, found in checks:
        if found is None:
            problems.append(f"{label}: counter {what} could not be read")
        elif not low <= found <= high:
            want = f"{low}" if low == high else f"{low}..{high}"
            problems.append(
                f"{label}: counter {what} reads {found:g}, the loader "
                f"counted {want}"
            )
    return problems


def _coalesce(cluster: bool, run: dict) -> dict:
    """Coalescing counters over the timed phases, from the serving
    process's own ``diagnostics`` (a cluster's worker): 0 while
    coalescing is off, which leaves the section out."""
    if cluster:
        rounds = _worker_delta(run, "diagnostics", "coalesce", "rounds")
        requests = _worker_delta(run, "diagnostics", "coalesce", "requests")
    else:
        rounds = _delta(run, "diagnostics", "coalesce", "rounds")
        requests = _delta(run, "diagnostics", "coalesce", "requests")
    rounds = rounds or 0
    requests = requests or 0
    return {"rounds": rounds,
            "round_size_mean": requests / rounds if rounds else 0.0}


# -- metrics ----------------------------------------------------------------------


def end_to_end_metrics(run: dict, record: dict) -> dict:
    from percentiles import percentile

    saturated = run["saturated"]
    blocks = latency_blocks(run["paced"], BLOCK_SAMPLES)
    pooled = [value for block in blocks for value in block]
    lateness = sorted(late for window in run["paced"]
                      for late in window["lateness"])
    cpu = sum(saturated["cpu_s"])
    values = {
        "records_per_s": saturated["records"] / saturated["seconds"],
        "ack_p50_ms": statistics.median(
            percentile(block, 50) for block in blocks),
        "server_cpu_us_per_record": cpu * 1e6 / max(saturated["records"], 1),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(run["setups"]),
    }
    busy = [share / saturated["seconds"] for share in saturated["cpu_s"]]
    paced_seconds = sum(w["quiet"] - w["start"] for w in run["paced"])
    smallest = min(len(block) for block in blocks)
    record.update({
        "saturated": _phase_summary(run),
        "paced": {
            "offered_rate": len(lateness) / max(paced_seconds, 1e-9),
            "samples": len(lateness),
            "blocks": len(blocks),
            "smallest_block": smallest,
            "block_samples_beyond_p50": smallest - math.ceil(0.5 * smallest),
            "block_samples_beyond_p90": smallest - math.ceil(0.9 * smallest),
            "p50_ms": values["ack_p50_ms"],
            "p90_ms": _or_none(lambda: statistics.median(
                percentile(block, 90) for block in blocks)),
            "p99_ms": _or_none(lambda: percentile(pooled, 99)),
            "samples_beyond_p99":
                len(pooled) - math.ceil(0.99 * len(pooled)),
            "lateness_p50_ms": lateness[len(lateness) // 2] * 1e3,
            "lateness_p99_ms": lateness[int(len(lateness) * 0.99)] * 1e3,
            "lateness_max_ms": lateness[-1] * 1e3,
        },
        "server.busy_frac": busy,
        "host_steal_frac": run["steal_frac"],
        "trace.overhead_frac": None,
        "counters": _counter_summary(bool(record["shape"]["workers"]), run),
    })
    if max(busy) < BUSY_FLOOR:
        record["flags"].append(
            f"server not the bottleneck: busiest server process "
            f"{max(busy):.0%} of the saturated phase"
        )
    if record["paced"]["lateness_p99_ms"] > LATE_FLAG_S * 1e3:
        record["flags"].append(
            f"generator fell behind schedule: p99 send lateness "
            f"{record['paced']['lateness_p99_ms']:.2f} ms"
        )
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def _or_none(statistic):
    """A printed-only percentile: ``None`` when too few samples lie
    beyond it."""
    from percentiles import InsufficientSamples

    try:
        return statistic()
    except InsufficientSamples:
        return None


def latency_blocks(windows: List[dict], need: int) -> List[List[float]]:
    """Paced windows' latencies (in ms), in due order, cut into blocks
    of ``need`` consecutive samples; a short remainder joins the last
    block."""
    samples = [value * 1e3 for window in windows
               for value in window["latencies"]]
    count = max(1, len(samples) // need)
    blocks = [samples[index * need:(index + 1) * need]
              for index in range(count)]
    blocks[-1].extend(samples[count * need:])
    return blocks


def _phase_summary(run: dict) -> dict:
    phase = run["saturated"]
    return {
        "warmup_rate": run["warmup_rate"],
        "windows": phase["windows"],
        "window_rates": phase["window_rates"],
        "seconds": phase["seconds"],
        "requests_sent": phase["sent"],
        "requests_answered_by_deadline": phase["answered"],
        "records_by_deadline": phase["records"],
        "cpu_s": phase["cpu_s"],
    }


def _counter_summary(cluster: bool, run: dict) -> dict:
    return {
        "requests": _delta(run, "stats", "requests"),
        "branches": _delta(run, "metrics", "repro_service_branches_total"),
        "intervals": _delta(run, "metrics", "repro_service_intervals_total"),
        "closed_sessions": run["closed"],
        "journal_bytes": _delta(run, "stats", "persistence", "journal_bytes"),
        "journal_records": _delta(
            run, "stats", "persistence", "journal_records"),
        "fsyncs": _delta(
            run, "metrics", "repro_persistence_fsync_seconds_count"),
        "coalesce": _coalesce(cluster, run),
    }


#: The traced run's metrics for the driver (``per_layer`` in
#: BENCHMARK.json). Layer times that are structurally zero on some
#: workload (persistence off the ``stream`` workload, telemetry in a
#: cluster worker) are given as shares of the phase's wall time; the
#: seconds themselves are in the run record's ``layers``.
PER_LAYER_UNITS = {
    "protocol.decode_s": "s",
    "protocol.decode_calls": "count",
    "protocol.decode_bytes": "bytes",
    "protocol.encode_s": "s",
    "protocol.encode_calls": "count",
    "protocol.encode_bytes": "bytes",
    "server.wall_s": "s",
    "server.loop_s": "s",
    "server.busy_frac": "frac",
    "session.lookup_s": "s",
    "session.lookups": "count",
    "coalesce.rounds": "count",
    "coalesce.round_size_mean": "req/round",
    "coalesce.fused_frac": "frac",
    "core.observe_s": "s",
    "core.observe_calls": "count",
    "core.records": "count",
    "core.accumulate_s": "s",
    "core.signature_s": "s",
    "core.match_s": "s",
    "core.boundaries": "count",
    "core.slots_per_classify": "slots/call",
    "prediction.s": "s",
    "prediction.calls": "count",
    "persistence.log_frac": "frac",
    "persistence.append_frac": "frac",
    "persistence.fsync_frac": "frac",
    "persistence.fsyncs": "count",
    "persistence.bytes": "bytes",
    "persistence.records_per_fsync": "rec/fsync",
    "cluster.dispatcher_busy_frac": "frac",
    "cluster.fullparse_frac": "frac",
    "cluster.frames_per_proxy_write": "frames/write",
    "telemetry.emit_frac": "frac",
    "telemetry.emit_calls": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(shape, runs: List[dict], record: dict) -> dict:
    """The per-layer budget of the traced saturated phase.

    The budget is checked to close: every self time is non-negative,
    they fit in the phase's wall time, and the wrappers saw exactly the
    loader's traffic. A budget that does not close means the wrappers
    missed or double-counted work; it is flagged, since the program's
    answers (checked separately) may still be right.
    """
    plain, traced = runs
    phase = traced["saturated"]
    wall = phase["quiet"] - phase["start"]
    serve_pid = traced["pids"][0]
    server_pid = traced["pids"][-1]  # the worker in cluster mode
    missing = [pid for pid in traced["pids"] if pid not in traced["spans"]]
    if missing:
        record["problems"].append(
            f"no span file from server pid(s) {missing}"
        )
        return {name: {"value": 0.0, "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
    spans = traced["spans"][server_pid]
    counts = record["traced_counts"]
    cpu = dict(zip(traced["pids"], phase["cpu_s"]))

    def self_s(*kinds) -> float:
        return sum(spans[kind]["self_s"] for kind in kinds)

    def calls(kind) -> int:
        return spans[kind]["calls"]

    timed = [kind for kind in spans if kind != "unix_write"]
    budget = {kind: spans[kind]["self_s"] for kind in timed}
    budget["server.loop_s"] = wall - sum(budget.values())
    coalesce = _coalesce(bool(shape.workers), traced)
    journal_records = _delta(traced, "stats", "persistence",
                             "journal_records") or 0
    values = {
        "protocol.decode_s": self_s("decode"),
        "protocol.decode_calls": calls("decode"),
        "protocol.decode_bytes": spans["decode"]["q1"],
        "protocol.encode_s": self_s("encode"),
        "protocol.encode_calls": calls("encode"),
        "protocol.encode_bytes": spans["encode"]["q1"],
        "server.wall_s": wall,
        "server.loop_s": budget["server.loop_s"],
        "server.busy_frac": cpu[server_pid] / phase["seconds"],
        "session.lookup_s": self_s("lookup"),
        "session.lookups": calls("lookup"),
        "coalesce.rounds": coalesce["rounds"],
        "coalesce.round_size_mean": coalesce["round_size_mean"],
        "coalesce.fused_frac":
            spans["fanin"]["q3"] / max(counts["observes"], 1),
        "core.observe_s": self_s("observe", "fanin"),
        "core.observe_calls": calls("observe") + calls("fanin"),
        "core.records": spans["observe"]["q1"] + spans["fanin"]["q1"],
        "core.accumulate_s": self_s("accumulate"),
        "core.signature_s": self_s("signature"),
        "core.match_s": self_s("match"),
        "core.boundaries": spans["observe"]["q2"] + spans["fanin"]["q2"],
        "core.slots_per_classify":
            spans["match"]["q1"] / max(calls("match"), 1),
        "prediction.s": self_s("predict"),
        "prediction.calls": calls("predict"),
        "persistence.log_s": self_s("log"),
        "persistence.append_s": self_s("append"),
        "persistence.fsync_s": self_s("fsync"),
        "persistence.fsyncs": calls("fsync"),
        "persistence.bytes":
            _delta(traced, "stats", "persistence", "journal_bytes") or 0,
        "persistence.records_per_fsync":
            journal_records / calls("fsync") if calls("fsync") else 0.0,
        "persistence.checkpoint_s": self_s("checkpoint"),
        "cluster.dispatcher_cpu_us_per_request": 0.0,
        "cluster.dispatcher_busy_frac": 0.0,
        "cluster.fullparse_frac": 0.0,
        "cluster.frames_per_proxy_write": 0.0,
        "telemetry.emit_s": self_s("emit"),
        "telemetry.emit_calls": calls("emit"),
        "persistence.log_frac": self_s("log") / wall,
        "persistence.append_frac": self_s("append") / wall,
        "persistence.fsync_frac": self_s("fsync") / wall,
        "telemetry.emit_frac": self_s("emit") / wall,
        "trace.overhead_frac": 1.0 - (
            phase["records"] / phase["seconds"]
        ) / (plain["saturated"]["records"] / plain["saturated"]["seconds"]),
    }
    if shape.workers:
        dispatcher = traced["spans"][serve_pid]
        requests = max(counts["requests"], 1)
        writes = dispatcher["unix_write"]["calls"]
        values["cluster.dispatcher_cpu_us_per_request"] = (
            cpu[serve_pid] * 1e6 / requests)
        values["cluster.dispatcher_busy_frac"] = (
            cpu[serve_pid] / phase["seconds"])
        values["cluster.fullparse_frac"] = (
            dispatcher["decode"]["calls"] / requests)
        values["cluster.frames_per_proxy_write"] = (
            counts["requests"] / writes if writes else 0.0)
    record["layers"] = values
    record["budget_s"] = budget
    record["server.busy_frac"] = values["server.busy_frac"]
    record["trace.overhead_frac"] = values["trace.overhead_frac"]

    negative = [kind for kind, seconds in budget.items() if seconds < 0]
    if negative:
        record["flags"].append(
            f"trace budget: negative self time in {negative} (self times "
            f"sum past the phase's {wall:.4f}s wall time)"
        )
    expected = {
        "protocol.decode_calls": counts["requests"],
        "core.records": counts["records"],
        "core.boundaries": counts["boundaries"],
        "telemetry.emit_calls": counts["boundaries"],
    }
    if shape.workers:
        # Cluster workers run without telemetry.
        expected.pop("telemetry.emit_calls")
    for name, want in expected.items():
        if values[name] != want:
            record["flags"].append(
                f"trace budget: wrapper count {name} = {values[name]}, "
                f"the loader counted {want}"
            )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


# -- reporting --------------------------------------------------------------------


def environment() -> dict:
    import numpy

    # Only this checkout's own .git is read: git would otherwise search
    # the directories above it.
    git_dir = os.path.join(ROOT, ".git")
    commit = "unknown (not a git checkout)"
    if os.path.isdir(git_dir):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def render(record: dict) -> str:
    """The human-readable run report (everything before the JSON line)."""
    lines = [f"== perfbench {record['workload']} seed={record['seed']} "
             f"trace={record['trace']} seconds={record['seconds']:g}"]
    env = record["environment"]
    lines.append(
        f"   commit {env['commit']}  nproc {env['nproc']}  python "
        f"{env['python']}  numpy {env['numpy']}"
    )
    lines.append("   shape " + json.dumps(record["shape"], sort_keys=True))
    skip = {"workload", "seed", "trace", "seconds", "environment", "shape",
            "problems", "flags"}
    for key, value in record.items():
        if key in skip:
            continue
        if isinstance(value, dict):
            lines.append(f"   {key}:")
            for inner, item in value.items():
                lines.append(f"      {inner:<40} {_fmt(item)}")
        else:
            lines.append(f"   {key:<43} {_fmt(value)}")
    for flag in record["flags"]:
        lines.append(f"   FLAG: {flag}")
    for problem in record["problems"]:
        lines.append(f"   PROBLEM: {problem}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(item) for item in value) + "]"
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
