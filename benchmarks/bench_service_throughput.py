"""Benchmark: service ingest throughput, batched vs per-branch RPC.

The protocol's ``observe`` op carries a *batch* of (pc, instructions)
pairs per request precisely so the per-request costs — JSON framing,
syscalls, event-loop turns — amortize over many branches. This
benchmark drives the same branch stream through a live service twice,
once as one request per branch and once in large batches, and asserts
the batched path sustains at least 5x the per-branch RPC branch rate
(the acceptance floor; in practice it is orders of magnitude higher).

A second test checks the absolute batched rate is fast enough to be a
deployable monitor feed, and a third that the bounded ingest queue
(the backpressure mechanism) does not deadlock a stream much larger
than the queue.

The file doubles as the *cluster* load generator: ``_cluster_rate``
drives concurrent sessions through a ``repro.cluster`` dispatcher with
N worker processes, ``test_cluster_scaling_on_multicore`` asserts a
4-worker cluster sustains >= 2.5x the 1-worker rate on a >= 4-core box
(skipped on smaller machines — classification is CPU-bound, so extra
worker processes on one core only add dispatch overhead), and
``python benchmarks/bench_service_throughput.py --workers N`` runs the
generator standalone for TRAJECTORY.md numbers.
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro.cluster import start_cluster_in_thread
from repro.service import PhaseServiceClient, start_in_thread

BRANCHES = 12_000
BATCH = 2_000
INTERVAL_INSTRUCTIONS = 100_000
PER_BRANCH_SAMPLE = 600       # per-branch RPC is slow; sample and scale
SPEEDUP_FLOOR = 5.0


def _branch_stream(seed=0, n=BRANCHES):
    rng = np.random.default_rng(seed)
    pcs = [int(pc) for pc in 0x400000 + rng.integers(0, 64, size=n) * 4]
    counts = [int(c) for c in rng.integers(50, 150, size=n)]
    return pcs, counts


def _batched_rate(client, pcs, counts):
    session = client.open_session(
        interval_instructions=INTERVAL_INSTRUCTIONS
    )
    start = time.perf_counter()
    for begin in range(0, len(pcs), BATCH):
        client.observe(
            session, pcs[begin:begin + BATCH], counts[begin:begin + BATCH]
        )
    elapsed = time.perf_counter() - start
    client.close_session(session)
    return len(pcs) / elapsed


def _per_branch_rate(client, pcs, counts):
    session = client.open_session(
        interval_instructions=INTERVAL_INSTRUCTIONS
    )
    start = time.perf_counter()
    for pc, count in zip(pcs, counts):
        client.observe(session, [pc], [count])
    elapsed = time.perf_counter() - start
    client.close_session(session)
    return len(pcs) / elapsed


def test_batched_observe_is_5x_per_branch_rpc():
    pcs, counts = _branch_stream()
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])  # warm-up
            batched = _batched_rate(client, pcs, counts)
            per_branch = _per_branch_rate(
                client, pcs[:PER_BRANCH_SAMPLE], counts[:PER_BRANCH_SAMPLE]
            )
    speedup = batched / per_branch
    print(
        f"\nbatched {batched / 1e3:.0f} kbranches/s, per-branch RPC "
        f"{per_branch / 1e3:.1f} kbranches/s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched observe only {speedup:.1f}x the per-branch RPC rate; "
        f"the protocol requires >= {SPEEDUP_FLOOR}x"
    )


def test_batched_rate_is_deployable():
    """The batched path should comfortably outrun a real branch feed
    sampled at monitoring granularity (>= 50k records/s end to end,
    classification included)."""
    pcs, counts = _branch_stream(seed=1)
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])  # warm-up
            rate = _batched_rate(client, pcs, counts)
    assert rate >= 50_000, f"batched ingest only {rate:.0f} branches/s"


CLUSTER_SESSIONS = 8          # concurrent sessions spread over the fleet
CLUSTER_BRANCHES = 24_000     # per session
CLUSTER_SCALING_FLOOR = 2.5   # 4 workers vs 1 on a >= 4-core box


def _drive_session(port, name, pcs, counts, errors):
    try:
        with PhaseServiceClient(port=port, timeout=120.0) as client:
            client.open_session(
                session=name, interval_instructions=INTERVAL_INSTRUCTIONS
            )
            for begin in range(0, len(pcs), BATCH):
                client.observe(
                    name,
                    pcs[begin:begin + BATCH],
                    counts[begin:begin + BATCH],
                )
            client.close_session(name)
    except Exception as error:  # surfaced by the caller
        errors.append((name, error))


def _cluster_rate(workers, sessions=CLUSTER_SESSIONS,
                  branches=CLUSTER_BRANCHES):
    """Aggregate branches/s through a dispatcher with ``workers``
    worker processes, ``sessions`` concurrent loader threads (one
    client + one session each, batched observes)."""
    streams = [
        _branch_stream(seed=10 + index, n=branches)
        for index in range(sessions)
    ]
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        with start_cluster_in_thread(
            port=0, workers=workers, runtime_dir=tmp,
            max_connections=sessions + 8,
        ) as cluster:
            errors = []
            loaders = [
                threading.Thread(
                    target=_drive_session,
                    args=(cluster.port, f"load-{index}", pcs, counts,
                          errors),
                )
                for index, (pcs, counts) in enumerate(streams)
            ]
            start = time.perf_counter()
            for loader in loaders:
                loader.start()
            for loader in loaders:
                loader.join()
            elapsed = time.perf_counter() - start
            assert not errors, f"load generator failed: {errors[:3]}"
    return sessions * branches / elapsed


def test_cluster_dispatcher_overhead_is_bounded():
    """Routing through the dispatcher + a worker process must keep a
    usable fraction of the single-process batched rate — the proxy adds
    one hop, not an order of magnitude."""
    pcs, counts = _branch_stream(seed=9)
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])
            direct = _batched_rate(client, pcs, counts)
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        with start_cluster_in_thread(
            port=0, workers=1, runtime_dir=tmp
        ) as cluster:
            with PhaseServiceClient(
                port=cluster.port, timeout=120.0
            ) as client:
                _batched_rate(client, pcs[:BATCH], counts[:BATCH])
                proxied = _batched_rate(client, pcs, counts)
    retained = proxied / direct
    print(
        f"\ndirect {direct / 1e3:.0f} kbranches/s, via dispatcher "
        f"{proxied / 1e3:.0f} kbranches/s ({retained:.0%} retained)"
    )
    assert retained >= 0.25, (
        f"dispatcher hop keeps only {retained:.0%} of the direct rate"
    )


def test_cluster_scaling_on_multicore():
    """4 workers >= 2.5x 1 worker — only meaningful when the box has
    cores for the workers to spread over."""
    cores = os.cpu_count() or 1
    one = _cluster_rate(workers=1)
    two = _cluster_rate(workers=2)
    four = _cluster_rate(workers=4)
    print(
        f"\ncluster scaling ({cores} cores): "
        f"1w {one / 1e3:.0f} kbranches/s, "
        f"2w {two / 1e3:.0f} kbranches/s, "
        f"4w {four / 1e3:.0f} kbranches/s "
        f"({four / one:.2f}x)"
    )
    if cores < 4:
        import pytest

        pytest.skip(
            f"scaling floor needs >= 4 cores, box has {cores}; "
            f"rates recorded above"
        )
    assert four / one >= CLUSTER_SCALING_FLOOR, (
        f"4-worker cluster only {four / one:.2f}x a single worker; "
        f"the floor on a {cores}-core box is {CLUSTER_SCALING_FLOOR}x"
    )


def test_backpressure_queue_does_not_deadlock():
    """A stream of many more requests than the ingest queue holds must
    complete: the bounded queue throttles the reader, it never drops or
    wedges."""
    pcs, counts = _branch_stream(seed=2, n=4_000)
    with start_in_thread(queue_size=2) as handle:
        with PhaseServiceClient(port=handle.port) as client:
            session = client.open_session(
                interval_instructions=INTERVAL_INSTRUCTIONS
            )
            intervals = 0
            for begin in range(0, len(pcs), 100):   # 40 requests, queue of 2
                intervals += len(client.observe(
                    session, pcs[begin:begin + 100],
                    counts[begin:begin + 100],
                ))
            summary = client.close_session(session)
    assert summary["branches"] == len(pcs)
    assert intervals == summary["intervals"] > 0


def main(argv=None):
    """Standalone cluster load generator:
    ``python benchmarks/bench_service_throughput.py --workers 4``."""
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "Drive concurrent batched sessions through a repro.cluster "
            "dispatcher and report aggregate branches/s."
        )
    )
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--sessions", type=int, default=CLUSTER_SESSIONS,
                        help="concurrent loader sessions (default "
                        f"{CLUSTER_SESSIONS})")
    parser.add_argument("--branches", type=int, default=CLUSTER_BRANCHES,
                        help="branches per session (default "
                        f"{CLUSTER_BRANCHES})")
    args = parser.parse_args(argv)
    rate = _cluster_rate(
        workers=args.workers, sessions=args.sessions,
        branches=args.branches,
    )
    print(
        f"{args.workers} worker(s), {args.sessions} sessions x "
        f"{args.branches} branches: {rate / 1e3:.0f} kbranches/s "
        f"aggregate ({os.cpu_count()} cores)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
