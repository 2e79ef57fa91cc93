"""``repro.cluster`` — the sharded multi-process phase service.

A front :class:`~repro.cluster.dispatcher.ClusterDispatcher` owns the
public NDJSON TCP endpoint and proxies sessions to N supervised worker
processes (each a full :class:`~repro.service.server.PhaseService`)
over per-worker Unix sockets, routed by consistent hash over a fixed
shard space (:mod:`repro.cluster.routing`). Crashed workers restart
with persistence recovery (:mod:`repro.cluster.supervisor`); live
sessions move between workers byte-identically
(:mod:`repro.cluster.migration`).

Run one from the CLI::

    repro-phases serve --workers 4 --runtime-dir /run/repro \
        --data-dir /var/lib/repro --http-port 8080

or in-process (tests, benchmarks)::

    from repro.cluster import start_cluster_in_thread
    with start_cluster_in_thread(workers=2, runtime_dir=tmp) as cluster:
        client = PhaseServiceClient(port=cluster.port)
"""

from repro.cluster.dispatcher import ClusterDispatcher, start_cluster_in_thread
from repro.cluster.migration import SessionMigrator
from repro.cluster.routing import DEFAULT_SHARDS, ShardMap, shard_of
from repro.cluster.supervisor import (
    ClusterSupervisor,
    WorkerHandle,
    worker_data_dir,
)

__all__ = [
    "ClusterDispatcher",
    "ClusterSupervisor",
    "DEFAULT_SHARDS",
    "SessionMigrator",
    "ShardMap",
    "WorkerHandle",
    "shard_of",
    "start_cluster_in_thread",
    "worker_data_dir",
]
