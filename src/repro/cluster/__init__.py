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

from repro._lazy import lazy_exports

# A worker (``python -m repro.cluster.worker``) runs this init before
# its own module: it loads the service, not the dispatcher, the
# supervisor or the migrator (DESIGN §14).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.cluster.dispatcher": (
        "ClusterDispatcher", "start_cluster_in_thread",
    ),
    "repro.cluster.migration": ("SessionMigrator",),
    "repro.cluster.routing": ("DEFAULT_SHARDS", "ShardMap", "shard_of"),
    "repro.cluster.supervisor": (
        "ClusterSupervisor", "WorkerHandle", "worker_data_dir",
    ),
})

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
