"""Live session migration between cluster workers.

The whole point of migration is that it is *boring*: it reuses the
snapshot/restore path that PR 2 proved byte-identical and PR 4/7 made
durable, and it wraps that path in just enough sequencing that no frame
can slip through mid-handoff. The sequence for ``migrate(session, target)``:

1. **Gate.** An :class:`asyncio.Event` is registered for the session;
   every data-path request for that session blocks on it *before*
   routing, so nothing new reaches the source worker.
2. **Quiesce.** Wait until the session's in-flight count reaches zero —
   requests already past the gate finish and their pushes are flushed.
3. **Snapshot.** ``snapshot`` on the source over the dispatcher's
   control channel: the full tracker state, exactly what a client
   would get.
4. **Close the source.** The source worker journals the close, so a
   crash-recovered source will not resurrect a moved session.
5. **Open on the target** with the snapshot (same name). Restore is
   byte-identical, so the first report produced on the target is the
   one the source would have produced.
6. **Flip the route** (``table[session] = target``) and lift the gate.
   Queued frames — the client was never told anything happened — now
   flow to the target and classify exactly as they would have.

If step 5 fails, the snapshot is re-opened on the *source* (which
still has the journaled history) and the error propagates: the session
never exists in zero or two places.

Byte-identity across the handoff holds because no observe executes
anywhere between the snapshot and the route flip — the gate plus the
in-flight drain guarantee the snapshot captures the complete prefix of
the stream, and restore replays none of it.

:meth:`SessionMigrator.drain_worker` composes this into zero-downtime
worker removal: pull the worker from the shard map (new sessions stop
landing on it), migrate every live session it owns to its new natural
owner, then stop the process gracefully. :meth:`SessionMigrator.rebalance`
moves every session whose table entry disagrees with the current shard
map — the follow-up to ``grow``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from repro.errors import ClusterError, ReproError
from repro.service import protocol
from repro.cluster.supervisor import UP

#: Seconds a migrating session's in-flight requests have to finish
#: before the migration gives up.
MIGRATION_TIMEOUT = 30.0


class SessionMigrator:
    """Moves live sessions between the dispatcher's workers."""

    def __init__(self, dispatcher) -> None:
        self._dispatcher = dispatcher

    # -- single-session migration ----------------------------------------------

    async def migrate(
        self, session: str, target: Optional[str] = None
    ) -> dict:
        """Move ``session`` to ``target`` (default: its natural shard
        owner). Returns a summary; ``migrated`` is ``False`` when the
        session is already where it belongs."""
        d = self._dispatcher
        source = d._sessions.get(session)
        if source is None:
            raise ClusterError(
                f"unknown session {session!r}: only live sessions "
                f"(open through this dispatcher) can migrate"
            )
        if session in d._gates:
            raise ClusterError(
                f"session {session!r} is already migrating"
            )
        if target is None:
            target = d.shard_map.owner_of(session)
        self._require_up(target)
        if target == source:
            return {
                "session": session, "worker": source, "migrated": False,
            }
        gate = asyncio.Event()
        d._gates[session] = gate
        d.telemetry.emit("cluster_migration_started", session=session,
                         source=source, target=target)
        try:
            await self._quiesce(session)
            source_channel = d.control_channel(source)
            target_channel = d.control_channel(target)
            result = await source_channel.request(
                protocol.SnapshotRequest(
                    id=source_channel.next_id(), session=session
                ),
                resendable=True,
            )
            snapshot = result["snapshot"]
            await source_channel.request(
                protocol.CloseRequest(
                    id=source_channel.next_id(), session=session
                )
            )
            try:
                await target_channel.request(
                    protocol.OpenRequest(
                        id=target_channel.next_id(),
                        session=session,
                        config=None,
                        interval_instructions=None,
                        snapshot=snapshot,
                    )
                )
            except (ClusterError, ReproError) as error:
                # The session must not vanish: put it back where it
                # was. The source still accepts the name (its close
                # freed it) and the snapshot restores byte-identically.
                await source_channel.request(
                    protocol.OpenRequest(
                        id=source_channel.next_id(),
                        session=session,
                        config=None,
                        interval_instructions=None,
                        snapshot=snapshot,
                    )
                )
                d.migrations_failed += 1
                d.telemetry.emit(
                    "cluster_migration_failed", session=session,
                    source=source, target=target, error=str(error),
                )
                raise ClusterError(
                    f"migration of {session!r} to {target} failed and "
                    f"was rolled back to {source}: {error}"
                ) from None
            d._sessions[session] = target
            d.migrations_completed += 1
            d.telemetry.emit("cluster_migration_completed", session=session,
                             source=source, target=target)
            return {
                "session": session, "from": source, "to": target,
                "migrated": True,
            }
        finally:
            d._gates.pop(session, None)
            gate.set()

    async def _quiesce(self, session: str) -> None:
        """Wait for the session's in-flight requests to finish (new
        ones are already gated)."""
        d = self._dispatcher
        deadline = time.monotonic() + MIGRATION_TIMEOUT
        while d._inflight.get(session, 0):
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"session {session!r} did not quiesce within "
                    f"{MIGRATION_TIMEOUT:.0f}s"
                )
            await asyncio.sleep(0.005)

    # -- fleet-level operations ------------------------------------------------

    async def drain_worker(self, worker_id: str) -> dict:
        """Remove a worker with zero session downtime: stop routing new
        sessions to it, migrate its live sessions away, stop the
        process (graceful drain + final checkpoint). The worker stays
        ``stopped`` and is never restarted."""
        d = self._dispatcher
        if worker_id not in d.shard_map:
            raise ClusterError(
                f"worker {worker_id!r} is not in the shard map"
            )
        if len(d.shard_map) <= 1:
            raise ClusterError(
                "cannot drain the last live worker; grow first"
            )
        d.shard_map.remove_worker(worker_id)
        migrated: List[str] = []
        try:
            for session, owner in sorted(d._sessions.items()):
                if owner != worker_id:
                    continue
                await self.migrate(session)
                migrated.append(session)
        except ClusterError:
            # Leave the worker out of the map (it is being retired),
            # but surface which sessions made it across.
            d.telemetry.emit("cluster_drain_failed", worker=worker_id,
                             migrated=migrated)
            raise
        await d.supervisor.stop_worker(worker_id)
        channel = d._control.pop(worker_id, None)
        if channel is not None:
            await channel.close()
        d.telemetry.emit("cluster_worker_drained", worker=worker_id,
                         migrated=len(migrated))
        return {
            "worker": worker_id,
            "migrated": migrated,
            "stopped": True,
            "workers": list(d.shard_map.workers),
        }

    async def rebalance(self) -> dict:
        """Move every session whose current worker disagrees with the
        shard map — the follow-up to ``grow`` (and to an abandoned
        worker's removal)."""
        d = self._dispatcher
        moved: Dict[str, dict] = {}
        for session, owner in sorted(d._sessions.items()):
            natural = d.shard_map.owner_of(session)
            if owner == natural:
                continue
            handle = d.supervisor.workers.get(natural)
            if handle is None or handle.state != UP:
                continue
            summary = await self.migrate(session, natural)
            moved[session] = {
                "from": summary["from"], "to": summary["to"],
            }
        return {"migrated": moved, "count": len(moved)}

    # -- helpers ---------------------------------------------------------------

    def _require_up(self, worker_id: str) -> None:
        handle = self._dispatcher.supervisor.workers.get(worker_id)
        if handle is None:
            raise ClusterError(f"no such worker: {worker_id!r}")
        if handle.state != UP:
            raise ClusterError(
                f"worker {worker_id} is {handle.state}; migration "
                f"needs an up target"
            )
