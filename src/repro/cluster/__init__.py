"""``repro.cluster`` -- the sharded, multi-process serving topology.

The single-process daemon (:mod:`repro.service`) tops out at one
interpreter; this package is the next rung of the ROADMAP's scaling
ladder: N worker processes, each a full ``repro serve`` daemon with its
own :class:`~repro.service.service.SolverService` and store directory,
behind one :class:`AsyncShardRouter` front daemon.

* :mod:`repro.cluster.hashing` -- :class:`HashRing`: deterministic
  consistent hashing of the ``(backend, spec_hash)`` routing key onto
  shards, with a stable failover preference order;
* :mod:`repro.cluster.worker`  -- :class:`ClusterSupervisor`:
  spawn/respawn of the worker fleet (ephemeral ports published through
  ``--port-file``), store seeding from the primary on start and
  store merge back into the primary on drain;
* :mod:`repro.cluster.router`  -- :class:`AsyncShardRouter`: the
  asyncio front daemon speaking the unchanged wire formats, with
  router-side request coalescing, bounded-retry failover along the
  ring, partitioned ``sweep``/``subscribe`` streams, per-shard metrics
  and worker health probes.

The spec hash already content-addresses the request space (the LRU,
the store and the coalescing all key on it), so sharding by it gives
every worker an exclusive, deterministic slice: caches never overlap,
duplicate traffic lands on the worker that has the answer, and any
worker can stand in for any other because the backends produce
bit-identical envelopes.

Quickstart (also ``repro serve --workers 4``)::

    from repro.cluster import ClusterSupervisor, boot_router

    supervisor = ClusterSupervisor(workers=4, backend="auto", store=".repro-store")
    with boot_router(supervisor, port=7767) as router:
        router.serve_forever()   # clients speak the ordinary wire format
"""

from .hashing import HashRing, shard_key
from .router import CLUSTER_STATUS_OP, AsyncShardRouter, boot_router
from .worker import ClusterSupervisor, WorkerHandle

__all__ = [
    "AsyncShardRouter",
    "CLUSTER_STATUS_OP",
    "ClusterSupervisor",
    "HashRing",
    "WorkerHandle",
    "boot_router",
    "shard_key",
]
