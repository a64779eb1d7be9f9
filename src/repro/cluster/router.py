"""The shard router: one asyncio front daemon over N worker daemons.

An :class:`AsyncShardRouter` runs on the transport skeleton of
:mod:`repro.service.aio` and speaks **exactly** the wire formats of
:mod:`repro.service.protocol` -- clients cannot tell a router from a
single daemon -- but answers ``solve`` requests by consistent-hashing
``(backend, spec_hash)`` onto a supervised worker fleet and proxying
the request over a pooled connection.  What the router adds on top of
plain proxying:

* **router-side coalescing** -- concurrent identical requests cost one
  shard round-trip: the first arrival forwards, every overlapping
  duplicate shares the leader's response (with its own ``id``), exactly
  the :class:`~repro.service.service.SolverService` rendezvous pattern
  one level up the topology;
* **failover** -- a dead worker is reported to the supervisor (which
  respawns it, single-flight) while the request is re-routed along the
  ring's preference order; with every worker down the router keeps
  retrying until ``route_timeout`` before answering ``ok: false``.  A
  re-routed solve is safe because the backends are deterministic:
  any worker produces the bit-identical envelope;
* **partitioned sweeps** -- the ``sweep`` and ``subscribe`` verbs ship
  one spec partition per shard and interleave the shard streams back,
  relaying each worker record instead of rebuilding it: the record is
  validated and its fingerprint blob built from the decoded dict, and
  its ``result`` envelope reaches the client as the worker's own bytes
  (only ``seq``, ``id`` and ``shard`` are rewritten);
* **shard metrics** -- per-shard forwarded/failure/degraded and sweep
  counters (the ``metrics`` verb) and per-worker health probes (the
  ``health`` and ``cluster-status`` verbs).

The router holds no solver state at all; stopping it drains the fleet
(every worker flushes its store segments) and merges the worker stores
back into the primary, so a warm restart replays from one store.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Optional

from ..api.spec import canonical_dumps
from ..errors import ClusterError, ReproError
from ..service.aio import AsyncLineServer
from ..service.metrics import ServiceMetrics
from ..service.protocol import (
    CLUSTER_STATUS_OP,
    COMPLETION_OP,
    HELLO_OP,
    PARTIAL_OP,
    SHUTDOWN_OP,
    SUBSCRIBE_OP,
    SUMMARY_OP,
    SWEEP_OP,
    check_completion,
    decode_completion,
    decode_relayed,
    error_response,
    hello_response,
    normalize_request,
    parse_subscribe,
    parse_sweep,
    rejected_completion,
    restamp_completion,
    subscribe_ack,
    subscribe_summary,
    sweep_ack,
    sweep_partial,
    sweep_summary,
)
from ..exec.plan import partition_specs
from .hashing import HashRing, shard_key
from .worker import ClusterSupervisor, WorkerHandle

__all__ = ["AsyncShardRouter", "CLUSTER_STATUS_OP", "boot_router"]


class _WorkerDied(Exception):
    """A round-trip to a worker failed mid-request (connect, write or read)."""


class _WorkerTimeout(Exception):
    """A worker accepted the request but did not answer within the budget.

    Deliberately distinct from :class:`_WorkerDied`: the worker is busy,
    not gone -- re-routing would duplicate a solve that is still
    running, and respawning would kill it.  The request fails honestly
    instead.
    """


class _InFlight:
    """Rendezvous between one forwarded solve and its coalesced duplicates."""

    __slots__ = ("event", "response", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[dict[str, Any]] = None
        #: Duplicates currently parked on this forward (under the
        #: router's in-flight lock); lets tests observe joins before
        #: the leader's round-trip completes.
        self.waiters = 0


class _WorkerPool:
    """A small pool of persistent JSON-Lines connections to one worker.

    Connections are tagged with the worker generation they were opened
    against; a respawned worker (new port, new process) invalidates
    every pooled connection of older generations.
    """

    def __init__(self, handle: WorkerHandle, timeout: float) -> None:
        self.handle = handle
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[tuple[int, socket.socket, Any]] = []

    def _connect(self) -> tuple[int, socket.socket, Any]:
        generation = self.handle.generation
        host, port = self.handle.host, self.handle.port
        if host is None or port is None:
            raise _WorkerDied(f"worker {self.handle.worker_id} has no address")
        try:
            conn = socket.create_connection((host, port), timeout=self.timeout)
        except OSError as error:
            raise _WorkerDied(
                f"worker {self.handle.worker_id} refused a connection: {error}"
            ) from error
        return generation, conn, conn.makefile("rb")

    def request(self, data: dict[str, Any], timeout: Optional[float] = None) -> dict[str, Any]:
        """One round-trip: send a request object, read one response object.

        ``timeout`` caps this round-trip only (the pool default
        otherwise).  A timed-out read raises :class:`_WorkerTimeout`
        (busy worker, request failed), any other socket failure raises
        :class:`_WorkerDied` (dead worker, caller may fail over).  A
        solve answer's ``result`` comes back as a
        :class:`~repro.service.protocol.Fragment` of the worker's own
        text, ready to forward without re-encoding.
        """
        with self._lock:
            while self._idle:
                generation, conn, reader = self._idle.pop()
                if generation == self.handle.generation:
                    break
                conn.close()
            else:
                conn = None
        if conn is None:
            generation, conn, reader = self._connect()
        try:
            conn.settimeout(timeout if timeout is not None else self.timeout)
            conn.sendall((canonical_dumps(data) + "\n").encode("utf-8"))
            line = reader.readline()
        except TimeoutError as error:
            # The connection is desynced (an answer may still arrive);
            # it must not be reused.
            conn.close()
            raise _WorkerTimeout(
                f"worker {self.handle.worker_id} did not answer within "
                f"{timeout if timeout is not None else self.timeout}s"
            ) from error
        except OSError as error:
            conn.close()
            raise _WorkerDied(
                f"worker {self.handle.worker_id} dropped mid-request: {error}"
            ) from error
        if not line:
            conn.close()
            raise _WorkerDied(f"worker {self.handle.worker_id} closed mid-request")
        with self._lock:
            self._idle.append((generation, conn, reader))
        try:
            response = decode_relayed(line)
        except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
            raise _WorkerDied(
                f"worker {self.handle.worker_id} answered a malformed response: {error}"
            ) from error
        if not isinstance(response, dict):
            raise _WorkerDied(f"worker {self.handle.worker_id} answered a non-object")
        return response

    def close(self) -> None:
        with self._lock:
            for _, conn, _ in self._idle:
                conn.close()
            self._idle.clear()


class _ShardCounters:
    """Per-shard routing counters (the router's own view of one worker)."""

    __slots__ = (
        "forwarded",
        "failures",
        "degraded",
        "swept",
        "completed",
        "failed",
        "repartitioned",
    )

    def __init__(self) -> None:
        self.forwarded = 0
        self.failures = 0
        #: True from an observed failure until the next successful
        #: round-trip -- "this shard recently lost a request".
        self.degraded = False
        #: Distributed-sweep accounting: specs assigned to this shard
        #: (re-assignments count again), spec records it answered, spec
        #: records that answered with an error, and specs moved *away*
        #: after this shard died mid-partition.
        self.swept = 0
        self.completed = 0
        self.failed = 0
        self.repartitioned = 0

    def sweep_row(self) -> dict[str, int]:
        return {
            "swept": self.swept,
            "completed": self.completed,
            "failed": self.failed,
            "repartitioned": self.repartitioned,
        }


class _SweepState:
    """Shared accounting of one partitioned sweep across shard threads.

    Every shard stream funnels through here.  A worker record is relayed,
    not rebuilt: it is validated (:func:`~repro.service.protocol.
    check_completion`) and its fingerprint blob built from the decoded
    envelope dict, and its ``result`` stays the worker's pre-encoded
    bytes.  A record that fails validation is replaced by a typed
    ``ok: false`` record for its spec and counted in ``errors``, so the
    client gets one line per spec either way and no malformed envelope
    reaches it as an ok record.  Records then get their global ``seq``
    and the client's ``id`` stamped under one lock (so the wire order
    matches the sequence numbers), a completed-spec-hash set guards
    against duplicate records when a failover races a late delivery,
    and per-shard counters accumulate for the summary's partition
    table.  Emission happens under the lock too -- a slow client
    backpressures every shard reader, which is exactly the
    bounded-memory contract of the subscription bridge.  Sweep records
    also name their ``shard``; subscribe records keep the single-daemon
    shape.
    """

    def __init__(
        self, router: "AsyncShardRouter", bridge: Any, request_id: Any, op: str
    ) -> None:
        self.router = router
        self.bridge = bridge
        self.request_id = request_id
        self.stamp_shard = op == SWEEP_OP
        self.lock = threading.Lock()
        self.aborted = False
        self.seq = 0
        self.errors = 0
        self.tiers: dict[str, int] = {}
        #: Fingerprint blobs of the ok records, for the summary digest.
        self.blobs: list[str] = []
        #: Fold-mode partial records in arrival order: (worker_id, order, record).
        self.partials: list[tuple[Any, int, dict[str, Any]]] = []
        self.completed: set[str] = set()
        self.repartitioned = 0
        self.shard_stats: dict[Any, dict[str, int]] = {}

    def _shard(self, worker_id: Any) -> dict[str, int]:
        stats = self.shard_stats.get(worker_id)
        if stats is None:
            stats = self.shard_stats[worker_id] = {
                "specs": 0,
                "completed": 0,
                "failed": 0,
                "repartitioned": 0,
            }
        return stats

    def assign(self, worker_id: Any, count: int) -> None:
        with self.lock:
            self._shard(worker_id)["specs"] += count

    def unfinished(self, pairs: list[tuple[Any, str]]) -> list[tuple[Any, str]]:
        """The subset of ``pairs`` no shard has answered yet."""
        with self.lock:
            return [pair for pair in pairs if pair[1] not in self.completed]

    def on_completion(self, worker_id: Any, record: dict[str, Any], spec_hash: str) -> None:
        """Validate, re-sequence and forward one worker record of ``spec_hash``."""
        from ..experiments.manifest import envelope_blob

        try:
            envelope = check_completion(record, spec_hash)
            blob = None if envelope is None else envelope_blob(envelope)
        except (ReproError, ValueError) as error:  # ValueError: NaN in the envelope
            record = rejected_completion(
                record,
                ClusterError(f"worker {worker_id} streamed a malformed record: {error}"),
            )
            blob = None
        with self.lock:
            if spec_hash in self.completed:
                return  # a failover raced a late delivery: keep the first
            self.completed.add(spec_hash)
            restamp_completion(
                record,
                self.seq,
                self.request_id,
                worker_id if self.stamp_shard else None,
            )
            self.seq += 1
            tier = record["served_by"]
            self.tiers[tier] = self.tiers.get(tier, 0) + 1
            stats = self._shard(worker_id)
            stats["completed"] += 1
            failed = blob is None
            if failed:
                self.errors += 1
                stats["failed"] += 1
            else:
                self.blobs.append(blob)
            self.bridge.put(record)
        self.router._record_sweep(worker_id, completed=1, failed=1 if failed else 0)

    def on_partial(
        self, worker_id: Any, record: dict[str, Any], partition_hashes: list[str]
    ) -> None:
        """Absorb one shard's fold-mode aggregate (covers its whole partition)."""
        records = int(record.get("records", 0))
        errors = int(record.get("errors", 0))
        with self.lock:
            self.partials.append((worker_id, len(self.partials), record))
            self.completed.update(partition_hashes)
            self.seq += records
            self.errors += errors
            for tier, count in (record.get("sources") or {}).items():
                self.tiers[tier] = self.tiers.get(tier, 0) + int(count)
            stats = self._shard(worker_id)
            stats["completed"] += records
            stats["failed"] += errors
        self.router._record_sweep(worker_id, completed=records, failed=errors)

    def on_repartition(self, failed_worker: Any, count: int) -> None:
        with self.lock:
            self.repartitioned += count
            self._shard(failed_worker)["repartitioned"] += count
        self.router._record_sweep(failed_worker, repartitioned=count)

    def partition_table(self) -> list[dict[str, Any]]:
        with self.lock:
            return [
                {"worker": worker_id, **stats}
                for worker_id, stats in sorted(
                    self.shard_stats.items(), key=lambda item: str(item[0])
                )
            ]


class AsyncShardRouter(AsyncLineServer):
    """The sharded serving front: routes, coalesces, fails over, partitions.

    Request verbs (``solve``, ``health``, ``metrics``, ``hello``,
    ``cluster-status``, ``shutdown``) are answered on the request thread
    pool by :meth:`_dispatch`; a ``solve`` goes through router-side
    coalescing and ring failover to its home shard.

    The ``sweep`` and ``subscribe`` verbs share one partitioned path:
    instead of one routed solve per spec, the router partitions the
    deduplicated suite across shards by the ``(backend, spec_hash)``
    routing key and ships each partition as **one** ``sweep`` request,
    which the worker runs through its local batch plan (LRU, store,
    kernel batch, pool -- every tier active) while streaming records
    back over a dedicated connection per shard.  The router interleaves
    the shard streams in completion order; when a shard dies
    mid-partition its unfinished specs are re-partitioned along each
    spec's :meth:`HashRing.preference` failover order (next candidate
    per retry round, with backoff, bounded by ``route_timeout`` from the
    first failure and reset on progress), so an accepted sweep finishes
    if any worker survives.  A ``subscribe`` keeps its own ack and
    summary (``fanout`` is the partition count; the summary digest is
    the local run's).  In ``fold`` mode the workers ship merged
    per-``(kind, backend)`` aggregates and per-result blob hashes
    instead of envelopes; the router merges the partials (deterministic
    worker order) and forwards one table record.

    Args:
        supervisor: the worker fleet (already started).
        host / port: bind address of the router itself.
        backend: default backend for requests that don't name one --
            part of the routing key, so it must be pinned router-side.
        worker_timeout: per-round-trip socket timeout against a worker.
        route_timeout: total time a request may spend cycling the ring
            (including waiting out worker respawns) before ``ok: false``.
        executor_workers / subscription_queue_max / connection_sndbuf:
            as for :class:`~repro.service.aio.AsyncLineServer`.
    """

    def __init__(
        self,
        supervisor: ClusterSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "auto",
        worker_timeout: float = 120.0,
        route_timeout: float = 60.0,
        executor_workers: Optional[int] = None,
        subscription_queue_max: Optional[int] = None,
        connection_sndbuf: Optional[int] = None,
    ) -> None:
        self.supervisor = supervisor
        self.backend = backend
        self.worker_timeout = worker_timeout
        self.route_timeout = route_timeout
        self.ring = HashRing([handle.worker_id for handle in supervisor.handles])
        self.metrics = ServiceMetrics()
        self._pools = {
            handle.worker_id: _WorkerPool(handle, worker_timeout)
            for handle in supervisor.handles
        }
        self._shards = {handle.worker_id: _ShardCounters() for handle in supervisor.handles}
        self._shard_lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._coalesced = 0
        self._reroutes = 0
        self._started = time.time()
        super().__init__(
            host=host,
            port=port,
            executor_workers=executor_workers,
            subscription_queue_max=subscription_queue_max,
            connection_sndbuf=connection_sndbuf,
        )

    # -- request verbs ---------------------------------------------------------
    def answer_request(self, data: Any, handoff: Any = None) -> dict[str, Any]:
        if not isinstance(data, dict):
            return error_response(
                "?", ReproError(f"request must be a JSON object, got {type(data).__name__}")
            )
        op, data, request_id = normalize_request(data)
        return self._dispatch(op, data, request_id)

    def _dispatch(self, op: Any, data: dict[str, Any], request_id: Any) -> dict[str, Any]:
        try:
            if op == "solve":
                return self._route_solve(data, request_id)
            if op == "health":
                return {"ok": True, "op": "health", "health": self.health()}
            if op == "metrics":
                return {"ok": True, "op": "metrics", "metrics": self.metrics_snapshot()}
            if op == HELLO_OP:
                return hello_response(data, request_id)
            if op == CLUSTER_STATUS_OP:
                return {"ok": True, "op": CLUSTER_STATUS_OP, "cluster": self.cluster_status()}
            if op == SHUTDOWN_OP:
                return {"ok": True, "op": SHUTDOWN_OP, "stopping": True}
            raise ReproError(
                f"unknown op {op!r}; expected solve, health, metrics, {HELLO_OP}, "
                f"{CLUSTER_STATUS_OP} or {SHUTDOWN_OP}"
            )
        except Exception as error:  # noqa: BLE001 - a request must never kill the stream
            return error_response(str(op), error, request_id)

    # -- solve routing ---------------------------------------------------------
    def _route_solve(self, data: dict[str, Any], request_id: Any) -> dict[str, Any]:
        from ..api.spec import spec_from_dict

        started = time.perf_counter()
        spec_data = data.get("spec")
        if not isinstance(spec_data, dict):
            raise ReproError('solve request needs a "spec" object')
        backend = data.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ReproError('"backend" must be a string backend name')
        effective = backend if backend is not None else self.backend
        spec = spec_from_dict(spec_data)
        key = shard_key(effective, spec.canonical_hash())
        # The forwarded line is normalised: no id (the leader and every
        # coalesced duplicate stamp their own onto a shared response)
        # and the backend always explicit -- the request was keyed and
        # coalesced under the *router's* effective backend, so the
        # worker must not substitute its own default.
        forward: dict[str, Any] = {"op": "solve", "spec": spec_data, "backend": effective}

        with self._inflight_lock:
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = self._inflight[key] = _InFlight()
            else:
                entry.waiters += 1
        if not leader:
            # Unbounded, like SolverService followers: the leader's
            # finally below *always* resolves the entry, and the leader
            # itself is bounded by the routing deadline.
            entry.event.wait()
            response = entry.response
            if response is None:  # pragma: no cover - defensive
                raise ClusterError("coalesced request never received its answer")
            latency = time.perf_counter() - started
            with self._shard_lock:
                self._coalesced += 1
            # Mirror the leader's accounting: a shared failure is an
            # error for every duplicate too, not an answered request.
            if response.get("ok"):
                self.metrics.record(effective, "coalesced", latency)
            else:
                self.metrics.record_error(effective, latency)
            return self._stamp(response, request_id)

        try:
            response = self._forward(key, forward)
            entry.response = response
        except BaseException as error:
            # The leader's failure must count too (followers mirror it):
            # a dead fleet otherwise reports zero errors while every
            # client is told ok:false.
            self.metrics.record_error(effective, time.perf_counter() - started)
            entry.response = error_response("solve", error)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            entry.event.set()

        latency = time.perf_counter() - started
        if response.get("ok"):
            self.metrics.record(effective, response.get("served_by", "solve"), latency)
        else:
            self.metrics.record_error(effective, latency)
        return self._stamp(response, request_id)

    @staticmethod
    def _stamp(response: dict[str, Any], request_id: Any) -> dict[str, Any]:
        """A caller-specific copy of a (possibly shared) response."""
        stamped = dict(response)
        stamped.pop("id", None)
        if request_id is not None:
            stamped["id"] = request_id
        return stamped

    def _forward(self, key: str, forward: dict[str, Any]) -> dict[str, Any]:
        """Send one request to the key's home shard, failing over along the ring.

        An accepted request is never dropped while any worker can be
        reached (or respawned) within ``route_timeout``: every failure
        is reported to the supervisor (which respawns the worker in the
        background) and the request moves to the next shard in the
        key's deterministic preference order, cycling with a small
        backoff so a single-worker cluster rides out its own respawn.
        """
        candidates = self.ring.preference(key)
        # ``route_timeout`` bounds the *failover cycling* over dead
        # workers; each individual round-trip gets the full
        # ``worker_timeout`` -- a solve legitimately slower than the
        # routing deadline must still succeed, exactly as it would
        # against the single-process daemon.
        deadline = time.monotonic() + self.route_timeout
        cycle = 0
        attempts = 0
        last_failure: Optional[str] = None
        while True:
            for position, worker_id in enumerate(candidates):
                if attempts and time.monotonic() > deadline:
                    break  # at least one attempt always runs
                handle = self.supervisor.handles[worker_id]
                generation = handle.generation
                attempts += 1
                try:
                    response = self._pools[worker_id].request(forward)
                except _WorkerTimeout as timeout_error:
                    # Busy, not dead: the solve may still be running on
                    # that shard, so no respawn and no re-route (a second
                    # shard would duplicate the work and take just as
                    # long).  Fail the request honestly instead.
                    self._record_shard_failure(worker_id)
                    raise ClusterError(str(timeout_error)) from timeout_error
                except _WorkerDied as death:
                    last_failure = str(death)
                    self._record_shard_failure(worker_id)
                    self._report_failure(handle, generation)
                    continue
                self._record_shard_ok(worker_id, rerouted=position > 0 or cycle > 0)
                return response
            cycle += 1
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"no shard could answer within {self.route_timeout}s "
                    f"({attempts} attempt(s) over {len(candidates)} worker(s)): "
                    f"{last_failure}"
                )
            time.sleep(min(0.05 * cycle, 0.5))

    def _record_shard_failure(self, worker_id: int) -> None:
        with self._shard_lock:
            counters = self._shards[worker_id]
            counters.failures += 1
            counters.degraded = True

    def _record_shard_ok(self, worker_id: int, rerouted: bool) -> None:
        with self._shard_lock:
            counters = self._shards[worker_id]
            counters.forwarded += 1
            counters.degraded = False
            if rerouted:
                self._reroutes += 1

    def _record_sweep(
        self,
        worker_id: int,
        swept: int = 0,
        completed: int = 0,
        failed: int = 0,
        repartitioned: int = 0,
    ) -> None:
        """Accumulate distributed-sweep deltas onto one shard's counters."""
        with self._shard_lock:
            counters = self._shards.get(worker_id)
            if counters is None:  # pragma: no cover - defensive
                return
            counters.swept += swept
            counters.completed += completed
            counters.failed += failed
            counters.repartitioned += repartitioned

    def _report_failure(self, handle: WorkerHandle, observed_generation: int) -> None:
        """Hand a death report to the supervisor without blocking routing."""
        threading.Thread(
            target=self.supervisor.ensure_alive,
            args=(handle, observed_generation),
            daemon=True,
        ).start()

    # -- introspection ---------------------------------------------------------
    def waiting_for(self, spec: Any, backend: Optional[str] = None) -> int:
        """Duplicates currently coalesced onto a spec's in-flight forward."""
        effective = backend if backend is not None else self.backend
        key = shard_key(effective, spec.canonical_hash())
        with self._inflight_lock:
            entry = self._inflight.get(key)
            return entry.waiters if entry is not None else 0

    #: Health/metrics probes answer from memory, so a worker that cannot
    #: answer within seconds is effectively down for observability
    #: purposes -- and an unbounded probe against a wedged worker would
    #: hang the health verb (and stall a concurrent graceful stop).
    PROBE_TIMEOUT = 5.0

    def _probe(self, handle: WorkerHandle, op: str) -> Optional[dict[str, Any]]:
        """One best-effort verb round-trip to a worker (None when down)."""
        try:
            response = self._pools[handle.worker_id].request(
                {"op": op}, timeout=self.PROBE_TIMEOUT
            )
        except (_WorkerDied, _WorkerTimeout):
            return None
        if not response.get("ok"):
            return None
        return response.get(op)

    def _shard_rows(self, probe: Optional[str] = None) -> list[dict[str, Any]]:
        rows = []
        with self._shard_lock:
            counters = {
                worker_id: (
                    shard.forwarded,
                    shard.failures,
                    shard.degraded,
                    shard.sweep_row(),
                )
                for worker_id, shard in self._shards.items()
            }
        handles = self.supervisor.handles
        probes: dict[int, Optional[dict[str, Any]]] = {}
        if probe is not None:
            # Probe the shards concurrently: a wedged worker costs one
            # PROBE_TIMEOUT for the whole verb, not one per shard.
            def probe_one(handle: WorkerHandle) -> None:
                probes[handle.worker_id] = self._probe(handle, probe)

            threads = [
                threading.Thread(target=probe_one, args=(handle,), daemon=True)
                for handle in handles
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=self.PROBE_TIMEOUT + 5.0)
        for handle in handles:
            row = handle.describe()
            forwarded, failures, degraded, sweeps = counters[handle.worker_id]
            row.update(
                forwarded=forwarded, failures=failures, degraded=degraded, sweeps=sweeps
            )
            if probe is not None:
                row[probe] = probes.get(handle.worker_id)
            rows.append(row)
        return rows

    def health(self) -> dict[str, Any]:
        """Router liveness plus a per-worker ``health`` probe."""
        shards = self._shard_rows(probe="health")
        alive = sum(1 for row in shards if row["alive"])
        return {
            "status": "draining" if self.stopping else "serving",
            "role": "router",
            "backend": self.backend,
            "workers": len(shards),
            "alive": alive,
            "uptime_s": round(time.time() - self._started, 3),
            "shards": shards,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Router request metrics plus per-shard counters and worker metrics."""
        snapshot = self.metrics.snapshot()
        with self._shard_lock:
            coalesced = self._coalesced
            reroutes = self._reroutes
            degraded = sorted(
                worker_id for worker_id, shard in self._shards.items() if shard.degraded
            )
        snapshot["cluster"] = {
            "workers": len(self.supervisor.handles),
            "router_coalesced": coalesced,
            "reroutes": reroutes,
            "worker_restarts": sum(handle.restarts for handle in self.supervisor.handles),
            "degraded": degraded,
        }
        snapshot["transport"] = self.transport.snapshot()
        snapshot["shards"] = self._shard_rows(probe="metrics")
        snapshot["subscriptions"] = self.subscription_stats()
        return snapshot

    def cluster_status(self) -> dict[str, Any]:
        """The one-stop shard table for ``repro cluster status``."""
        status = self.health()
        with self._shard_lock:
            status["reroutes"] = self._reroutes
            status["router_coalesced"] = self._coalesced
        status["worker_restarts"] = sum(
            handle.restarts for handle in self.supervisor.handles
        )
        return status

    # -- the sweep + subscribe verbs -------------------------------------------
    def subscribe_open(self, data: dict[str, Any], request_id: Any) -> tuple[Any, dict]:
        if data.get("op") == SWEEP_OP:
            op = SWEEP_OP
            specs, backend, mode = parse_sweep(data)
        else:
            op = SUBSCRIBE_OP
            specs, backend = parse_subscribe(data)
            mode = "stream"
        effective = backend if backend is not None else self.backend
        ring = self.ring
        partitions, total, unique = partition_specs(
            specs,
            effective,
            lambda spec_hash: ring.lookup(shard_key(effective, spec_hash)),
        )
        # Workers get the client's own spec dicts (parsed and hashed
        # above), relayed as written rather than re-encoded.
        client_specs = data["specs"]
        assignments = []
        for partition in partitions:
            self._record_sweep(partition.node, swept=len(partition.specs))
            pairs = [(client_specs[i], h) for i, h in zip(partition.positions, partition.hashes)]
            assignments.append((partition.node, pairs))
        if op == SUBSCRIBE_OP:
            ack = subscribe_ack(request_id, total, unique, effective, fanout=len(partitions))
        else:
            partition_rows = [
                {"worker": partition.node, "specs": len(partition.specs)}
                for partition in partitions
            ]
            ack = sweep_ack(
                request_id,
                total,
                unique,
                effective,
                mode,
                fanout=len(partitions),
                partitions=partition_rows,
            )
        return (op, assignments, effective, request_id, total, unique, mode), ack

    def _run_shard_sweep(
        self,
        state: _SweepState,
        worker_id: int,
        pairs: list[tuple[Any, str]],
        effective: str,
        mode: str,
    ) -> list[tuple[Any, str]]:
        """Run one partition on one worker over a dedicated stream.

        The worker pools are strict request/response (a pooled
        connection must never carry a multi-record stream), so each
        partition opens its own JSON-Lines connection for the sweep's
        lifetime.  Returns the ``(spec dict, hash)`` pairs still unanswered
        when the stream ends -- empty on success, the unfinished tail on
        a death (reported to the supervisor for a background respawn).
        """
        handle = self.supervisor.handles[worker_id]
        generation = handle.generation
        host, port = handle.host, handle.port
        try:
            if host is None or port is None:
                raise _WorkerDied(f"worker {worker_id} has no address")
            conn = socket.create_connection((host, port), timeout=self.worker_timeout)
        except (OSError, _WorkerDied):
            self._record_shard_failure(worker_id)
            self._report_failure(handle, generation)
            return state.unfinished(pairs)
        partition_hashes = [spec_hash for _, spec_hash in pairs]
        routed = set(partition_hashes)
        try:
            with conn:
                conn.settimeout(self.worker_timeout)
                reader = conn.makefile("rb")
                request = {
                    "op": SWEEP_OP,
                    "mode": "fold" if mode == "fold" else "stream",
                    "backend": effective,
                    "specs": [spec_data for spec_data, _ in pairs],
                }
                conn.sendall((canonical_dumps(request) + "\n").encode("utf-8"))
                raw = reader.readline()
                ack = json.loads(raw.decode("utf-8")) if raw else None
                if not isinstance(ack, dict) or not ack.get("ok"):
                    detail = ack.get("error") if isinstance(ack, dict) else "no ack"
                    raise _WorkerDied(f"worker {worker_id} refused the sweep: {detail}")
                while True:
                    if state.aborted or self.stopping:
                        return []  # the pump reports the abort, not the shard
                    raw = reader.readline()
                    if not raw:
                        raise _WorkerDied(
                            f"worker {worker_id} closed its stream mid-partition"
                        )
                    record = decode_completion(raw)
                    if not isinstance(record, dict):
                        raise _WorkerDied(
                            f"worker {worker_id} streamed a non-object record"
                        )
                    op = record.get("op")
                    if op == COMPLETION_OP:
                        key = record.get("key")
                        spec_hash = key.get("spec_hash") if isinstance(key, dict) else None
                        if spec_hash not in routed or key.get("backend") != effective:
                            # Not attributable to a spec of this partition:
                            # the stream itself is corrupt.
                            raise _WorkerDied(
                                f"worker {worker_id} streamed a record for a spec "
                                f"it was not routed: {key!r}"
                            )
                        state.on_completion(worker_id, record, spec_hash)
                    elif op == PARTIAL_OP and record.get("ok"):
                        state.on_partial(worker_id, record, partition_hashes)
                    elif op == SUMMARY_OP:
                        if not record.get("ok"):
                            raise _WorkerDied(
                                f"worker {worker_id} failed its partition: "
                                f"{record.get('error', 'unknown error')}"
                            )
                        break
                    elif not record.get("ok"):
                        raise _WorkerDied(
                            f"worker {worker_id} aborted its partition: "
                            f"{record.get('error', 'unknown error')}"
                        )
        except (OSError, ValueError, _WorkerDied):
            self._record_shard_failure(worker_id)
            self._report_failure(handle, generation)
            return state.unfinished(pairs)
        self._record_shard_ok(worker_id, rerouted=False)
        return []

    def subscribe_pump(self, job: Any, bridge: Any) -> None:
        """Drive one partitioned sweep or subscription: fan out, merge, fail over.

        Retry rounds are barriers: a spec is only re-assigned after the
        stream that owned it ended, so within a round the in-flight
        partitions are disjoint by spec hash.  Round ``r`` re-assigns an
        unfinished spec to ``preference[r % len]`` of its routing key --
        the ring's deterministic failover order, cycling back to the
        (respawned) home shard on a full lap.  The failover budget is
        ``route_timeout`` from the first failure, reset whenever a round
        makes progress; exhausting it aborts the stream with an ``ok:
        false`` record, exactly like a routed solve that ran out of
        shards.
        """
        from concurrent.futures import ThreadPoolExecutor, as_completed

        from ..analysis.streaming import EnvelopeAggregate
        from ..experiments.manifest import digest_blob_hashes, digest_blobs

        op, assignments, effective, request_id, total, unique, mode = job
        started = time.perf_counter()
        state = _SweepState(self, bridge, request_id, op)
        for worker_id, pairs in assignments:
            state.assign(worker_id, len(pairs))
        ring = self.ring
        deadline: Optional[float] = None
        round_index = 0
        while assignments:
            if self.stopping:
                state.aborted = True
                aborted = "sweep" if op == SWEEP_OP else "subscription"
                bridge.put(
                    error_response(
                        op,
                        ClusterError(f"router is shutting down, {aborted} aborted"),
                        request_id,
                    )
                )
                return
            progress_before = state.seq
            with ThreadPoolExecutor(
                max_workers=max(1, len(assignments)),
                thread_name_prefix="repro-sweep-shard",
            ) as pool:
                futures = {
                    pool.submit(
                        self._run_shard_sweep, state, worker_id, pairs, effective, mode
                    ): worker_id
                    for worker_id, pairs in assignments
                }
                leftovers: list[tuple[Any, list[tuple[Any, str]]]] = []
                for future in as_completed(futures):
                    unfinished = future.result()
                    if unfinished:
                        leftovers.append((futures[future], unfinished))
            if self.stopping:
                continue  # the loop head reports the abort
            if not leftovers:
                break
            now = time.monotonic()
            if state.seq > progress_before:
                deadline = None  # the fleet is advancing: reset the budget
            if deadline is None:
                deadline = now + self.route_timeout
            elif now > deadline:
                state.aborted = True
                stranded = sum(len(pairs) for _, pairs in leftovers)
                bridge.put(
                    error_response(
                        op,
                        ClusterError(
                            f"{op} made no progress within {self.route_timeout}s "
                            f"of the last shard failure; {stranded} spec(s) unfinished"
                        ),
                        request_id,
                    )
                )
                return
            round_index += 1
            regrouped: dict[Any, list[tuple[Any, str]]] = {}
            for failed_worker, pairs in leftovers:
                state.on_repartition(failed_worker, len(pairs))
                for spec_data, spec_hash in pairs:
                    candidates = ring.preference(shard_key(effective, spec_hash))
                    target = candidates[round_index % len(candidates)]
                    regrouped.setdefault(target, []).append((spec_data, spec_hash))
            assignments = sorted(regrouped.items(), key=lambda item: str(item[0]))
            for worker_id, pairs in assignments:
                state.assign(worker_id, len(pairs))
                self._record_sweep(worker_id, swept=len(pairs))
            # Ride out a single-worker respawn exactly like _forward does.
            time.sleep(min(0.1 * round_index, 0.5))
        wall_time_ms = (time.perf_counter() - started) * 1e3
        if op == SUBSCRIBE_OP:
            bridge.put(
                subscribe_summary(
                    request_id,
                    records=state.seq,
                    errors=state.errors,
                    total=total,
                    unique=unique,
                    fingerprint_digest=digest_blobs(state.blobs),
                    sources=state.tiers,
                    wall_time_ms=wall_time_ms,
                )
            )
            return
        if mode == "fold":
            merged = EnvelopeAggregate()
            blob_hashes: set[str] = set()
            failures: list[dict[str, Any]] = []
            # Deterministic merge order (worker id, then arrival) so the
            # folded moments are reproducible run to run.
            for _, _, record in sorted(
                state.partials, key=lambda item: (str(item[0]), item[1])
            ):
                merged.merge(EnvelopeAggregate.from_wire(record.get("fold") or {}))
                blob_hashes.update(record.get("blob_hashes") or [])
                failures.extend(record.get("failures") or [])
            # blob_hashes=None: the hashes stay router-side; the client
            # gets the fold_digest in the summary as its proof.
            bridge.put(
                sweep_partial(
                    request_id,
                    fold=merged.to_wire(),
                    blob_hashes=None,
                    sources=state.tiers,
                    records=state.seq,
                    errors=state.errors,
                    failures=failures or None,
                )
            )
            digests = {"fold_digest": digest_blob_hashes(blob_hashes)}
        else:
            digests = {"fingerprint_digest": digest_blobs(state.blobs)}
        bridge.put(
            sweep_summary(
                request_id,
                records=state.seq,
                errors=state.errors,
                total=total,
                unique=unique,
                mode=mode,
                tiers=state.tiers,
                wall_time_ms=wall_time_ms,
                partitions=state.partition_table(),
                repartitioned=state.repartitioned,
                **digests,
            )
        )

    # -- lifecycle -------------------------------------------------------------
    def _drain(self, timeout: Optional[float]) -> None:
        for pool in self._pools.values():
            pool.close()
        self.supervisor.stop(drain=True, timeout=timeout if timeout is not None else 30.0)


def boot_router(supervisor: ClusterSupervisor, **router_kwargs: Any) -> AsyncShardRouter:
    """Start a fleet and build its router, leak-proof on failure.

    The workers are detached processes; any failure between spawning
    them and having a router that can stop them would otherwise leave
    the fleet running unsupervised.  Every caller (CLI, benchmark,
    smoke) boots through here so that invariant lives in one place.
    """
    try:
        supervisor.start()
        return AsyncShardRouter(supervisor, **router_kwargs)
    except BaseException:
        supervisor.stop(drain=False)
        raise
