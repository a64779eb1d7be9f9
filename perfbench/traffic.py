"""The three workloads: set-up, the closed-loop timed phase, answer checks.

Each workload drives real ``repro serve`` processes from this one client
process, over at most two connections (the host has two cores).  An op
is one client call: one ``sweep`` request in ``sweep-fleet``, one
``solve`` request otherwise.  Answers are checked against an in-process
``BatchRunner(backend="vectorized")`` solve of the same generated specs,
outside the timed phase.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import gen
from repro.service.client import ServiceClient
from servers import BenchError, Server

BACKEND = "vectorized"


@dataclass
class Op:
    """One client call of the timed phase."""

    start_ns: int
    end_ns: int
    specs: int
    ok: int = 0
    rid: Any = None
    served_by: dict[str, int] = field(default_factory=dict)
    wire_bytes: int = 0
    #: sweep-fleet only: largest / mean partition size, and specs moved.
    skew: float = 0.0
    repartitioned: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _connect(server: Server, binary: bool) -> ServiceClient:
    return ServiceClient(server.host, server.port, binary=binary, timeout=60.0)


def _fingerprint_form(result: dict[str, Any]) -> dict[str, Any]:
    """A result envelope minus its run-specific provenance, in place.

    The same two fields ``SolveResult.fingerprint`` neutralises; what is
    left must equal the reference envelope exactly.
    """
    provenance = result["provenance"]
    provenance.pop("wall_time", None)
    provenance.pop("from_store", None)
    return result


def _reference(specs: list[dict[str, Any]]) -> list[Any]:
    from repro.api import BatchRunner
    from repro.api.spec import spec_from_dict

    results, _ = BatchRunner(backend=BACKEND, cache_size=0).run(
        [spec_from_dict(spec) for spec in specs]
    )
    return results


class Workload:
    name = ""
    workers = 1
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.clients: list[Any] = []
        #: Per-workload notes for the report (reference checks, store audit).
        self.notes: dict[str, Any] = {}

    def prepare(self) -> None:
        """Work done before any server starts (not part of set-up time)."""

    def setup(self, server: Server) -> None:
        """Prefill and warm up a freshly booted server."""

    def timed(self, seconds: float) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], server: Server) -> None:
        """Compare answers with the reference; lowers ``Op.ok`` on mismatch."""

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []


class SweepFleet(Workload):
    name = "sweep-fleet"
    workers = 2
    why = (
        "the fleet's sweep path: partitioning, the batch search kernel, per-spec "
        "envelopes, per-worker store writes and their merge on drain"
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.hashes: dict[int, list[str]] = {}
        self.digests: dict[int, Optional[str]] = {}

    def _sweep(self, client: Any, specs: list[dict[str, Any]], rid: Any) -> tuple[Any, list]:
        stream = client.sweep(specs, mode="stream", request_id=rid)
        records = list(stream)
        if stream.summary is None:  # pragma: no cover - the iterator ends on it
            raise BenchError("sweep ended without a summary")
        return stream, records

    def setup(self, server: Server) -> None:
        self.close()
        client = _connect(server, binary=False)
        self.clients = [client]
        warmup = gen.sweep_specs(self.seed, 0, stream="warmup-sweep")
        stream, records = self._sweep(client, warmup, "warmup")
        if stream.summary.get("errors") or len(records) != len(warmup):
            raise BenchError(f"warm-up sweep failed: {stream.summary}")

    def timed(self, seconds: float) -> list[Op]:
        client = self.clients[0]
        ops: list[Op] = []
        deadline = time.monotonic() + seconds
        index = 0
        while time.monotonic() < deadline:
            specs = gen.sweep_specs(self.seed, index)
            bytes_before = client.bytes_sent + client.bytes_received
            start = time.monotonic_ns()
            stream, records = self._sweep(client, specs, index)
            end = time.monotonic_ns()
            op = Op(start, end, len(specs), rid=index)
            op.wire_bytes = client.bytes_sent + client.bytes_received - bytes_before
            hashes = []
            for record in records:
                if record.get("ok") and isinstance(record.get("result"), dict):
                    op.ok += 1
                    hashes.append(record["key"]["spec_hash"])
                tier = record.get("served_by", "?")
                op.served_by[tier] = op.served_by.get(tier, 0) + 1
            sizes = [row["specs"] for row in stream.ack.get("partitions", [])]
            op.skew = max(sizes) / (sum(sizes) / len(sizes)) if sizes else 0.0
            op.repartitioned = int(stream.summary.get("repartitioned") or 0)
            self.hashes[index] = hashes
            self.digests[index] = stream.summary.get("fingerprint_digest")
            ops.append(op)
            index += 1
        return ops

    def check(self, ops: list[Op], server: Server) -> None:
        from repro.api.store import ResultStore
        from repro.experiments.manifest import fingerprint_digest

        mismatched = 0
        answered: list[str] = []
        for op in ops:
            reference = _reference(gen.sweep_specs(self.seed, op.rid))
            expected = sorted(result.provenance.spec_hash for result in reference)
            if (
                self.digests[op.rid] != fingerprint_digest(reference)
                or sorted(self.hashes[op.rid]) != expected
            ):
                mismatched += 1
                op.ok = 0
            answered.extend(self.hashes[op.rid])
        # After the drain the primary store must hold every answered spec
        # (and the warm-up sweep's) exactly once.
        store = ResultStore(server.store)
        stats = store.stats()
        missing = sum(not store.contains(BACKEND, spec_hash) for spec_hash in answered)
        expected_records = len(set(answered)) + gen.SWEEP_SPECS
        self.notes = {
            "sweeps_mismatched": mismatched,
            "store_records": stats.records,
            "store_unique": stats.unique,
            "store_missing": missing,
            "store_bytes": stats.total_bytes,
        }
        if missing or stats.records != stats.unique or stats.unique != expected_records:
            # The merge lost or duplicated results: no sweep can be trusted.
            for op in ops:
                op.ok = 0


class ServeCold(Workload):
    name = "serve-cold"
    why = (
        "every request compiles the other robot's trajectory afresh and runs the "
        "pair kernel; the router and cache tiers do nothing"
    )
    #: One request in this many has its fingerprint checked.
    SAMPLE_EVERY = 16
    #: Solves of the warm-up: about a second, so that set-up time is not
    #: just the daemon's boot, whose length varies most from run to run.
    WARMUP_SOLVES = 150

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sampled: dict[int, dict[str, Any]] = {}
        self.sent: list[dict[str, Any]] = []

    def setup(self, server: Server) -> None:
        self.close()
        client = _connect(server, binary=True)
        self.clients = [client]
        if not client.binary:
            raise BenchError("the daemon declined binary frames")
        warmup = gen.cold_specs(self.seed, self.WARMUP_SOLVES, stream="warmup-cold")
        for index, spec in enumerate(warmup):
            # Warm-up ids are strings, so they never equal a timed request's.
            response = client.request({"op": "solve", "spec": spec, "id": f"warmup-{index}"})
            if not response.get("ok"):
                raise BenchError(f"warm-up solve failed: {response}")

    def timed(self, seconds: float) -> list[Op]:
        client = self.clients[0]
        rng = gen.rng_for(self.seed, "cold")
        offset = int(gen.rng_for(self.seed, "cold-sample").integers(self.SAMPLE_EVERY))
        ops: list[Op] = []
        deadline = time.monotonic() + seconds
        rid = 0
        while time.monotonic() < deadline:
            spec = gen.rendezvous_spec(rng)
            bytes_before = client.bytes_sent + client.bytes_received
            start = time.monotonic_ns()
            response = client.request({"op": "solve", "spec": spec, "id": rid})
            end = time.monotonic_ns()
            op = Op(start, end, 1, rid=rid)
            op.wire_bytes = client.bytes_sent + client.bytes_received - bytes_before
            result = response.get("result")
            if response.get("ok") and response.get("id") == rid and isinstance(result, dict):
                sent_back = result.get("spec", {})
                if all(sent_back.get(key) == value for key, value in spec.items()):
                    op.ok = 1
                if rid % self.SAMPLE_EVERY == offset:
                    self.sampled[rid] = result
            op.served_by[str(response.get("served_by"))] = 1
            self.sent.append(spec)
            ops.append(op)
            rid += 1
        return ops

    def check(self, ops: list[Op], server: Server) -> None:
        from repro.api.result import SolveResult

        rids = sorted(self.sampled)
        reference = _reference([self.sent[rid] for rid in rids])
        mismatched = 0
        for rid, expected in zip(rids, reference):
            got = SolveResult.from_dict(self.sampled[rid]).fingerprint()
            if got != expected.fingerprint():
                mismatched += 1
                ops[rid].ok = 0
        self.notes = {"checked": len(rids), "mismatched": mismatched}


class ServeWarm(Workload):
    name = "serve-warm"
    why = (
        "nothing is solved in the timed phase: the hot response cache, LRU, planner, "
        "store reads, codec and transport do all the work"
    )
    CONNECTIONS = 2
    WARMUP_REQUESTS = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs = gen.warm_specs(seed)
        self.expected: list[dict[str, Any]] = []

    def prepare(self) -> None:
        # The reference is computed before any server starts; each answer
        # is compared with it as it arrives (a dict comparison), so no
        # response has to be kept.
        self.expected = [
            json.loads(json.dumps(_fingerprint_form(result.to_dict())))
            for result in _reference(self.specs)
        ]

    def setup(self, server: Server) -> None:
        self.close()
        loader = _connect(server, binary=False)
        try:
            stream = loader.sweep(self.specs, mode="fold")
            list(stream)
        finally:
            loader.close()
        summary = stream.summary or {}
        if summary.get("errors") or summary.get("records") != len(self.specs):
            raise BenchError(f"prefill sweep failed: {summary}")
        self.clients = [_connect(server, binary=True) for _ in range(self.CONNECTIONS)]
        if not all(client.binary for client in self.clients):
            raise BenchError("the daemon declined binary frames")
        # Warm-up draws come from their own streams, so the timed draws
        # are the same whether or not set-up ran more than once.
        first = self.CONNECTIONS
        self._drive(
            [gen.ZipfSampler(len(self.specs), self.seed, first + c) for c in range(first)],
            done=lambda sent: sent >= self.WARMUP_REQUESTS,
            warmup=True,
        )

    def _loop(
        self, connection: int, sampler: Any, done: Any, ops: list[Op], warmup: bool
    ) -> None:
        client, specs, expected = self.clients[connection], self.specs, self.expected
        sent = 0
        while True:
            for index in sampler.draw(256):
                # Warm-up ids are strings, so they never equal a timed request's.
                if warmup:
                    rid: Any = f"warmup-{connection}-{sent}"
                else:
                    rid = connection * 1_000_000_000 + sent
                bytes_before = client.bytes_sent + client.bytes_received
                start = time.monotonic_ns()
                response = client.request({"op": "solve", "spec": specs[index], "id": rid})
                end = time.monotonic_ns()
                op = Op(start, end, 1, rid=rid)
                op.wire_bytes = client.bytes_sent + client.bytes_received - bytes_before
                result = response.get("result")
                if (
                    response.get("ok")
                    and response.get("id") == rid
                    and isinstance(result, dict)
                    and _fingerprint_form(result) == expected[index]
                ):
                    op.ok = 1
                op.served_by[str(response.get("served_by"))] = 1
                ops.append(op)
                sent += 1
                if done(sent):
                    return

    def _drive(self, samplers: list[Any], done: Any, warmup: bool = False) -> list[Op]:
        """One closed loop per connection, each on its own thread."""
        per_connection: list[list[Op]] = [[] for _ in self.clients]
        errors: list[BaseException] = []

        def loop(connection: int) -> None:
            try:
                self._loop(
                    connection, samplers[connection], done, per_connection[connection], warmup
                )
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=loop, args=(c,), daemon=True) for c in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sorted((op for ops in per_connection for op in ops), key=lambda op: op.start_ns)

    def timed(self, seconds: float) -> list[Op]:
        deadline = time.monotonic() + seconds
        samplers = [
            gen.ZipfSampler(len(self.specs), self.seed, c) for c in range(self.CONNECTIONS)
        ]
        return self._drive(samplers, done=lambda sent: time.monotonic() >= deadline)


WORKLOADS = {cls.name: cls for cls in (SweepFleet, ServeCold, ServeWarm)}
