"""A swept result is encoded once, and a spec object is hashed once.

On a daemon with a store, and through a 2-worker fleet, every fresh
result calls :meth:`SolveResult.to_dict` exactly once (the store line,
the fingerprint blob and the wire record all come from that one
envelope) and every spec object computes its canonical hash once,
however many layers ask for it (router, planner, backend, provenance).

The calls are counted by wrapping the functions for the test's
duration, as ``perfbench/spans.py`` wraps them in a traced server.
Workers run in this process, so one set of wrappers sees the router
and both workers; counted objects are kept alive, so no ``id`` is
reused while counting.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.api import SearchProblem, SolveResult
from repro.api import spec as spec_module
from repro.api.batch import BatchRunner
from repro.api.spec import ProblemSpec
from repro.cluster import AsyncShardRouter, ClusterSupervisor
from repro.experiments.manifest import fingerprint_digest
from repro.service import AsyncReproServer, ServiceClient

BACKEND = "vectorized"


def _specs(count: int) -> list[SearchProblem]:
    return [
        SearchProblem(distance=1.1 + 0.04 * i, visibility=0.3, bearing=0.2 * i)
        for i in range(count)
    ]


class _Counts:
    """``to_dict`` calls per result, hash computations per spec object."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.to_dict: Counter[int] = Counter()
        self.hashed: Counter[int] = Counter()
        self._alive: list[object] = []
        self._lock = threading.Lock()
        hashing = threading.local()
        to_dict = SolveResult.to_dict
        canonical_hash = ProblemSpec.canonical_hash
        spec_dict_hash = spec_module.spec_dict_hash

        def counted_to_dict(result: SolveResult) -> dict:
            self._count(self.to_dict, result)
            return to_dict(result)

        def counted_canonical_hash(spec: ProblemSpec) -> str:
            outer = getattr(hashing, "spec", None)
            hashing.spec = spec
            try:
                return canonical_hash(spec)
            finally:
                hashing.spec = outer

        def counted_spec_dict_hash(data: dict) -> str:
            spec = getattr(hashing, "spec", None)
            if spec is not None:  # computing a spec object's own hash
                self._count(self.hashed, spec)
            return spec_dict_hash(data)

        monkeypatch.setattr(SolveResult, "to_dict", counted_to_dict)
        monkeypatch.setattr(ProblemSpec, "canonical_hash", counted_canonical_hash)
        monkeypatch.setattr(spec_module, "spec_dict_hash", counted_spec_dict_hash)

    def _count(self, counter: Counter, obj: object) -> None:
        with self._lock:
            counter[id(obj)] += 1
            self._alive.append(obj)


def _sweep(host: str, port: int, specs: list[SearchProblem]) -> tuple[list, dict]:
    with ServiceClient(host, port) as client:
        stream = client.sweep(specs, backend=BACKEND)
        records = list(stream)
    return records, stream.summary


def test_a_daemon_with_a_store_encodes_each_fresh_result_once(tmp_path, monkeypatch):
    specs = _specs(16)
    expected = fingerprint_digest(BatchRunner(backend=BACKEND).run(specs)[0])
    with AsyncReproServer(backend=BACKEND, store=tmp_path / "store") as server:
        server.serve_background()
        counts = _Counts(monkeypatch)
        records, summary = _sweep(server.host, server.port, specs)
    assert summary["fingerprint_digest"] == expected
    assert all(record["ok"] and record["served_by"] == "batch" for record in records)
    assert sorted(counts.to_dict.values()) == [1] * len(specs)
    assert sorted(counts.hashed.values()) == [1] * len(specs)


def test_a_fresh_solve_on_a_daemon_with_a_store_is_encoded_once(tmp_path, monkeypatch):
    """The store line and the answer share one encoding: the answer's
    result is the run's text, spliced into either transport."""
    (spec,) = _specs(1)
    expected = spec.canonical_hash()
    with AsyncReproServer(backend=BACKEND, store=tmp_path / "store") as server:
        server.serve_background()
        counts = _Counts(monkeypatch)
        for binary in (False, True):
            with ServiceClient(server.host, server.port, binary=binary) as client:
                response = client.request({"op": "solve", "spec": spec.to_dict()})
            assert response["ok"]
            assert response["served_by"] == ("cache" if binary else "solve")
            assert response["result"]["provenance"]["spec_hash"] == expected
    assert list(counts.to_dict.values()) == [1]


def test_a_fleet_sweep_encodes_each_fresh_result_once(tmp_path, monkeypatch):
    specs = _specs(24)
    expected = fingerprint_digest(BatchRunner(backend=BACKEND).run(specs)[0])
    workers = [
        AsyncReproServer(backend=BACKEND, store=tmp_path / f"worker-{index}")
        for index in range(2)
    ]
    supervisor = ClusterSupervisor(workers=2, backend=BACKEND)
    for worker, handle in zip(workers, supervisor.handles):
        worker.serve_background()
        handle.host, handle.port = worker.host, worker.port
        handle.generation = 1
    reported: list = []
    supervisor.ensure_alive = lambda handle, generation: reported.append(generation)
    router = AsyncShardRouter(supervisor, backend=BACKEND, route_timeout=10.0)
    router.serve_background()
    try:
        counts = _Counts(monkeypatch)
        records, summary = _sweep(router.host, router.port, specs)
    finally:
        router.stop()
        for worker in workers:
            worker.stop()
    assert summary["fingerprint_digest"] == expected
    assert {row["worker"] for row in summary["partitions"]} == {0, 1}
    assert all(record["ok"] and record["served_by"] == "batch" for record in records)
    assert reported == []
    # Results are built on the workers only; the router relays their bytes.
    assert sorted(counts.to_dict.values()) == [1] * len(specs)
    # One spec object per spec on the router, and one on its worker.
    assert sorted(counts.hashed.values()) == [1] * (2 * len(specs))
