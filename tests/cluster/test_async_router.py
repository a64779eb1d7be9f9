"""Integration tests for the cluster front's streamed and binary paths.

Unchanged wire format, answers bit-identical to a direct ``solve()``,
binary negotiation, and the streamed ``subscribe`` verb partitioned
over the fleet.  Real worker subprocesses, analytic backend to keep the
fleet cheap.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.api.batch import BatchRunner
from repro.cluster import AsyncShardRouter, ClusterSupervisor
from repro.experiments.manifest import fingerprint_digest
from repro.service import FrameError, ServiceClient, request_lines

BACKEND = "analytic"


def _specs(count: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.05 * i, visibility=0.3) for i in range(count)]


@pytest.fixture(scope="module")
def async_cluster():
    supervisor = ClusterSupervisor(workers=2, backend=BACKEND)
    supervisor.start()
    router = AsyncShardRouter(supervisor, backend=BACKEND, route_timeout=60.0)
    router.serve_background()
    try:
        yield router
    finally:
        router.stop()
        assert router.leaked_tasks == []


class TestAsyncRouting:
    def test_solve_parity_and_cluster_verbs(self, async_cluster):
        specs = _specs(8)
        lines = [
            json.dumps({"op": "solve", "spec": spec.to_dict(), "id": i})
            for i, spec in enumerate(specs)
        ]
        responses = [
            json.loads(line)
            for line in request_lines(async_cluster.host, async_cluster.port, lines)
        ]
        assert all(response["ok"] for response in responses)
        for i, response in enumerate(responses):
            served = SolveResult.from_dict(response["result"])
            assert served.fingerprint() == solve(specs[i], backend=BACKEND).fingerprint()

        status_line, metrics_line = request_lines(
            async_cluster.host,
            async_cluster.port,
            [json.dumps({"op": "cluster-status"}), json.dumps({"op": "metrics"})],
        )
        status = json.loads(status_line)["cluster"]
        assert status["workers"] == 2
        assert status["alive"] == 2
        metrics = json.loads(metrics_line)["metrics"]
        assert metrics["cluster"]["workers"] == 2
        assert "subscriptions" in metrics
        assert metrics["transport"]["json"]["requests"] > 0

    def test_binary_negotiation_round_trip(self, async_cluster):
        spec = SearchProblem(distance=3.3, visibility=0.3)
        with ServiceClient(
            async_cluster.host, async_cluster.port, binary=True
        ) as client:
            assert client.binary
            response = client.request({"op": "solve", "spec": spec.to_dict()})
        assert response["ok"]
        assert (
            SolveResult.from_dict(response["result"]).fingerprint()
            == solve(spec, backend=BACKEND).fingerprint()
        )

    def test_a_binary_sweep_of_a_bytes_number_fails_in_the_client(self, async_cluster):
        # A frame carries the JSON line, which has no bytes: the client
        # refuses the request before writing it, and the connection
        # serves the next sweep.
        spec = {"schema_version": 1, "kind": "search", "distance": b"1.5", "visibility": 0.3}
        with ServiceClient(
            async_cluster.host, async_cluster.port, binary=True
        ) as client:
            sent = client.bytes_sent
            with pytest.raises(FrameError):
                client.sweep([spec])
            assert client.bytes_sent == sent
            stream = client.sweep(_specs(3))
            records = list(stream)
        assert [record["ok"] for record in records] == [True] * 3
        assert stream.summary["fingerprint_digest"] == fingerprint_digest(
            BatchRunner(backend=BACKEND).run(_specs(3))[0]
        )

    def test_subscribe_fans_out_with_digest_parity(self, async_cluster):
        specs = _specs(12)
        suite = specs + specs[:3]
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            stream = client.subscribe(suite, request_id="fleet-sweep")
            records = list(stream)
        assert stream.ack["total"] == 15
        assert stream.ack["unique"] == 12
        assert [record["seq"] for record in records] == list(range(12))
        assert {record["key"]["spec_hash"] for record in records} == {
            spec.canonical_hash() for spec in specs
        }
        assert all(record["id"] == "fleet-sweep" for record in records)
        # Partitioned like a sweep, but the records keep the
        # single-daemon subscribe shape: no ``shard`` stamp.
        assert all("shard" not in record for record in records)
        summary = stream.summary
        assert summary["records"] == 12
        assert summary["errors"] == 0

        results, _ = BatchRunner(backend=BACKEND).run(specs)
        assert summary["fingerprint_digest"] == fingerprint_digest(results)

