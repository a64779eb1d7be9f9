"""Integration tests for the sharded cluster: routing, failover, store merge.

These tests spawn real worker subprocesses (each a full ``repro
serve``), so they use the fast analytic backend to keep the fleet
cheap.  The contract under test everywhere: the router speaks the
unchanged wire format and every answer is bit-identical to a direct
in-process ``solve()``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.api import ResultStore, SearchProblem, SolveResult, solve
from repro.cluster import AsyncShardRouter, ClusterSupervisor, WorkerHandle
from repro.service import AsyncReproServer, request_lines

BACKEND = "analytic"


def _specs(count: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.05 * i, visibility=0.3) for i in range(count)]


def _solve_lines(specs, request_ids=None) -> list[str]:
    ids = request_ids if request_ids is not None else range(len(specs))
    return [
        json.dumps({"op": "solve", "spec": spec.to_dict(), "id": request_id})
        for spec, request_id in zip(specs, ids)
    ]


def _expected_fingerprints(specs) -> dict[int, object]:
    return {i: solve(spec, backend=BACKEND).fingerprint() for i, spec in enumerate(specs)}


@pytest.fixture
def cluster():
    supervisor = ClusterSupervisor(workers=2, backend=BACKEND)
    supervisor.start()
    router = AsyncShardRouter(supervisor, backend=BACKEND, route_timeout=60.0)
    router.serve_background()
    try:
        yield router
    finally:
        router.stop()


class TestRouting:
    def test_wire_parity_and_verbs(self, cluster):
        specs = _specs(10)
        expected = _expected_fingerprints(specs)
        lines = _solve_lines(specs) + _solve_lines(specs, request_ids=range(10, 20))
        responses = [
            json.loads(line) for line in request_lines(cluster.host, cluster.port, lines)
        ]
        assert len(responses) == 20
        assert all(response["ok"] for response in responses)
        for response in responses:
            served = SolveResult.from_dict(response["result"])
            assert served.fingerprint() == expected[response["id"] % 10]
        # The duplicate pass hit the workers' LRUs, not fresh solves.
        assert {response["served_by"] for response in responses} == {"solve", "cache"}

        health_line, metrics_line, status_line = request_lines(
            cluster.host,
            cluster.port,
            [
                json.dumps({"op": "health"}),
                json.dumps({"op": "metrics"}),
                json.dumps({"op": "cluster-status"}),
            ],
        )
        health = json.loads(health_line)["health"]
        assert health["role"] == "router" and health["status"] == "serving"
        assert health["workers"] == 2 and health["alive"] == 2
        assert all(row["health"]["status"] == "serving" for row in health["shards"])
        metrics = json.loads(metrics_line)["metrics"]
        assert metrics["totals"]["requests"] == 20
        assert metrics["totals"]["errors"] == 0
        assert metrics["cluster"]["workers"] == 2
        # Both shards saw traffic: the ring spread the key space.
        assert all(row["forwarded"] > 0 for row in metrics["shards"])
        status = json.loads(status_line)["cluster"]
        assert status["worker_restarts"] == 0 and status["reroutes"] == 0

    def test_requests_route_by_spec_hash_not_arrival_order(self, cluster):
        """The same spec always lands on the same worker."""
        spec = _specs(1)[0]
        for _ in range(3):
            (line,) = request_lines(
                cluster.host, cluster.port, _solve_lines([spec])
            )
            assert json.loads(line)["ok"]
        metrics = json.loads(
            request_lines(cluster.host, cluster.port, [json.dumps({"op": "metrics"})])[0]
        )["metrics"]
        touched = [row for row in metrics["shards"] if row["forwarded"] > 0]
        assert len(touched) == 1  # one home shard took all three requests
        worker_totals = touched[0]["metrics"]["totals"]
        assert worker_totals["solves"] == 1  # its LRU answered the duplicates

    def test_malformed_and_invalid_lines_answer_on_the_router(self, cluster):
        lines = [
            "not json",
            json.dumps({"op": "nonsense"}),
            json.dumps({"op": "solve", "spec": {"kind": "search"}}),  # invalid spec
        ]
        responses = [
            json.loads(line) for line in request_lines(cluster.host, cluster.port, lines)
        ]
        assert [response["ok"] for response in responses] == [False, False, False]
        assert all("error" in response for response in responses)


class TestFailover:
    def test_worker_killed_mid_batch_drops_no_accepted_request(self, cluster):
        """Satellite: SIGKILL one shard mid-batch; every request still answers
        with a fingerprint identical to direct solve()."""
        specs = _specs(24)
        expected = _expected_fingerprints(specs)
        killed = threading.Event()
        errors: list = []
        responses: dict[int, dict] = {}
        lock = threading.Lock()
        clients = 3

        def client(slot: int) -> None:
            try:
                import socket

                indices = list(range(slot, len(specs), clients))
                with socket.create_connection(
                    (cluster.host, cluster.port), timeout=120
                ) as conn:
                    stream = conn.makefile("rwb")
                    for progress, index in enumerate(indices):
                        if progress == 2:
                            killed.wait(timeout=60.0)  # kill lands mid-batch
                        stream.write(
                            (_solve_lines([specs[index]], [index])[0] + "\n").encode()
                        )
                        stream.flush()
                        response = json.loads(stream.readline())
                        with lock:
                            responses[index] = response
            except BaseException as error:  # noqa: BLE001 - surfaced by the test
                errors.append(error)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(clients)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while len(responses) < clients * 2:  # every client mid-batch
            assert time.monotonic() < deadline, "batch never got going"
            time.sleep(0.005)
        victim = cluster.supervisor.handles[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.wait(timeout=10.0)
        killed.set()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        assert len(responses) == len(specs)
        assert all(response["ok"] for response in responses.values())
        for index, response in responses.items():
            served = SolveResult.from_dict(response["result"])
            assert served.fingerprint() == expected[index]
        status = json.loads(
            request_lines(
                cluster.host, cluster.port, [json.dumps({"op": "cluster-status"})]
            )[0]
        )["cluster"]
        assert status["worker_restarts"] >= 1  # the supervisor respawned the victim
        deadline = time.monotonic() + 30.0
        while not victim.alive:
            assert time.monotonic() < deadline, "victim never respawned"
            time.sleep(0.05)


class TestRouterCoalescing:
    def test_concurrent_identical_requests_cost_one_shard_round_trip(self):
        """Duplicates of an in-flight solve coalesce at the router: the worker
        sees exactly one request."""
        from repro.api.backends import _REGISTRY, AnalyticBackend, register_backend

        class _Gated(AnalyticBackend):
            name = "gated-cluster"
            release = threading.Event()

            def _solve(self, spec):
                assert _Gated.release.wait(timeout=30.0)
                return super()._solve(spec)

        register_backend(_Gated.name, _Gated)
        worker_server = AsyncReproServer(backend=_Gated.name)
        worker_server.serve_background()
        supervisor = ClusterSupervisor(workers=1, backend=_Gated.name)
        handle = supervisor.handles[0]
        handle.host, handle.port = worker_server.host, worker_server.port
        handle.generation = 1
        router = AsyncShardRouter(supervisor, backend=_Gated.name)
        router.serve_background()
        try:
            spec = _specs(1)[0]
            line = _solve_lines([spec])[0]
            results: list = [None] * 6
            threads = [
                threading.Thread(
                    target=lambda slot=slot: results.__setitem__(
                        slot,
                        json.loads(request_lines(router.host, router.port, [line])[0]),
                    )
                )
                for slot in range(6)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 15.0
            while router.waiting_for(spec) < 5:
                assert time.monotonic() < deadline, "duplicates never coalesced"
                time.sleep(0.005)
            _Gated.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(response["ok"] for response in results)
            fingerprints = {
                str(SolveResult.from_dict(response["result"]).fingerprint())
                for response in results
            }
            assert len(fingerprints) == 1
            # The worker solved exactly once -- duplicates never crossed
            # the router/worker hop.
            worker_metrics = worker_server.service.metrics_snapshot()
            assert worker_metrics["totals"]["requests"] == 1
            router_metrics = router.metrics_snapshot()
            assert router_metrics["cluster"]["router_coalesced"] == 5
        finally:
            _Gated.release.set()
            _REGISTRY.pop(_Gated.name, None)
            supervisor.primary_store = None  # nothing to merge
            router.stop()
            worker_server.stop()


class TestRouterBackendPinning:
    def test_default_backend_requests_solve_under_the_routers_backend(self):
        """Regression: the forward line always names the effective backend --
        a worker whose own default differs must not substitute it, or the
        routing key and the solved envelope would disagree."""
        worker_server = AsyncReproServer(backend="simulation")  # fleet default differs
        worker_server.serve_background()
        supervisor = ClusterSupervisor(workers=1, backend="simulation")
        handle = supervisor.handles[0]
        handle.host, handle.port = worker_server.host, worker_server.port
        handle.generation = 1
        router = AsyncShardRouter(supervisor, backend=BACKEND)  # analytic
        router.serve_background()
        try:
            spec = _specs(1)[0]
            (line,) = request_lines(
                router.host, router.port, [json.dumps({"op": "solve", "spec": spec.to_dict()})]
            )
            response = json.loads(line)
            assert response["ok"]
            assert response["result"]["provenance"]["backend"] == BACKEND
        finally:
            supervisor.primary_store = None
            router.stop()
            worker_server.stop()


class TestStoreMerge:
    def test_drain_merges_worker_stores_and_warm_restart_replays(self, tmp_path):
        """Satellite acceptance: worker stores fold into the primary on drain
        (export/import), and a restarted cluster answers everything warm."""
        store_dir = tmp_path / "primary"
        specs = _specs(12)
        expected = _expected_fingerprints(specs)

        supervisor = ClusterSupervisor(workers=2, backend=BACKEND, store=store_dir)
        supervisor.start()
        router = AsyncShardRouter(supervisor, backend=BACKEND)
        router.serve_background()
        responses = [
            json.loads(line)
            for line in request_lines(router.host, router.port, _solve_lines(specs))
        ]
        assert all(response["ok"] for response in responses)
        router.stop()

        # Worker stores merged into the primary, worker dirs removed.
        primary = ResultStore(store_dir)
        assert len(primary) == len(specs)
        assert not (store_dir / "workers").exists()

        # Warm restart: a brand-new fleet is seeded from the primary and
        # answers everything without a single fresh solve.
        supervisor = ClusterSupervisor(workers=2, backend=BACKEND, store=store_dir)
        supervisor.start()
        router = AsyncShardRouter(supervisor, backend=BACKEND)
        router.serve_background()
        try:
            warm = [
                json.loads(line)
                for line in request_lines(router.host, router.port, _solve_lines(specs))
            ]
            assert all(response["ok"] for response in warm)
            assert {response["served_by"] for response in warm} == {"store"}
            for index, response in enumerate(warm):
                served = SolveResult.from_dict(response["result"])
                assert served.fingerprint() == expected[index]
        finally:
            router.stop()
        # The second drain keeps the primary intact (idempotent merge).
        assert len(ResultStore(store_dir)) == len(specs)


class TestServeWorkersCli:
    def test_serve_workers_flag_boots_a_router_and_sigterm_drains_it(self, tmp_path, capsys):
        """`repro serve --workers 2` spawns a supervised fleet; SIGTERM stops
        the router, drains the workers and merges their stores."""
        import subprocess
        import sys as sys_module
        from pathlib import Path

        import repro
        from repro.cli import main as cli_main

        store_dir = tmp_path / "store"
        port_file = tmp_path / "router.port"
        env = os.environ.copy()
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys_module.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--backend", BACKEND,
             "--store", str(store_dir), "--port-file", str(port_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 90.0
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, "serve --workers exited before binding"
                assert time.monotonic() < deadline, "router never published its port"
                time.sleep(0.05)
            host, _, port = port_file.read_text().strip().rpartition(":")
            specs = _specs(6)
            expected = _expected_fingerprints(specs)
            responses = [
                json.loads(line)
                for line in request_lines(host, int(port), _solve_lines(specs))
            ]
            assert all(response["ok"] for response in responses)
            for index, response in enumerate(responses):
                served = SolveResult.from_dict(response["result"])
                assert served.fingerprint() == expected[index]

            # The `repro cluster status` CLI reads the router's verbs.
            assert cli_main(["cluster", "status", "--host", host, "--port", port]) == 0
            out = capsys.readouterr().out
            assert "2/2 worker(s) alive" in out and "shard 0" in out and "shard 1" in out

            os.kill(process.pid, signal.SIGTERM)
            assert process.wait(timeout=60.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - only on failure
                process.kill()
        # The drain merged every worker store into the primary.
        assert len(ResultStore(store_dir)) == len(specs)
        assert not (store_dir / "workers").exists()

    def test_cluster_status_against_a_plain_daemon_fails_cleanly(self, capsys):
        from repro.cli import main as cli_main

        with AsyncReproServer(backend=BACKEND) as server:
            server.serve_background()
            code = cli_main(
                ["cluster", "status", "--host", server.host, "--port", str(server.port)]
            )
        assert code == 1
        assert "single-process" in capsys.readouterr().err


class TestSupervisorValidation:
    def test_boot_router_tears_the_fleet_down_when_the_router_fails(self):
        """The workers are detached processes: a router that cannot be
        built must not leave them running unsupervised."""
        from repro.cluster import boot_router

        supervisor = ClusterSupervisor(workers=1, backend=BACKEND)
        with pytest.raises(TypeError):
            boot_router(supervisor, no_such_option=True)
        handle = supervisor.handles[0]
        assert handle.process is not None  # the fleet really was started
        assert not handle.alive

    def test_worker_count_validated(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            ClusterSupervisor(workers=0)

    def test_handle_describe_shape(self):
        handle = WorkerHandle(3, None)
        row = handle.describe()
        assert row["worker"] == 3 and row["alive"] is False
        assert row["address"] is None and row["store"] is None


class TestWorkerLinks:
    def test_routed_vectorized_solve_over_a_binary_client(self, cluster):
        """The router's worker links speak JSON lines, and a routed
        vectorized solve a binary client asked for is bit-identical to
        an in-process solve, with the worker's result relayed as sent."""
        from repro.service import ServiceClient

        spec = SearchProblem(distance=2.0, visibility=0.5)
        expected = solve(spec, backend="vectorized").fingerprint()
        with ServiceClient(cluster.host, cluster.port, binary=True) as client:
            assert client.binary  # the router itself upgrades
            response = client.request(
                {"op": "solve", "spec": spec.to_dict(), "backend": "vectorized"}
            )
            assert response["ok"]
            assert SolveResult.from_dict(response["result"]).fingerprint() == expected
            metrics = client.request({"op": "metrics"})["metrics"]

        # No worker link negotiates frames; the solve reached a worker as JSON.
        for row in metrics["shards"]:
            assert row["metrics"]["transport"]["binary"]["connections"] == 0
        assert sum(row["metrics"]["transport"]["json"]["requests"] for row in metrics["shards"]) >= 1
        # And this client's binary traffic shows on the router's ledger.
        assert metrics["transport"]["binary"]["requests"] >= 1
        assert metrics["transport"]["binary"]["bytes_out"] > 0

    def test_the_relayed_result_is_the_workers_text(self, cluster):
        """A routed solve's ``result`` is spliced from its home worker's
        line: the router sends the worker's result text unchanged."""
        from repro.cluster.hashing import shard_key

        spec = SearchProblem(distance=2.1, visibility=0.5)
        request = json.dumps({"op": "solve", "spec": spec.to_dict(), "backend": BACKEND})
        (routed,) = request_lines(cluster.host, cluster.port, [request])
        home = cluster.ring.lookup(shard_key(BACKEND, spec.canonical_hash()))
        handle = cluster.supervisor.handles[home]
        (direct,) = request_lines(handle.host, handle.port, [request])
        assert json.loads(direct)["served_by"] == "cache"

        def result_text(line: str) -> str:
            return line[line.index('"result":') : line.rindex(',"served_by":')]

        assert result_text(routed) == result_text(direct)


class TestKernelCacheMetrics:
    def test_every_process_reports_only_its_private_chunk_cache(self, cluster):
        """In-process, on a daemon and on every shard, the compiled-chunk
        cache document has the same three keys; the router adds no
        shared-cache document of its own."""
        from repro.simulation import kernel_cache_stats

        keys = {"entries", "local_compiles", "cache_capped"}
        metrics_line = json.dumps({"op": "metrics"})
        assert set(kernel_cache_stats()) == keys

        with AsyncReproServer(backend=BACKEND) as server:
            server.serve_background()
            (line,) = request_lines(server.host, server.port, [metrics_line])
        assert set(json.loads(line)["metrics"]["kernel_cache"]) == keys

        (line,) = request_lines(cluster.host, cluster.port, [metrics_line])
        metrics = json.loads(line)["metrics"]
        assert "arena" not in metrics
        assert len(metrics["shards"]) == 2
        for row in metrics["shards"]:
            assert set(row["metrics"]["kernel_cache"]) == keys


class TestClusterStatusSchema:
    """The router answers ``cluster-status`` with a fixed top-level
    schema, under the verb declared in the protocol module."""

    def test_status_schema_matches_the_declared_verb(self, cluster):
        from repro.service.protocol import CLUSTER_STATUS_OP

        (line,) = request_lines(
            cluster.host, cluster.port, [json.dumps({"op": CLUSTER_STATUS_OP})]
        )
        response = json.loads(line)
        assert response["op"] == CLUSTER_STATUS_OP
        assert set(response) == {"ok", "op", "cluster"}
        assert response["ok"] is True
