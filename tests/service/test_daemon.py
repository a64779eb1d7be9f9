"""Socket-level tests for the ``repro serve`` JSON-Lines daemon."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.api.backends import _REGISTRY, AnalyticBackend, register_backend
from repro.service import AsyncReproServer, SolverService, request_lines


def _solve_line(spec, backend=None, request_id=None) -> str:
    request = {"op": "solve", "spec": spec.to_dict()}
    if backend is not None:
        request["backend"] = backend
    if request_id is not None:
        request["id"] = request_id
    return json.dumps(request)


class _SlowAnalytic(AnalyticBackend):
    """Analytic answers gated on an event, to pin requests in flight."""

    name = "slow-daemon"
    release = threading.Event()

    def _solve(self, spec):
        assert _SlowAnalytic.release.wait(timeout=15.0)
        return super()._solve(spec)


@pytest.fixture
def server():
    with AsyncReproServer(backend="auto", max_inflight=16) as srv:
        srv.serve_background()
        yield srv


class TestConcurrentSolves:
    def test_32_concurrent_requests_with_duplicates_match_direct_solve(self, server):
        """Satellite: >=32 concurrent JSONL requests, duplicate-heavy,
        responses bit-identical to direct ``solve()`` plus coalescing > 0."""
        _SlowAnalytic.release.clear()
        register_backend(_SlowAnalytic.name, _SlowAnalytic)
        try:
            unique = [
                SearchProblem(distance=1.0 + 0.07 * i, visibility=0.3) for i in range(8)
            ]
            # 24 auto requests over 8 unique specs (3x duplicates) plus 8
            # identical requests against the gated backend, so at least
            # seven of those must coalesce onto the first one's solve.
            pinned = unique[0]
            requests = [
                (unique[i % 8], "auto", i) for i in range(24)
            ] + [(pinned, _SlowAnalytic.name, 24 + i) for i in range(8)]

            responses: dict[int, dict] = {}
            errors: list = []
            barrier = threading.Barrier(len(requests))

            def client(spec, backend, request_id):
                try:
                    barrier.wait(timeout=15.0)
                    (line,) = request_lines(
                        server.host,
                        server.port,
                        [_solve_line(spec, backend=backend, request_id=request_id)],
                    )
                    responses[request_id] = json.loads(line)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=client, args=request) for request in requests]
            for thread in threads:
                thread.start()
            # Wait until the pinned solve has coalesced followers, then open the gate.
            deadline = time.monotonic() + 15.0
            while server.service.waiting_for(pinned, backend=_SlowAnalytic.name) < 7:
                assert time.monotonic() < deadline, "pinned requests never coalesced"
                time.sleep(0.005)
            _SlowAnalytic.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert len(responses) == 32
            assert all(response["ok"] for response in responses.values())

            # Bit-identical to the direct facade, for every request.
            for spec, backend, request_id in requests:
                served = SolveResult.from_dict(responses[request_id]["result"])
                assert served.fingerprint() == solve(spec, backend=backend).fingerprint()

            metrics = server.service.metrics_snapshot()
            assert metrics["totals"]["coalesced"] > 0
            assert metrics["backends"][_SlowAnalytic.name]["coalesced"] >= 7
            assert metrics["backends"][_SlowAnalytic.name]["solves"] == 1
            assert metrics["totals"]["requests"] == 32
            assert metrics["totals"]["errors"] == 0
        finally:
            _SlowAnalytic.release.set()
            _REGISTRY.pop(_SlowAnalytic.name, None)


class TestWireProtocol:
    def test_pipelined_requests_answered_in_order(self, server):
        specs = [SearchProblem(distance=1.0 + 0.1 * i, visibility=0.3) for i in range(3)]
        lines = [_solve_line(spec, request_id=i) for i, spec in enumerate(specs)]
        out = [json.loads(line) for line in request_lines(server.host, server.port, lines)]
        assert [response["id"] for response in out] == [0, 1, 2]
        assert all(response["served_by"] in {"solve", "cache"} for response in out)
        assert all(response["latency_ms"] >= 0.0 for response in out)

    def test_bare_spec_shorthand(self, server):
        spec = SearchProblem(distance=1.2, visibility=0.3)
        (line,) = request_lines(server.host, server.port, [json.dumps(spec.to_dict())])
        response = json.loads(line)
        assert response["ok"] and response["op"] == "solve"

    def test_bare_spec_shorthand_with_id(self, server):
        """The envelope ``id`` is lifted out before spec validation."""
        spec = SearchProblem(distance=1.2, visibility=0.3)
        (line,) = request_lines(
            server.host, server.port, [json.dumps({**spec.to_dict(), "id": 7})]
        )
        response = json.loads(line)
        assert response["ok"] and response["op"] == "solve"
        assert response["id"] == 7

    def test_health_and_metrics_verbs(self, server):
        health_line, metrics_line = request_lines(
            server.host,
            server.port,
            [json.dumps({"op": "health"}), json.dumps({"op": "metrics"})],
        )
        health = json.loads(health_line)
        assert health["ok"] and health["health"]["status"] == "serving"
        metrics = json.loads(metrics_line)
        assert metrics["ok"] and "totals" in metrics["metrics"]

    def test_malformed_lines_do_not_kill_the_connection(self, server):
        spec = SearchProblem(distance=1.2, visibility=0.3)
        lines = [
            "this is not json",
            json.dumps(["not", "an", "object"]),
            json.dumps({"op": "nonsense"}),
            json.dumps({"op": "solve", "spec": {"kind": "search"}}),  # invalid spec
            _solve_line(spec),
        ]
        out = [json.loads(line) for line in request_lines(server.host, server.port, lines)]
        assert [response["ok"] for response in out] == [False, False, False, False, True]
        assert all("error" in response for response in out[:4])

    def test_solve_errors_report_type_and_message(self, server):
        from repro.api import RendezvousProblem

        infeasible = RendezvousProblem(distance=1.4, visibility=0.3)
        (line,) = request_lines(
            server.host, server.port, [_solve_line(infeasible, backend="simulation")]
        )
        response = json.loads(line)
        assert not response["ok"]
        assert response["error_type"] == "InfeasibleConfigurationError"


class TestShutdownRace:
    def test_inflight_connection_finishes_its_line_then_gets_clean_refusals(self):
        """Regression: a connection mid-solve when another connection issues
        ``shutdown`` must still receive its full response, and lines it sends
        afterwards must be answered ``ok:false`` shutting-down instead of the
        socket being torn down mid-response."""
        import socket

        _SlowAnalytic.release.clear()
        register_backend(_SlowAnalytic.name, _SlowAnalytic)
        server = AsyncReproServer(backend="auto")
        server.serve_background()
        try:
            spec = SearchProblem(distance=1.3, visibility=0.3)
            with socket.create_connection((server.host, server.port), timeout=30) as conn:
                stream = conn.makefile("rwb")
                # Line 1 pins this connection mid-solve on the gated backend.
                stream.write(
                    (_solve_line(spec, backend=_SlowAnalytic.name, request_id=1) + "\n").encode()
                )
                stream.flush()
                deadline = time.monotonic() + 10.0
                while server.service.inflight < 1:
                    assert time.monotonic() < deadline, "solve never started"
                    time.sleep(0.005)
                # Another connection stops the daemon while line 1 is in flight.
                (shutdown_line,) = request_lines(
                    server.host, server.port, [json.dumps({"op": "shutdown"})]
                )
                assert json.loads(shutdown_line)["stopping"]
                deadline = time.monotonic() + 10.0
                while not server.stopping:
                    assert time.monotonic() < deadline, "stop never initiated"
                    time.sleep(0.005)
                # Line 2 is already queued when the solve completes.
                stream.write((_solve_line(spec, request_id=2) + "\n").encode())
                stream.flush()
                _SlowAnalytic.release.set()
                first = json.loads(stream.readline())
                second = json.loads(stream.readline())
            assert first["ok"] and first["id"] == 1
            served = SolveResult.from_dict(first["result"])
            assert (
                served.fingerprint()
                == solve(spec, backend=_SlowAnalytic.name).fingerprint()
            )
            assert not second["ok"] and second["id"] == 2
            assert second["error_type"] == "ServiceUnavailableError"
            assert "shutting down" in second["error"]
        finally:
            _SlowAnalytic.release.set()
            _REGISTRY.pop(_SlowAnalytic.name, None)
            server.stop()


class TestLifecycle:
    def test_shutdown_verb_stops_the_server(self):
        server = AsyncReproServer(backend="analytic")
        server.serve_background()
        (line,) = request_lines(server.host, server.port, [json.dumps({"op": "shutdown"})])
        assert json.loads(line)["stopping"]
        deadline = time.monotonic() + 10.0
        while not (server.stopping and server.service.draining):
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_ephemeral_port_is_reported(self):
        with AsyncReproServer(backend="analytic", port=0) as srv:
            assert srv.port > 0
            assert srv.address.endswith(str(srv.port))

    def test_server_builds_service_from_kwargs(self):
        with AsyncReproServer(backend="analytic", max_inflight=3, queue_limit=5) as srv:
            assert srv.service.max_inflight == 3
            assert srv.service.queue_limit == 5

    def test_explicit_service_is_used(self):
        service = SolverService(backend="analytic")
        with AsyncReproServer(service=service) as srv:
            assert srv.service is service
