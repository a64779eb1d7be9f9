"""The daemon's in-loop LRU tier: solves resident in the runner, not hot.

A spec whose result sits in the service runner's LRU but not in the
daemon's hot response cache is answered in the event loop
(``solve_paths["lru"]``) with the bytes the thread-pool path sends for
the same hit.  Every wait below carries a timeout and every hand-over
between threads is an event; nothing sleeps.  The golden transcript
(``test_aio.py``) pins the bytes of the malformed solves that fall
through this tier to the pool.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading

import pytest

from repro.api import BatchRunner, ProblemSpec, SearchProblem, SolveResult
from repro.api import spec as spec_module
from repro.service import AsyncReproServer, ServiceClient, SolverService, request_lines
from repro.service import aio as aio_module
from repro.service.frames import HEADER_SIZE, encode_frame, pack_frame, read_frame
from repro.service.protocol import encode_response

WAIT_S = 10.0

SPEC = SearchProblem(distance=1.3, visibility=0.3)


@pytest.fixture
def server():
    with AsyncReproServer(backend="auto", max_inflight=4) as srv:
        srv.serve_background()
        yield srv


def _make_resident(server, spec=SPEC, backend=None):
    """Solve ``spec`` into the runner's LRU without touching the hot cache."""
    server.service.runner.run([spec], backend=backend)
    assert not server._hot


def _paths(server) -> dict:
    with ServiceClient(server.host, server.port) as client:
        return client.request({"op": "metrics"})["metrics"]["solve_paths"]


def _solve_request(spec=SPEC, **extra) -> dict:
    return {"op": "solve", "spec": spec.to_dict(), "id": 5, **extra}


# -- masking the one volatile field, at the byte level --------------------------

_JSON_LATENCY = re.compile(rb'"latency_ms":[0-9.eE+-]+')


def _mask_json(line: bytes) -> bytes:
    masked, count = _JSON_LATENCY.subn(b'"latency_ms":0', line)
    assert count == 1
    return masked


def _mask_binary(frame: bytes) -> bytes:
    # The payload is the JSON line; the length field follows its latency digits.
    return frame[:2] + _mask_json(frame[HEADER_SIZE:])


def _wire_answer(server, request: dict, binary: bool) -> bytes:
    """The raw bytes the daemon sends for one request on a fresh connection."""
    with socket.create_connection((server.host, server.port), timeout=WAIT_S) as conn:
        stream = conn.makefile("rwb")
        if binary:
            stream.write(b'{"op": "hello", "format": "binary"}\n')
            stream.flush()
            assert json.loads(stream.readline())["format"] == "binary"
            stream.write(encode_frame(request))
            stream.flush()
            return pack_frame(read_frame(stream))
        stream.write(json.dumps(request).encode("utf-8") + b"\n")
        stream.flush()
        return stream.readline()


def _pool_bytes(server, request: dict, binary: bool) -> bytes:
    """What the thread-pool path sends for ``request``, encoded as the transport does."""
    response = server.answer_request(request)
    if binary:
        return encode_frame(response)
    return (encode_response(response) + "\n").encode("utf-8")


class TestResidentAnswers:
    @pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
    def test_in_loop_answer_matches_the_pool_path_byte_for_byte(self, server, binary):
        _make_resident(server)
        request = _solve_request()
        answered = _wire_answer(server, request, binary)
        assert _paths(server) == {"hot": 0, "lru": 1, "pool": 0, "busy": 0}
        expected = _pool_bytes(server, request, binary)
        mask = _mask_binary if binary else _mask_json
        assert mask(answered) == mask(expected)
        assert b"cache" in answered

    def test_bare_spec_shorthand_is_answered_in_the_loop(self, server):
        _make_resident(server)
        (line,) = request_lines(
            server.host, server.port, [json.dumps({**SPEC.to_dict(), "id": 2})]
        )
        response = json.loads(line)
        assert response["ok"] and response["served_by"] == "cache" and response["id"] == 2
        assert _paths(server)["lru"] == 1

    def test_a_resident_hit_is_promoted_into_the_hot_cache(self, server):
        _make_resident(server)
        line = json.dumps(_solve_request())
        first, second = request_lines(server.host, server.port, [line, line])
        assert json.loads(first)["served_by"] == json.loads(second)["served_by"] == "cache"
        assert _paths(server) == {"hot": 1, "lru": 1, "pool": 0, "busy": 0}

    def test_the_hit_refreshes_lru_recency_like_the_pool_path(self):
        runner = BatchRunner(backend="auto", cache_size=2, flush_store=False)
        a, b, c = (SearchProblem(distance=d, visibility=0.3) for d in (1.1, 1.2, 1.3))
        with AsyncReproServer(service=SolverService(runner=runner)) as srv:
            srv.serve_background()
            runner.run([a])
            runner.run([b])
            (line,) = request_lines(srv.host, srv.port, [json.dumps(_solve_request(a))])
            assert json.loads(line)["served_by"] == "cache"
            runner.run([c])  # evicts the least recent: b, since the hit touched a
            assert runner.cache_peek(("auto", a.canonical_hash())) is not None
            assert runner.cache_peek(("auto", b.canonical_hash())) is None
            assert _paths(srv)["lru"] == 1

    def test_a_result_resident_under_another_backend_is_not_served(self, server):
        _make_resident(server, backend="analytic")
        lines = [
            json.dumps(_solve_request()),
            json.dumps(_solve_request(backend="analytic")),
        ]
        default, named = (
            json.loads(line) for line in request_lines(server.host, server.port, lines)
        )
        assert default["served_by"] == "solve"
        assert default["result"]["provenance"]["backend"] != "analytic"
        assert named["served_by"] == "cache"
        assert named["result"]["provenance"]["backend"] == "analytic"
        assert _paths(server) == {"hot": 0, "lru": 1, "pool": 1, "busy": 0}

    def test_a_draining_daemon_refuses_as_before(self, server):
        _make_resident(server)
        server.service.drain()
        (line,) = request_lines(server.host, server.port, [json.dumps(_solve_request())])
        assert json.loads(line) == {
            "ok": False,
            "op": "solve",
            "id": 5,
            "error": "service is draining, request refused",
            "error_type": "ServiceUnavailableError",
        }
        assert _paths(server) == {"hot": 0, "lru": 0, "pool": 1, "busy": 0}


class TestHandOff:
    def test_a_miss_decodes_and_hashes_once_on_its_way_to_a_solve(
        self, server, monkeypatch
    ):
        decodes, hashes = [], []
        decode, canonical_hash = spec_module.spec_from_dict, ProblemSpec.canonical_hash

        def counting_decode(data):
            decodes.append(data)
            return decode(data)

        def counting_hash(spec):
            hashes.append(spec)
            return canonical_hash(spec)

        monkeypatch.setattr(spec_module, "spec_from_dict", counting_decode)
        monkeypatch.setattr(aio_module, "spec_from_dict", counting_decode)
        monkeypatch.setattr(ProblemSpec, "canonical_hash", counting_hash)
        (line,) = request_lines(server.host, server.port, [json.dumps(_solve_request())])
        assert json.loads(line)["served_by"] == "solve"
        assert len(decodes) == 1
        # The loop's probe, the planner's LRU/store key and the backend's
        # provenance stamp: one hash each.
        assert len(hashes) == 3
        assert _paths(server) == {"hot": 0, "lru": 0, "pool": 1, "busy": 0}

    def test_a_malformed_spec_still_gets_the_pool_error(self, server):
        bad = {"op": "solve", "spec": {"schema_version": 1, "kind": "search"}, "id": 1}
        (line,) = request_lines(server.host, server.port, [json.dumps(bad)])
        assert not json.loads(line)["ok"]
        assert line == encode_response(server.answer_request(bad))
        assert _paths(server)["pool"] == 1


class TestBusyRunner:
    def test_a_held_runner_lock_defers_to_the_pool_without_blocking_the_loop(self, server):
        _make_resident(server)
        runner = server.service.runner
        held, release, at_pool = threading.Event(), threading.Event(), threading.Event()
        request = server.service.request

        def entering_request(*args, **kwargs):
            at_pool.set()
            return request(*args, **kwargs)

        server.service.request = entering_request

        def hold():
            with runner._lock:
                held.set()
                release.wait(WAIT_S)

        answers: list = []

        def ask():
            line = json.dumps(_solve_request())
            answers.extend(request_lines(server.host, server.port, [line], timeout=WAIT_S))

        holder = threading.Thread(target=hold)
        asker = threading.Thread(target=ask)
        holder.start()
        try:
            assert held.wait(WAIT_S)
            asker.start()
            assert at_pool.wait(WAIT_S)  # the probe fell through to the pool
            (health,) = request_lines(
                server.host, server.port, [json.dumps({"op": "health"})], timeout=WAIT_S
            )
            assert json.loads(health)["health"]["status"] == "serving"
            assert asker.is_alive()  # still waiting: the lock is held
        finally:
            release.set()
            holder.join(WAIT_S)
        asker.join(WAIT_S)
        assert not asker.is_alive()
        response = json.loads(answers[0])
        assert response["ok"] and response["served_by"] == "cache"
        assert _paths(server) == {"hot": 0, "lru": 0, "pool": 1, "busy": 1}


class TestStress:
    def test_loop_and_pool_share_a_churning_lru_without_losing_answers(self):
        """More clients than cores, more specs than either cache holds and a
        short switch interval: every answer matches a direct solve, and the
        three paths partition the requests."""
        specs = [SearchProblem(distance=1.0 + 0.01 * i, visibility=0.3) for i in range(300)]
        expected = {
            result.provenance.spec_hash: result.fingerprint()
            for result in BatchRunner(backend="analytic").solve_many(specs)
        }
        runner = BatchRunner(backend="analytic", cache_size=200, flush_store=False)
        service = SolverService(runner=runner, backend="analytic")
        clients = 8
        answers: list = []
        lock = threading.Lock()

        def client(slot):
            order = specs[slot * 37 :] + specs[: slot * 37]
            lines = [json.dumps(_solve_request(spec)) for spec in order]
            got = request_lines(srv.host, srv.port, lines, timeout=WAIT_S * 3)
            with lock:
                answers.extend(json.loads(line) for line in got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AsyncReproServer(service=service) as srv:
                srv.serve_background()
                runner.solve_many(specs[::2])
                threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(WAIT_S * 3)
                assert not any(thread.is_alive() for thread in threads)
                paths = _paths(srv)
        finally:
            sys.setswitchinterval(interval)
        sent = clients * len(specs)
        assert len(answers) == sent and all(answer["ok"] for answer in answers)
        for answer in answers:
            result = SolveResult.from_dict(answer["result"])
            assert result.fingerprint() == expected[result.provenance.spec_hash]
        assert paths["hot"] + paths["lru"] + paths["pool"] == sent
        assert paths["lru"] > 0 and paths["pool"] > 0
        totals = service.metrics_snapshot()["totals"]
        assert totals["requests"] == sent and totals["errors"] == 0
