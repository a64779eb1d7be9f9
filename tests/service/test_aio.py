"""Tests for the asyncio serving transport (``repro serve``).

Covers the frozen golden JSON transcript, the negotiated binary frames,
the streamed ``subscribe`` verb (ordering, digest parity, error
handling), the backpressure contract of slow subscribers, the
abrupt-disconnect drain invariant, and the zero-leaked-tasks shutdown
audit.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.api.batch import BatchRunner
from repro.errors import ReproError
from repro.experiments.manifest import fingerprint_digest
from repro.service import AsyncReproServer, ServiceClient, request_lines
from repro.service.aio import _DONE, _SubscriptionBridge
from repro.service.frames import encode_frame, read_frame

#: The daemon's answers to ``_DETERMINISTIC_LINES``, one per line,
#: frozen before the thread-per-connection daemon was removed; that
#: daemon and this one wrote these exact bytes.
GOLDEN_TRANSCRIPT = Path(__file__).with_name("golden_transcript.jsonl")


def _specs(count: int, offset: float = 0.0) -> list[SearchProblem]:
    return [
        SearchProblem(distance=1.0 + 0.07 * i + offset, visibility=0.3)
        for i in range(count)
    ]


@pytest.fixture
def server():
    with AsyncReproServer(backend="auto", max_inflight=16) as srv:
        srv.serve_background()
        yield srv


# -- JSON-Lines compatibility --------------------------------------------------


#: Requests whose responses are fully deterministic: the daemon must
#: answer them byte-for-byte like the frozen golden transcript.
_DETERMINISTIC_LINES = [
    "this is not json",
    json.dumps([1, 2, 3]),
    json.dumps({"op": "frobnicate", "id": 9}),
    json.dumps({"op": "solve", "id": 3}),  # missing spec
    json.dumps({"op": "solve", "spec": {"kind": "bogus"}, "id": 4}),
    json.dumps({"op": "solve", "spec": {"kind": "search"}, "backend": 7}),
    json.dumps({"op": "hello"}),
    json.dumps({"op": "hello", "format": "carrier-pigeon"}),
    json.dumps({"op": "hello", "format": "json", "id": "h1"}),
]

#: Volatile response fields masked before comparing solve transcripts.
def _masked(line: str) -> dict:
    response = json.loads(line)
    response.pop("latency_ms", None)
    result = response.get("result")
    if isinstance(result, dict):
        provenance = result.get("provenance")
        if isinstance(provenance, dict):
            provenance.pop("wall_time", None)
            provenance.pop("from_store", None)
    return response


class TestGoldenTranscript:
    def test_deterministic_verbs_answer_byte_for_byte(self, server):
        """Every deterministic verb answers with the exact bytes of the
        frozen transcript -- the wire is pinned, not approximated."""
        golden = GOLDEN_TRANSCRIPT.read_text(encoding="utf-8").splitlines()
        assert len(golden) == len(_DETERMINISTIC_LINES)
        actual = request_lines(server.host, server.port, _DETERMINISTIC_LINES)
        assert actual == golden

    def test_a_frame_carries_the_golden_line(self, server):
        """Each golden request that is a JSON object, sent as a frame on
        an upgraded connection, is answered with a frame whose payload
        is its golden line byte for byte: one codec for both formats."""
        golden = GOLDEN_TRANSCRIPT.read_text(encoding="utf-8").splitlines()
        pairs = [
            (json.loads(line), answer.encode("utf-8"))
            for line, answer in zip(_DETERMINISTIC_LINES, golden)
            if line.startswith("{")
        ]
        assert len(pairs) == 7
        with socket.create_connection((server.host, server.port), timeout=30) as conn:
            stream = conn.makefile("rwb")
            stream.write(b'{"op": "hello", "format": "binary"}\n')
            stream.flush()
            assert json.loads(stream.readline())["format"] == "binary"
            for request, _ in pairs:
                stream.write(encode_frame(request))
            stream.flush()
            payloads = [read_frame(stream) for _ in pairs]
        assert payloads == [answer for _, answer in pairs]

    def test_solve_health_transcripts_match_modulo_timing(self, server):
        spec = SearchProblem(distance=1.4, visibility=0.3)
        lines = [
            json.dumps({"op": "solve", "spec": spec.to_dict(), "id": 1}),
            json.dumps({**spec.to_dict(), "id": 2}),  # bare-spec shorthand
            json.dumps({"op": "health"}),
        ]
        actual = request_lines(server.host, server.port, lines)
        envelope = _masked(json.dumps({"result": solve(spec, backend="auto").to_dict()}))
        for request_id, served_by, line in zip((1, 2), ("solve", "cache"), actual[:2]):
            assert _masked(line) == {
                "ok": True,
                "op": "solve",
                "id": request_id,
                "served_by": served_by,
                **envelope,
            }
        health = json.loads(actual[2])
        assert health["ok"] and health["op"] == "health"
        assert set(health["health"]) == {
            "status",
            "inflight",
            "max_inflight",
            "queue_limit",
            "backend",
            "store",
            "cache_len",
            "uptime_s",
        }
        assert health["health"]["status"] == "serving"

    def test_metrics_document_carries_transport_and_subscriptions(self, server):
        with ServiceClient(server.host, server.port) as client:
            metrics = client.request({"op": "metrics"})["metrics"]
        assert set(metrics["transport"]) == {"json", "binary"}
        assert metrics["subscriptions"]["active"] == 0
        assert "kernel_cache" in metrics

    def test_shutdown_verb_stops_and_drains(self):
        srv = AsyncReproServer(backend="auto")
        srv.serve_background()
        (line,) = request_lines(srv.host, srv.port, [json.dumps({"op": "shutdown"})])
        assert json.loads(line) == {"ok": True, "op": "shutdown", "stopping": True}
        srv.stop()  # joins the verb-initiated stop
        assert srv.leaked_tasks == []
        with pytest.raises(OSError):
            socket.create_connection((srv.host, srv.port), timeout=1.0)

    def test_hot_cache_replays_repeats_as_cache(self, server):
        spec = SearchProblem(distance=1.9, visibility=0.3)
        line = json.dumps({"op": "solve", "spec": spec.to_dict()})
        first, second = (
            json.loads(response)
            for response in request_lines(server.host, server.port, [line, line])
        )
        assert first["ok"] and second["ok"]
        assert second["served_by"] == "cache"
        assert (
            SolveResult.from_dict(second["result"]).fingerprint()
            == SolveResult.from_dict(first["result"]).fingerprint()
        )


class TestBinaryFrames:
    def test_negotiated_binary_solves_match_json(self, server):
        spec = SearchProblem(distance=2.2, visibility=0.3)
        with ServiceClient(server.host, server.port, binary=True) as client:
            assert client.binary
            cold = client.request({"op": "solve", "spec": spec.to_dict()})
            warm = client.request({"op": "solve", "spec": spec.to_dict()})
        assert cold["ok"] and warm["ok"]
        assert warm["served_by"] == "cache"
        assert (
            SolveResult.from_dict(warm["result"]).fingerprint()
            == SolveResult.from_dict(cold["result"]).fingerprint()
        )

    def test_corrupt_header_answers_error_and_closes(self, server):
        with socket.create_connection((server.host, server.port), timeout=5.0) as conn:
            stream = conn.makefile("rwb")
            stream.write(b'{"op": "hello", "format": "binary"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            stream.write(b"\xde\xad\xbe\xef\x00\x00")
            stream.flush()
            from repro.service.frames import read_frame, decode_payload

            payload = read_frame(stream)
            response = decode_payload(payload)
            assert not response["ok"]
            assert "magic" in response["error"]
            assert stream.read(1) == b""  # server closed: unsyncable


# -- the subscribe verb --------------------------------------------------------


class TestSubscribe:
    def test_streams_every_unique_spec_with_digest_parity(self, server):
        specs = _specs(12)
        suite = specs + specs[:4]  # duplicates collapse in the plan
        stream_client = ServiceClient(server.host, server.port)
        with stream_client:
            stream = stream_client.subscribe(suite, request_id="sweep-1")
            assert stream.ack["total"] == 16
            assert stream.ack["unique"] == 12
            records = list(stream)
        assert [record["seq"] for record in records] == list(range(12))
        assert all(record["op"] == "completion" for record in records)
        assert all(record["id"] == "sweep-1" for record in records)
        assert {record["key"]["spec_hash"] for record in records} == {
            spec.canonical_hash() for spec in specs
        }
        assert all(
            record["served_by"] in {"cache", "store", "batch", "pool", "serial"}
            for record in records
        )
        summary = stream.summary
        assert summary["records"] == 12
        assert summary["errors"] == 0
        assert summary["id"] == "sweep-1"
        assert sum(summary["sources"].values()) == 12

        results, _ = BatchRunner(backend="auto").run(specs)
        assert summary["fingerprint_digest"] == fingerprint_digest(results)

    def test_binary_subscribe_matches_json_digest(self, server):
        specs = _specs(6, offset=3.0)
        with ServiceClient(server.host, server.port) as json_client:
            json_stream = json_client.subscribe(specs)
            list(json_stream)
        with ServiceClient(server.host, server.port, binary=True) as bin_client:
            assert bin_client.binary
            bin_stream = bin_client.subscribe(specs)
            records = list(bin_stream)
        assert len(records) == 6
        assert (
            bin_stream.summary["fingerprint_digest"]
            == json_stream.summary["fingerprint_digest"]
        )
        # Second pass is all warm: served from the runner LRU.
        assert bin_stream.summary["sources"] == {"cache": 6}

    def test_invalid_suite_refused_with_single_response(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ReproError, match="specs"):
                client.subscribe([])
            with pytest.raises(ReproError, match=r"specs\[1\]"):
                client.subscribe(
                    [SearchProblem(distance=1.0, visibility=0.3), {"kind": "bogus"}]
                )
            # No stream started either time: the connection is still in
            # lockstep and answers ordinary verbs.
            assert client.request({"op": "health"})["ok"]

    def test_per_spec_failures_stream_as_failed_records(self, server):
        from repro.api.backends import _REGISTRY, AnalyticBackend, register_backend
        from repro.errors import SimulationError

        class _Tripwire(AnalyticBackend):
            name = "tripwire-aio"

            def _solve(self, spec):
                if spec.distance > 2.0:
                    raise SimulationError(f"tripwire at distance {spec.distance}")
                return super()._solve(spec)

        register_backend(_Tripwire.name, _Tripwire)
        try:
            good = SearchProblem(distance=1.1, visibility=0.3)
            bad = SearchProblem(distance=2.5, visibility=0.3)
            with ServiceClient(server.host, server.port) as client:
                stream = client.subscribe(
                    [good, bad], backend=_Tripwire.name
                )
                records = list(stream)
        finally:
            _REGISTRY.pop(_Tripwire.name, None)
        assert len(records) == 2
        failed = [record for record in records if not record["ok"]]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "SimulationError"
        assert failed[0]["key"]["spec_hash"] == bad.canonical_hash()
        assert "result" not in failed[0]
        assert stream.summary["errors"] == 1
        assert stream.summary["records"] == 2


# -- backpressure and disconnects ----------------------------------------------


class TestBackpressure:
    def test_bridge_bounds_buffered_records_structurally(self):
        """The bridge caps buffering at maxsize: a producer running
        arbitrarily far ahead of a stalled consumer blocks instead of
        growing server memory, every batch holds at most maxsize records,
        order is kept across batch boundaries and the sentinel only ever
        ends the final batch."""
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            bridge = _SubscriptionBridge(loop, maxsize=4)
            produced = []

            def producer():
                for i in range(64):
                    produced.append(bridge.put({"seq": i}))
                bridge.finish()

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            # Stall until the buffer is full, then give the producer ample
            # time to run further ahead: it must stay blocked.
            deadline = loop.time() + 10.0
            while bridge.depth < 4:
                assert loop.time() < deadline, "producer never filled the buffer"
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            assert bridge.depth == 4
            assert thread.is_alive()
            batches = []
            while True:
                batch = await bridge.get_batch()
                batches.append(batch)
                assert _DONE not in batch[:-1]
                assert batch and len([item for item in batch if item is not _DONE]) <= 4
                assert bridge.depth <= 5  # maxsize + the sentinel
                if batch[-1] is _DONE:
                    break
            thread.join(timeout=5.0)
            received = [item["seq"] for batch in batches for item in batch if item is not _DONE]
            assert received == list(range(64))
            assert len(batches) >= 16  # 64 records, at most 4 per batch
            assert all(produced)
            assert bridge.depth == 0

        asyncio.run(scenario())

    def test_parked_consumer_gets_one_wakeup_per_burst(self):
        """While the consumer is parked, a burst of up to maxsize puts
        schedules exactly one loop wake-up, and the consumer takes the
        whole burst as one batch; puts while it is not parked schedule
        none."""
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            wakeups = []
            schedule = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                wakeups.append(callback)
                return schedule(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                bridge = _SubscriptionBridge(loop, maxsize=8)
                consumer = asyncio.ensure_future(bridge.get_batch())
                while not bridge.parked:
                    await asyncio.sleep(0)
                burst_done = threading.Event()

                def burst():
                    for i in range(8):
                        assert bridge.put(i)
                    burst_done.set()

                threading.Thread(target=burst, daemon=True).start()
                # Hold the loop until the whole burst is buffered, so the
                # consumer cannot take part of it early.
                assert burst_done.wait(5.0)
                assert await consumer == list(range(8))
                assert len(wakeups) == 1
                assert not bridge.parked
                assert bridge.put(8)  # consumer not parked: no wake-up
                assert len(wakeups) == 1
                assert await bridge.get_batch() == [8]
            finally:
                del loop.call_soon_threadsafe

        asyncio.run(scenario())

    def test_cancelled_bridge_discards_but_never_blocks_producer(self):
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            bridge = _SubscriptionBridge(loop, maxsize=2)
            done = threading.Event()
            results = []

            def producer():
                for i in range(50):
                    results.append(bridge.put({"seq": i}))
                bridge.finish()
                done.set()

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            deadline = loop.time() + 10.0
            while bridge.depth < 2:  # until the producer blocks on the full buffer
                assert loop.time() < deadline, "producer never filled the buffer"
                await asyncio.sleep(0.01)
            bridge.cancel()  # consumer gone mid-stream
            # The producer must finish all 50 puts without a consumer.
            assert await loop.run_in_executor(None, done.wait, 5.0)
            thread.join(timeout=5.0)
            assert results[:2] == [True, True] and not any(results[2:])
            # The sentinel still arrives, after the records buffered
            # before the cancel.
            assert await bridge.get_batch() == [{"seq": 0}, {"seq": 1}, _DONE]

        asyncio.run(scenario())

    def test_slow_subscriber_throttles_only_itself(self):
        """A stalled subscriber buffers at most queue_max records server
        side while a concurrent subscriber streams to completion, and the
        stalled one still receives every record once it resumes."""
        with AsyncReproServer(
            backend="auto",
            max_inflight=16,
            subscription_queue_max=4,
            connection_sndbuf=8192,
        ) as srv:
            srv.serve_background()
            specs = _specs(24, offset=7.0)

            slow = ServiceClient(srv.host, srv.port, timeout=60.0)
            slow._conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow_stream = slow.subscribe(specs, request_id="slow")

            # While the slow client reads nothing, a second subscriber
            # must stream the same suite to completion.
            with ServiceClient(srv.host, srv.port) as fast:
                fast_stream = fast.subscribe(specs, request_id="fast")
                fast_records = list(fast_stream)
            assert len(fast_records) == 24
            assert fast_stream.summary["records"] == 24

            # The stalled subscription's server-side buffer stays bounded.
            with srv._subs_lock:
                stalled = [
                    sub for sub in srv._subs if sub.request_id == "slow"
                ]
            for sub in stalled:
                assert sub.bridge.depth <= srv.subscription_queue_max + 1

            # Resume: every record arrives exactly once, summary intact.
            slow_records = list(slow_stream)
            slow.close()
            assert [record["seq"] for record in slow_records] == list(range(24))
            assert slow_stream.summary["records"] == 24
            assert (
                slow_stream.summary["fingerprint_digest"]
                == fast_stream.summary["fingerprint_digest"]
            )

    def test_abrupt_disconnect_still_drains_into_store(self, tmp_path):
        """A subscriber that vanishes mid-stream must not abort the
        sweep: the executor keeps draining and the store receives every
        fresh result."""
        store_dir = tmp_path / "store"
        with AsyncReproServer(
            backend="auto",
            store=str(store_dir),
            subscription_queue_max=2,
            connection_sndbuf=8192,
        ) as srv:
            srv.serve_background()
            specs = _specs(20, offset=11.0)
            client = ServiceClient(srv.host, srv.port)
            stream = client.subscribe(specs)
            next(stream)  # stream is live
            client.close()  # vanish mid-stream, nothing read since

            deadline = time.monotonic() + 30.0
            while srv.subscription_stats()["active"] > 0:
                assert time.monotonic() < deadline, "subscription never drained"
                time.sleep(0.01)
            stats = srv.subscription_stats()
            assert stats["completed"] == 1
            srv.stop()
            assert srv.leaked_tasks == []

        from repro.api import ResultStore

        store = ResultStore(store_dir)
        stored = sum(1 for spec in specs if store.get("auto", spec) is not None)
        assert stored == len(specs)


class TestLifecycle:
    def test_stop_is_idempotent_and_leaves_no_tasks(self):
        srv = AsyncReproServer(backend="auto")
        srv.serve_background()
        request_lines(srv.host, srv.port, [json.dumps({"op": "health"})])
        srv.stop()
        srv.stop()  # second stop returns immediately
        assert srv.leaked_tasks == []

    def test_stop_before_serve_is_clean(self):
        srv = AsyncReproServer(backend="auto")
        srv.stop()
        srv.serve_forever()  # returns immediately: stop already requested

    def test_requests_after_stop_began_are_refused(self):
        srv = AsyncReproServer(backend="auto")
        srv.serve_background()
        with socket.create_connection((srv.host, srv.port), timeout=5.0) as conn:
            stream = conn.makefile("rwb")
            stream.write(b'{"op": "health"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            stop_thread = threading.Thread(target=srv.stop, daemon=True)
            stop_thread.start()
            deadline = time.monotonic() + 10.0
            while not srv.stopping:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            stream.write(b'{"op": "health", "id": 5}\n')
            stream.flush()
            raw = stream.readline()
            if raw:  # refusal raced the connection teardown
                refusal = json.loads(raw)
                assert refusal["ok"] is False
                assert refusal["error_type"] == "ServiceUnavailableError"
        stop_thread.join(timeout=60.0)
        assert not stop_thread.is_alive()
