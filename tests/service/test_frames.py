"""Payload, framing and negotiation tests for the binary serving wire.

A frame's payload is the JSON line the same message gets on the
JSON-Lines wire, minus the newline; the header only adds magic, version
and length.
"""

from __future__ import annotations

import io
import json
import math
import re
import socket
import struct
import threading

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.service import AsyncReproServer, ServiceClient, request_lines
from repro.service.frames import (
    FORMAT_BINARY,
    FORMAT_JSON,
    HEADER_SIZE,
    HELLO_OP,
    MAX_FRAME_BYTES,
    FrameError,
    decode_payload,
    encode_frame,
    encode_payload,
    pack_frame,
    read_frame,
)
from repro.service.protocol import Fragment, encode_response

SPEC = SearchProblem(distance=1.2, visibility=0.3)


# -- payload: the JSON line ----------------------------------------------------


class TestJsonPayload:
    SAMPLES = [
        {},
        {"ok": True, "op": "health", "id": None},
        {"nested": {"list": [1, 2], "flag": False}, "x": 1.5, "big": 2**70},
        {"text": "unicode: éα中", "empty": "", "floats": [0.0, -2.5, 1e300]},
    ]

    @pytest.mark.parametrize("message", SAMPLES, ids=repr)
    def test_payload_is_the_json_line(self, message):
        payload = encode_payload(message)
        assert payload == encode_response(message).encode("utf-8")
        assert payload == json.dumps(
            message, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        ).encode("utf-8")
        assert decode_payload(payload) == message

    def test_encoding_is_deterministic_under_key_order(self):
        assert encode_payload({"b": 1, "a": 2}) == encode_payload({"a": 2, "b": 1})

    @pytest.mark.parametrize(
        "value", [b"1.5", float("nan"), math.inf, -math.inf, {1, 2}], ids=repr
    )
    def test_a_value_json_cannot_carry_is_a_frame_error(self, value):
        with pytest.raises(FrameError):
            encode_payload({"spec": {"distance": value}})

    @pytest.mark.parametrize(
        "payload", [b"", b"{", b"not json", b'{"a":1}x', b'{"a":"\xff"}'], ids=repr
    )
    def test_an_undecodable_payload_is_a_frame_error(self, payload):
        with pytest.raises(FrameError):
            decode_payload(payload)


class TestFragmentSplicing:
    RESULT = {"value": [1.5, 2], "solved": True}

    def test_a_fragment_splices_verbatim(self):
        text = json.dumps(self.RESULT, sort_keys=True, separators=(",", ":"))
        fragment = Fragment(text, self.RESULT)
        spliced = encode_payload({"ok": True, "result": fragment, "id": 7})
        assert spliced == encode_payload({"ok": True, "result": self.RESULT, "id": 7})
        assert decode_payload(spliced)["result"] == self.RESULT

    def test_the_fragment_text_is_not_re_encoded(self):
        # A marker text proves the bytes come from the fragment, not its value.
        fragment = Fragment('{"marker":1}', self.RESULT)
        assert b'"result":{"marker":1}' in encode_payload({"result": fragment})


# -- framing -------------------------------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self):
        value = {"op": "solve", "spec": SPEC.to_dict()}
        stream = io.BytesIO(encode_frame(value) + encode_frame({}))
        assert decode_payload(read_frame(stream)) == value
        assert decode_payload(read_frame(stream)) == {}
        assert read_frame(stream) is None  # clean EOF at a boundary

    def test_header_is_version_two_and_the_payload_length(self):
        frame = encode_frame({"op": "health"})
        assert frame[:HEADER_SIZE] == struct.pack("!BBI", 0xB6, 2, len(b'{"op":"health"}'))
        assert frame[HEADER_SIZE:] == b'{"op":"health"}'

    def test_bad_magic_is_a_frame_error(self):
        with pytest.raises(FrameError, match="magic"):
            read_frame(io.BytesIO(b"\x00" + encode_frame({})[1:]))

    def test_bad_version_is_a_frame_error(self):
        frame = bytearray(encode_frame({}))
        frame[1] = 99
        with pytest.raises(FrameError, match="version"):
            read_frame(io.BytesIO(bytes(frame)))

    def test_a_version_one_header_is_refused(self):
        # Version 1 carried the retired tag codec: refused, never misparsed.
        header = struct.pack("!BBI", 0xB6, 1, 1)
        with pytest.raises(FrameError, match="unsupported frame version 1"):
            read_frame(io.BytesIO(header + b"N"))

    def test_oversize_length_is_a_frame_error(self):
        header = struct.pack("!BBI", 0xB6, 2, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="maximum"):
            read_frame(io.BytesIO(header))

    def test_truncated_header_is_a_frame_error(self):
        with pytest.raises(FrameError, match="mid-frame-header"):
            read_frame(io.BytesIO(encode_frame({})[:3]))

    def test_truncated_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame(io.BytesIO(encode_frame({"list": [1, 2, 3]})[:-2]))

    def test_pack_frame_refuses_oversize_payloads(self, monkeypatch):
        import repro.service.frames as frames

        monkeypatch.setattr(frames, "MAX_FRAME_BYTES", 16)
        with pytest.raises(FrameError):
            frames.pack_frame(b"x" * 17)


# -- negotiation against a live daemon -----------------------------------------


@pytest.fixture
def server():
    with AsyncReproServer(backend="auto", max_inflight=16) as srv:
        srv.serve_background()
        yield srv


def _upgraded_stream(server):
    """A raw connection already switched to binary frames."""
    conn = socket.create_connection((server.host, server.port), timeout=30)
    stream = conn.makefile("rwb")
    stream.write(b'{"op": "hello", "format": "binary"}\n')
    stream.flush()
    answer = json.loads(stream.readline())
    assert answer["ok"] and answer["format"] == FORMAT_BINARY
    return conn, stream


class TestNegotiation:
    def test_binary_client_negotiates_and_solves_bit_identically(self, server):
        with ServiceClient(server.host, server.port, binary=True) as client:
            assert client.binary and client.format == FORMAT_BINARY
            response = client.request(
                {"op": "solve", "spec": SPEC.to_dict(), "backend": "auto", "id": 3}
            )
        assert response["ok"] and response["id"] == 3
        served = SolveResult.from_dict(response["result"])
        assert served.fingerprint() == solve(SPEC, backend="auto").fingerprint()

    def test_json_and_binary_clients_answer_identically(self, server):
        with ServiceClient(server.host, server.port, binary=True) as binary_client:
            binary_response = binary_client.request(
                {"op": "solve", "spec": SPEC.to_dict()}
            )
        (line,) = request_lines(
            server.host, server.port, [json.dumps({"op": "solve", "spec": SPEC.to_dict()})]
        )
        json_response = json.loads(line)
        assert binary_response["ok"] and json_response["ok"]
        binary_served = SolveResult.from_dict(binary_response["result"])
        json_served = SolveResult.from_dict(json_response["result"])
        assert binary_served.fingerprint() == json_served.fingerprint()

    def test_repeat_binary_solve_hits_the_hot_cache(self, server):
        request = {"op": "solve", "spec": SPEC.to_dict()}
        with ServiceClient(server.host, server.port, binary=True) as client:
            first = client.request(request)
            second = client.request(request)
        assert first["ok"] and second["ok"]
        assert second["served_by"] == "cache"
        assert (
            SolveResult.from_dict(second["result"]).fingerprint()
            == SolveResult.from_dict(first["result"]).fingerprint()
        )

    def test_hello_with_unknown_format_keeps_the_connection_json(self, server):
        lines = [
            json.dumps({"op": HELLO_OP, "format": "msgpack"}),
            json.dumps({"op": "solve", "spec": SPEC.to_dict()}),
        ]
        rejected, solved = [
            json.loads(line) for line in request_lines(server.host, server.port, lines)
        ]
        assert not rejected["ok"] and "msgpack" in rejected["error"]
        assert solved["ok"]

    def test_hello_defaulting_to_json_does_not_upgrade(self, server):
        lines = [
            json.dumps({"op": HELLO_OP}),
            json.dumps({"op": "solve", "spec": SPEC.to_dict()}),
        ]
        hello, solved = [
            json.loads(line) for line in request_lines(server.host, server.port, lines)
        ]
        assert hello["ok"] and hello["format"] == FORMAT_JSON
        assert FORMAT_BINARY in hello["formats"]
        assert solved["ok"]

    def test_client_falls_back_when_the_server_declines(self):
        """A pre-negotiation daemon answers ``hello`` with an unknown-op
        error; the client must notice and keep speaking JSON."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def legacy_server():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for raw in stream:
                    request = json.loads(raw)
                    if request.get("op") == HELLO_OP:
                        answer = {"ok": False, "op": HELLO_OP, "error": "unknown op 'hello'"}
                    else:
                        answer = {"ok": True, "op": request.get("op"), "echo": True}
                    stream.write((json.dumps(answer) + "\n").encode())
                    stream.flush()

        thread = threading.Thread(target=legacy_server, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", port, binary=True) as client:
                assert not client.binary and client.format == FORMAT_JSON
                assert client.request({"op": "health"})["echo"]
        finally:
            listener.close()
            thread.join(timeout=5.0)


class TestBinaryFailureModes:
    def test_malformed_payload_answers_cleanly_and_the_connection_survives(self, server):
        conn, stream = _upgraded_stream(server)
        with conn:
            stream.write(pack_frame(b"\x01garbage"))
            stream.flush()
            error = decode_payload(read_frame(stream))
            assert not error["ok"]
            assert error["error_type"] == "FrameError"
            # The stream is still in sync: a well-formed request works.
            stream.write(encode_frame({"op": "health"}))
            stream.flush()
            health = decode_payload(read_frame(stream))
            assert health["ok"] and health["health"]["status"] == "serving"

    def test_corrupted_header_answers_once_then_closes(self, server):
        conn, stream = _upgraded_stream(server)
        with conn:
            stream.write(b"\xde\xad\xbe\xef\x00\x00")
            stream.flush()
            conn.shutdown(socket.SHUT_WR)
            error = decode_payload(read_frame(stream))
            assert not error["ok"]
            assert error["error_type"] == "FrameError"
            assert read_frame(stream) is None  # server closed the connection

    def test_binary_unknown_op_keeps_the_connection(self, server):
        conn, stream = _upgraded_stream(server)
        with conn:
            stream.write(encode_frame({"op": "nonsense", "id": 1}))
            stream.write(encode_frame({"op": "metrics"}))
            stream.flush()
            error = decode_payload(read_frame(stream))
            assert not error["ok"] and error["id"] == 1
            metrics = decode_payload(read_frame(stream))
            assert metrics["ok"]


class TestJsonCompatibility:
    def test_plain_json_clients_see_the_exact_legacy_encoding(self, server):
        """Old clients never sent ``hello``; their lines must come back as
        compact ``sort_keys`` JSON, one response per line, exactly as
        before the binary framing existed."""
        lines = [
            json.dumps({"op": "solve", "spec": SPEC.to_dict(), "id": 1}),
            "not even json",
            json.dumps({"op": "health"}),
        ]
        out = request_lines(server.host, server.port, lines)
        assert len(out) == 3
        for line in out:
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        assert json.loads(out[0])["ok"] and json.loads(out[0])["id"] == 1
        assert not json.loads(out[1])["ok"]
        assert json.loads(out[2])["ok"]

    def test_json_solve_after_binary_traffic_is_unaffected(self, server):
        """The hot cache and Raw splicing on the binary path must never
        leak into a JSON client's response."""
        request = {"op": "solve", "spec": SPEC.to_dict()}
        with ServiceClient(server.host, server.port, binary=True) as client:
            client.request(request)
            client.request(request)  # populate + hit the hot cache
        (line,) = request_lines(server.host, server.port, [json.dumps(request)])
        response = json.loads(line)
        assert response["ok"]
        assert isinstance(response["result"], dict)
        served = SolveResult.from_dict(response["result"])
        assert served.fingerprint() == solve(SPEC, backend="auto").fingerprint()


class TestTransportMetrics:
    def test_metrics_report_both_formats_and_kernel_cache(self, server):
        request = {"op": "solve", "spec": SPEC.to_dict()}
        with ServiceClient(server.host, server.port, binary=True) as client:
            client.request(request)
        with ServiceClient(server.host, server.port) as client:
            client.request(request)
            metrics = client.request({"op": "metrics"})["metrics"]
        transport = metrics["transport"]
        assert transport[FORMAT_BINARY]["connections"] >= 1
        assert transport[FORMAT_BINARY]["requests"] >= 1
        assert transport[FORMAT_BINARY]["bytes_in"] > 0
        assert transport[FORMAT_BINARY]["bytes_out"] > 0
        assert transport[FORMAT_JSON]["requests"] >= 2
        assert transport[FORMAT_JSON]["bytes_out"] > 0
        kernel_cache = metrics["kernel_cache"]
        assert "local_compiles" in kernel_cache

    def test_client_byte_counters_track_the_wire(self, server):
        with ServiceClient(server.host, server.port, binary=True) as client:
            client.request({"op": "health"})
            assert client.bytes_sent > 0
            assert client.bytes_received > 0


# -- one codec: a frame carries the JSON line ------------------------------------

#: Volatile members masked before two transports' bytes are compared.
_VOLATILE = re.compile(rb'"(latency_ms|wall_time|wall_time_ms)":[0-9.eE+-]+')


def _mask(line: bytes) -> bytes:
    return _VOLATILE.sub(rb'"\1":0', line)


def _json_exchange(server, requests: list[dict], reads: int) -> list[bytes]:
    """Raw response lines (no newline) for ``requests`` on one JSON connection."""
    with socket.create_connection((server.host, server.port), timeout=30) as conn:
        stream = conn.makefile("rwb")
        for request in requests:
            stream.write(encode_response(request).encode("utf-8") + b"\n")
        stream.flush()
        return [stream.readline().rstrip(b"\n") for _ in range(reads)]


def _binary_exchange(server, requests: list[dict], reads: int) -> list[bytes]:
    """Raw frame payloads for ``requests`` on one upgraded connection."""
    conn, stream = _upgraded_stream(server)
    with conn:
        for request in requests:
            stream.write(encode_frame(request))
        stream.flush()
        return [read_frame(stream) for _ in range(reads)]


class TestOneCodec:
    def test_a_solve_and_a_sweep_send_the_same_bytes_over_both_transports(self):
        specs = [
            SearchProblem(distance=1.0 + 0.11 * i, visibility=0.3).to_dict() for i in range(4)
        ]
        requests = [
            {"op": "solve", "spec": SPEC.to_dict(), "id": 1},
            {"op": "solve", "spec": SPEC.to_dict(), "id": 2},
            {"op": "sweep", "specs": specs, "id": "s"},
        ]
        reads = 2 + 1 + len(specs) + 1  # two solves, ack, records, summary
        answers = {}
        for exchange in (_json_exchange, _binary_exchange):
            with AsyncReproServer(backend="auto") as srv:
                srv.serve_background()
                answers[exchange] = [_mask(answer) for answer in exchange(srv, requests, reads)]
        json_answers, binary_answers = answers[_json_exchange], answers[_binary_exchange]
        # The cold solve, its hot replay, the ack and the summary in order;
        # the sweep's records in completion order, which is the kernel's.
        assert json_answers[:3] == binary_answers[:3]
        assert json_answers[-1] == binary_answers[-1]
        by_seq = re.compile(rb'"seq":\d+')
        assert sorted(by_seq.sub(b"", a) for a in json_answers[3:-1]) == sorted(
            by_seq.sub(b"", a) for a in binary_answers[3:-1]
        )
        assert b'"served_by":"solve"' in json_answers[0]
        assert b'"served_by":"cache"' in json_answers[1]


class TestUnencodableRequests:
    @pytest.mark.parametrize("value", [b"1.5", float("nan"), math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
    def test_refused_in_the_client_before_anything_is_written(self, server, binary, value):
        spec = {**SPEC.to_dict(), "distance": value}
        with ServiceClient(server.host, server.port, binary=binary) as client:
            assert client.binary is binary
            sent = client.bytes_sent
            with pytest.raises(FrameError):
                client.request({"op": "solve", "spec": spec})
            with pytest.raises(FrameError):
                client.sweep([spec])
            assert client.bytes_sent == sent and not client.closed
            # Nothing reached the wire, so the connection is still in sync.
            response = client.request({"op": "solve", "spec": SPEC.to_dict(), "id": 5})
        assert response["ok"] and response["id"] == 5
