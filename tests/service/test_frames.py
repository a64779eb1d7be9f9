"""Codec, framing and negotiation tests for the binary serving wire."""

from __future__ import annotations

import io
import json
import socket
import struct
import threading

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.service import AsyncReproServer, ServiceClient, request_lines
from repro.service.frames import (
    FORMAT_BINARY,
    FORMAT_JSON,
    HELLO_OP,
    MAX_FRAME_BYTES,
    FrameError,
    Raw,
    decode_payload,
    encode_frame,
    encode_payload,
    materialize_raw,
    pack_frame,
    read_frame,
)

SPEC = SearchProblem(distance=1.2, visibility=0.3)


# -- payload codec -------------------------------------------------------------


class TestPayloadCodec:
    SAMPLES = [
        None,
        True,
        False,
        0,
        -1,
        2**62,
        -(2**62),
        0.0,
        -2.5,
        1e300,
        "",
        "ascii",
        "unicode: éα中",
        b"",
        b"\x00\xffraw",
        [],
        [1, "two", 3.0, None, [True]],
        {},
        {"nested": {"list": [1, 2], "flag": False}, "x": 1.5},
    ]

    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_roundtrip(self, value):
        assert decode_payload(encode_payload(value)) == value

    def test_tuples_encode_as_lists(self):
        assert decode_payload(encode_payload((1, 2, (3,)))) == [1, 2, [3]]

    def test_encoding_is_deterministic_under_key_order(self):
        assert encode_payload({"b": 1, "a": 2}) == encode_payload({"a": 2, "b": 1})

    def test_int64_overflow_is_a_frame_error(self):
        with pytest.raises(FrameError):
            encode_payload(2**63)

    def test_non_string_dict_key_is_a_frame_error(self):
        with pytest.raises(FrameError):
            encode_payload({1: "x"})

    def test_unencodable_type_is_a_frame_error(self):
        with pytest.raises(FrameError):
            encode_payload({"bad": {1, 2}})

    def test_truncated_payload_is_a_frame_error(self):
        payload = encode_payload({"key": [1.0, 2.0, 3.0]})
        with pytest.raises(FrameError):
            decode_payload(payload[:-1])

    def test_trailing_bytes_are_a_frame_error(self):
        with pytest.raises(FrameError):
            decode_payload(encode_payload(1) + b"x")

    def test_unknown_tag_is_a_frame_error(self):
        with pytest.raises(FrameError):
            decode_payload(b"\x00")


class TestRawSpans:
    PAYLOAD = {"ok": True, "result": {"value": [1.5, 2], "solved": True}, "id": 7}

    def test_raw_keys_come_back_as_spans(self):
        decoded = decode_payload(
            encode_payload(self.PAYLOAD), raw_keys=frozenset({"result"})
        )
        assert isinstance(decoded["result"], Raw)
        assert decoded["ok"] is True and decoded["id"] == 7
        assert decoded["result"].decode() == self.PAYLOAD["result"]

    def test_splicing_raw_back_is_byte_identical(self):
        reference = encode_payload(self.PAYLOAD)
        decoded = decode_payload(reference, raw_keys=frozenset({"result"}))
        assert encode_payload(decoded) == reference

    def test_materialize_raw_decodes_top_level_spans(self):
        decoded = decode_payload(
            encode_payload(self.PAYLOAD), raw_keys=frozenset({"result"})
        )
        assert materialize_raw(decoded) == self.PAYLOAD
        # JSON emission is the whole point of materialising.
        json.dumps(materialize_raw(decoded))

    def test_materialize_raw_is_a_no_op_without_spans(self):
        assert materialize_raw(self.PAYLOAD) is self.PAYLOAD
        assert materialize_raw("not a dict") == "not a dict"


# -- framing -------------------------------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self):
        value = {"op": "solve", "spec": SPEC.to_dict()}
        stream = io.BytesIO(encode_frame(value) + encode_frame(None))
        assert decode_payload(read_frame(stream)) == value
        assert decode_payload(read_frame(stream)) is None
        assert read_frame(stream) is None  # clean EOF at a boundary

    def test_bad_magic_is_a_frame_error(self):
        with pytest.raises(FrameError, match="magic"):
            read_frame(io.BytesIO(b"\x00" + encode_frame(1)[1:]))

    def test_bad_version_is_a_frame_error(self):
        frame = bytearray(encode_frame(1))
        frame[1] = 99
        with pytest.raises(FrameError, match="version"):
            read_frame(io.BytesIO(bytes(frame)))

    def test_oversize_length_is_a_frame_error(self):
        header = struct.pack("!BBI", 0xB6, 1, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="maximum"):
            read_frame(io.BytesIO(header))

    def test_truncated_header_is_a_frame_error(self):
        with pytest.raises(FrameError, match="mid-frame-header"):
            read_frame(io.BytesIO(encode_frame(1)[:3]))

    def test_truncated_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame(io.BytesIO(encode_frame([1, 2, 3])[:-2]))

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
