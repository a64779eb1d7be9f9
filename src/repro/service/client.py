"""Small clients for the serving wire, JSON or binary.

:func:`request_lines` is the one-shot, JSON-only helper;
:class:`ServiceClient` is the persistent-connection counterpart the
CLI, the benchmarks and the smoke scripts use when they want the
negotiated binary framing:

    with ServiceClient(host, port, binary=True) as client:
        response = client.request({"op": "solve", "spec": {...}})

``binary=True`` sends the ``hello`` upgrade first and falls back to
JSON transparently when the server declines (an old daemon answers
``hello`` with an unknown-op error -- the client notices and keeps
speaking JSON, so new clients work against old servers too).  Both
formats carry the same JSON text; a frame only adds a length prefix.
A request JSON cannot carry (``bytes``, NaN, an infinity) raises
:class:`~repro.service.frames.FrameError` before anything is written,
and the connection stays usable.

Any wire-level failure -- a read timeout, an EOF mid-response, a frame
that does not decode -- raises :class:`~repro.errors.ServiceProtocolError`
**after closing the connection**: once framing desyncs there is no way
to match a late response to its request, so a broken client must never
be reused (and refuses to be: further requests raise immediately).

:meth:`ServiceClient.subscribe` submits a whole spec suite on this one
connection and iterates the per-spec completion records as they stream
back, in completion order::

    with ServiceClient(host, port) as client:
        stream = client.subscribe(specs)
        for record in stream:          # {"op": "completion", "seq": ..., ...}
            ...
        print(stream.summary["fingerprint_digest"])
"""

from __future__ import annotations

import json
import socket
from typing import Any, Iterator, Optional

from ..errors import ReproError, ServiceProtocolError
from .frames import (
    HEADER_SIZE,
    FrameError,
    decode_payload,
    encode_payload,
    pack_frame,
    read_frame,
)
from .protocol import (
    COMPLETION_OP,
    FORMAT_BINARY,
    FORMAT_JSON,
    HELLO_OP,
    SUBSCRIBE_OP,
    SUMMARY_OP,
    SWEEP_OP,
)

__all__ = ["ServiceClient", "SubscribeStream", "request_lines"]


def request_lines(host: str, port: int, lines: list[str], timeout: float = 60.0) -> list[str]:
    """Tiny client: send request lines on one connection, return responses.

    Used by the tests, the serve smoke and the benchmark -- and a
    reasonable template for real clients: newline-delimited requests in,
    exactly one response line back per request, in order.
    """
    with socket.create_connection((host, port), timeout=timeout) as connection:
        with connection.makefile("rwb") as stream:
            for line in lines:
                stream.write((line.strip() + "\n").encode("utf-8"))
            stream.flush()
            connection.shutdown(socket.SHUT_WR)
            return [
                raw.decode("utf-8").rstrip("\n")
                for raw in stream
                if raw.strip()
            ]


class ServiceClient:
    """One persistent connection to a daemon or router.

    Args:
        host / port: the server address.
        binary: offer the binary-frame upgrade; :attr:`format` records
            what the connection actually negotiated.
        timeout: socket timeout per round-trip (and per streamed record
            during a subscription).
    """

    def __init__(
        self, host: str, port: int, binary: bool = False, timeout: float = 60.0
    ) -> None:
        self._conn = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._conn.makefile("rwb")
        self._closed = False
        self.format = FORMAT_JSON
        self.bytes_sent = 0
        self.bytes_received = 0
        if binary:
            self._negotiate()

    def _negotiate(self) -> None:
        response = self._request({"op": HELLO_OP, "format": FORMAT_BINARY})
        if response.get("ok") and response.get("format") == FORMAT_BINARY:
            self.format = FORMAT_BINARY
        # Any other answer (an old server's unknown-op error included)
        # leaves the connection in JSON mode, fully usable.

    @property
    def binary(self) -> bool:
        return self.format == FORMAT_BINARY

    @property
    def closed(self) -> bool:
        return self._closed

    def _broken(self, what: str, error: Optional[BaseException]) -> ServiceProtocolError:
        """Close the connection and build the error to raise -- in that
        order: a desynced connection must be dead before the caller can
        see (and possibly swallow) the exception."""
        self.close()
        detail = f": {error}" if error is not None else ""
        return ServiceProtocolError(f"{what}{detail}")

    def _write(self, data: dict[str, Any]) -> None:
        if self._closed:
            raise ServiceProtocolError("client connection is closed")
        payload = encode_payload(data)
        encoded = pack_frame(payload) if self.format == FORMAT_BINARY else payload + b"\n"
        try:
            self._stream.write(encoded)
            self._stream.flush()
        except (TimeoutError, OSError) as error:
            raise self._broken("send failed, connection closed", error) from error
        self.bytes_sent += len(encoded)

    def _read(self) -> dict[str, Any]:
        if self._closed:
            raise ServiceProtocolError("client connection is closed")
        if self.format == FORMAT_BINARY:
            return self._read_frame()
        return self._read_line()

    def _read_line(self) -> dict[str, Any]:
        try:
            raw = self._stream.readline()
        except TimeoutError as error:
            # The response may still arrive later; there is no way to
            # pair it with its request any more, so the connection is
            # unusable and must not be returned to the caller alive.
            raise self._broken("read timed out, connection closed", error) from error
        except OSError as error:
            raise self._broken("read failed, connection closed", error) from error
        if not raw:
            raise self._broken("server closed the connection mid-request", None)
        self.bytes_received += len(raw)
        try:
            response = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise self._broken("undecodable response, connection closed", error) from error
        if not isinstance(response, dict):
            raise self._broken("server answered a non-object response", None)
        return response

    def _read_frame(self) -> dict[str, Any]:
        try:
            payload = read_frame(self._stream)
        except TimeoutError as error:
            raise self._broken("read timed out, connection closed", error) from error
        except FrameError as error:
            raise self._broken("undecodable frame, connection closed", error) from error
        except OSError as error:
            raise self._broken("read failed, connection closed", error) from error
        if payload is None:
            raise self._broken("server closed the connection mid-request", None)
        self.bytes_received += HEADER_SIZE + len(payload)
        try:
            response = decode_payload(payload)
        except FrameError as error:
            raise self._broken("undecodable frame, connection closed", error) from error
        if not isinstance(response, dict):
            raise self._broken("server answered a non-object response", None)
        return response

    def _request(self, data: dict[str, Any]) -> dict[str, Any]:
        self._write(data)
        return self._read()

    def request(self, data: dict[str, Any]) -> dict[str, Any]:
        """One round-trip in whatever format the connection negotiated."""
        return self._request(data)

    def subscribe(
        self,
        specs: Any,
        backend: Optional[str] = None,
        request_id: Any = None,
    ) -> "SubscribeStream":
        """Submit a spec suite and stream its completions back.

        ``specs`` may hold spec objects or already-serialised spec
        dicts.  The server's ``ok`` ack is consumed here; a refusal
        (``ok: false`` -- e.g. an invalid suite) raises
        :class:`~repro.errors.ReproError` and leaves the connection
        usable.  Iterate the returned stream to exhaustion before
        issuing other requests on this client.
        """
        request: dict[str, Any] = {
            "op": SUBSCRIBE_OP,
            "specs": [
                spec.to_dict() if hasattr(spec, "to_dict") else spec for spec in specs
            ],
        }
        if backend is not None:
            request["backend"] = backend
        if request_id is not None:
            request["id"] = request_id
        ack = self._request(request)
        if not ack.get("ok"):
            raise ReproError(
                f"subscribe refused: {ack.get('error', 'unknown error')}"
            )
        return SubscribeStream(self, ack)

    def sweep(
        self,
        specs: Any,
        backend: Optional[str] = None,
        mode: str = "stream",
        request_id: Any = None,
    ) -> "SubscribeStream":
        """Submit a whole suite as one partitioned sweep.

        A sweep ships spec *partitions* to the workers, where each runs
        as one local batch plan -- all five execution tiers active (a
        cluster front runs :meth:`subscribe` through the same
        partitions; only its ack and summary differ).  ``mode="stream"``
        yields per-spec completion records exactly like subscribe;
        ``mode="fold"`` yields a single ``partial`` record carrying
        merged per-``(kind, backend)`` aggregate tables instead of
        envelopes.  The ack and summary carry fan-out, partition sizes
        and fleet tier counts.
        """
        request: dict[str, Any] = {
            "op": SWEEP_OP,
            "mode": mode,
            "specs": [
                spec.to_dict() if hasattr(spec, "to_dict") else spec for spec in specs
            ],
        }
        if backend is not None:
            request["backend"] = backend
        if request_id is not None:
            request["id"] = request_id
        ack = self._request(request)
        if not ack.get("ok"):
            raise ReproError(f"sweep refused: {ack.get('error', 'unknown error')}")
        return SubscribeStream(self, ack)

    def close(self) -> None:
        self._closed = True
        try:
            self._stream.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SubscribeStream:
    """Iterator over one subscription's streamed completion records.

    Yields each ``completion`` record as a dict; the terminating
    ``summary`` record is not yielded but stashed on :attr:`summary`.
    A mid-stream server abort (an ``ok: false`` record) raises
    :class:`~repro.errors.ReproError`; wire breakage raises
    :class:`~repro.errors.ServiceProtocolError` with the connection
    closed, like any other read.
    """

    def __init__(self, client: ServiceClient, ack: dict[str, Any]) -> None:
        self._client = client
        self.ack = ack
        self.summary: Optional[dict[str, Any]] = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self

    def __next__(self) -> dict[str, Any]:
        if self.summary is not None:
            raise StopIteration
        record = self._client._read()
        op = record.get("op")
        if op == SUMMARY_OP:
            self.summary = record
            raise StopIteration
        if not record.get("ok") and op != COMPLETION_OP:
            # A terminal server-side abort (shutdown mid-sweep, pump
            # failure); the stream is over but the connection is fine.
            raise ReproError(
                f"subscription aborted by server: {record.get('error', 'unknown error')}"
            )
        return record
