"""Regression tests for :class:`ServiceClient` wire-failure handling.

The original client let a mid-stream read timeout propagate as a raw
``TimeoutError`` while leaving the connection open -- a later request on
the same client would then read the *previous* request's late answer and
desync every response after it.  The contract now: any wire breakage
raises :class:`~repro.errors.ServiceProtocolError` and the connection is
closed before the exception reaches the caller.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import ServiceProtocolError
from repro.service import AsyncReproServer, ServiceClient


class _ManualServer:
    """A server stub scripted per connection: answer, stall, or slam."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()
        self._accepted: list[socket.socket] = []
        self._lock = threading.Lock()

    def accept_and(self, behaviour: str) -> threading.Thread:
        def run() -> None:
            conn, _ = self._listener.accept()
            with self._lock:
                self._accepted.append(conn)
            stream = conn.makefile("rwb")
            line = stream.readline()  # consume the request
            if behaviour == "stall":
                return  # keep the socket open, never answer
            if behaviour == "close":
                conn.close()
                return
            if behaviour == "garbage":
                stream.write(b"this is not json\n")
                stream.flush()
                return
            raise AssertionError(behaviour)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        with self._lock:
            for conn in self._accepted:
                try:
                    conn.close()
                except OSError:
                    pass
        self._listener.close()


@pytest.fixture
def manual():
    server = _ManualServer()
    yield server
    server.close()


class TestReadTimeout:
    def test_timeout_raises_protocol_error_and_closes(self, manual):
        """The satellite regression: a read timeout must not leave a
        desynced connection behind for the next request to trip over."""
        manual.accept_and("stall")
        client = ServiceClient(manual.host, manual.port, timeout=0.2)
        with pytest.raises(ServiceProtocolError, match="timed out"):
            client.request({"op": "health"})
        assert client.closed
        # The broken client refuses reuse instead of desyncing.
        with pytest.raises(ServiceProtocolError, match="closed"):
            client.request({"op": "health"})

    def test_timeout_closes_underlying_socket(self, manual):
        manual.accept_and("stall")
        client = ServiceClient(manual.host, manual.port, timeout=0.2)
        with pytest.raises(ServiceProtocolError):
            client.request({"op": "health"})
        assert client._conn.fileno() == -1  # really closed, not just flagged


class TestOtherBreakage:
    def test_eof_mid_request_raises_protocol_error(self, manual):
        manual.accept_and("close")
        client = ServiceClient(manual.host, manual.port, timeout=5.0)
        with pytest.raises(ServiceProtocolError, match="closed the connection"):
            client.request({"op": "health"})
        assert client.closed

    def test_undecodable_response_raises_protocol_error(self, manual):
        manual.accept_and("garbage")
        client = ServiceClient(manual.host, manual.port, timeout=5.0)
        with pytest.raises(ServiceProtocolError, match="undecodable"):
            client.request({"op": "health"})
        assert client.closed

    def test_healthy_round_trips_unaffected(self):
        with AsyncReproServer(backend="auto") as server:
            server.serve_background()
            with ServiceClient(server.host, server.port) as client:
                assert client.request({"op": "health"})["ok"]
                assert not client.closed
                # Closing is idempotent and flips the flag.
                client.close()
                assert client.closed
