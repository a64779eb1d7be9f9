"""``repro serve`` -- the asyncio serving transport.

One event loop per process handles every connection; solver work still
runs on threads (the backends are blocking, CPU-bound code), but a
connection does not *cost* a thread -- idle connections are just
loop-registered sockets.

:class:`AsyncLineServer` is the transport skeleton, shared by the
solver daemon (:class:`AsyncReproServer`) and the cluster front
(:class:`~repro.cluster.router.AsyncShardRouter`):

* both wire formats of the serving tier -- the JSON-Lines verbs of
  :mod:`repro.service.protocol`, and the same lines in the
  length-prefixed binary frames behind the ``hello`` negotiation;
* per-connection requests answered strictly in order (concurrency
  comes from concurrent connections): in the loop when a subclass's
  fast path can answer without waiting on anything, on a bounded
  thread pool otherwise, so the loop never blocks;
* backpressure-aware writes: every response goes through
  ``writer.drain()``, so a slow reader throttles only its own
  connection's stream, never the loop and never the solver;
* a graceful, idempotent, thread-safe :meth:`stop`: stop accepting,
  finish in-flight requests, answer lines read after the stop began
  with a clean ``ok: false`` shutting-down refusal, wind down
  subscriptions, drain the service, audit for leaked tasks.

On top of it, the ``subscribe`` and ``sweep`` verbs stream a whole
suite over one connection: the spec suite is planned once, executed
through the runner's completion-order stream
(:meth:`~repro.api.batch.BatchRunner.execute_iter`) on a dedicated
producer thread, and the completions cross into the event loop through
a per-subscription :class:`_SubscriptionBridge` **in batches**: the
producer wakes the loop only when the consumer is parked, and the
consumer takes every buffered record per wake-up and writes them with
one ``writer.write`` + ``drain()``.  The bridge is **bounded**: when a
subscriber stops reading, at most ``subscription_queue_max`` records
buffer server-side (plus the one batch in the transport buffer) and the
producer blocks -- throttling only that subscription's own solve
stream.  A subscriber that disconnects mid-stream flips the bridge to
discard mode: the producer keeps draining the executor (so the LRU and
the persistent store still receive every fresh result) and throws the
records away.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from ..api.batch import RunnerBusy
from ..api.result import EncodedEnvelope
from ..api.spec import spec_from_dict
from ..errors import ServiceUnavailableError
from .frames import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    FrameError,
    decode_header,
    decode_payload,
    encode_frame,
)
from .protocol import (
    FORMAT_BINARY,
    FORMAT_JSON,
    FORMATS,
    HELLO_OP,
    SHUTDOWN_OP,
    SUBSCRIBE_OP,
    SWEEP_OP,
    Fragment,
    completion_record,
    decode_request,
    encode_response,
    error_response,
    handle_request,
    normalize_request,
    parse_subscribe,
    parse_sweep,
    result_fragment,
    solve_response,
    subscribe_ack,
    subscribe_summary,
    sweep_ack,
    sweep_partial,
    sweep_summary,
)
from .service import SolverService

__all__ = ["AsyncLineServer", "AsyncReproServer", "TransportMetrics", "hot_solve_key"]

#: Queue sentinel: the producer thread finished (summary already queued,
#: or the pump died after queueing its error record).
_DONE = object()


class TransportMetrics:
    """Per-wire-format transport counters of one server.

    A connection is counted under every format it actually spoke (an
    upgraded connection starts as ``json`` for its hello and continues
    as ``binary``); requests and bytes are counted under the format
    that carried them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._formats = {
            fmt: {"connections": 0, "requests": 0, "bytes_in": 0, "bytes_out": 0}
            for fmt in FORMATS
        }

    def record_connection(self, fmt: str) -> None:
        with self._lock:
            self._formats[fmt]["connections"] += 1

    def record_request(self, fmt: str, bytes_in: int, bytes_out: int) -> None:
        with self._lock:
            counters = self._formats[fmt]
            counters["requests"] += 1
            counters["bytes_in"] += bytes_in
            counters["bytes_out"] += bytes_out

    def record_stream(self, fmt: str, bytes_out: int) -> None:
        """Count bytes of streamed records (not individual requests).

        A subscription is one request (counted at its ack) followed by
        many pushed records; counting each record as a request would make
        the transport totals lie about the wire's request/response ratio.
        """
        with self._lock:
            self._formats[fmt]["bytes_out"] += bytes_out

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {fmt: dict(counters) for fmt, counters in self._formats.items()}


def hot_solve_key(data: Any) -> Optional[tuple[Optional[str], str]]:
    """The hot-response-cache key of a solve request (None: not cacheable)."""
    if not isinstance(data, dict):
        return None
    op = data.get("op")
    spec = data.get("spec")
    if op is None and "kind" in data:
        op = "solve"
        spec = {key: value for key, value in data.items() if key != "id"}
    if op != "solve" or not isinstance(spec, dict):
        return None
    backend = data.get("backend")
    if backend is not None and not isinstance(backend, str):
        return None
    return backend, repr(sorted(spec.items(), key=lambda item: str(item[0])))


def _refusal(op: Any, request_id: Any) -> dict[str, Any]:
    """The clean refusal a request read after a stop began is answered with."""
    return error_response(
        str(op if op is not None else "?"),
        ServiceUnavailableError("server is shutting down, request refused"),
        request_id,
    )


def _shutting_down_response(line: str) -> dict[str, Any]:
    """The clean refusal a connection gets for lines read after stop began."""
    data, _ = decode_request(line)
    if data is not None:
        op, _, request_id = normalize_request(data)
    else:
        op, request_id = None, None
    return _refusal(op, request_id)


def _wake(waiter: "asyncio.Future[None]") -> None:
    if not waiter.done():
        waiter.set_result(None)


class _SubscriptionBridge:
    """Thread-to-loop conduit that hands records over in batches.

    The producer thread appends records to a buffer of at most
    ``maxsize`` and blocks while it is full; it schedules a loop
    wake-up (``call_soon_threadsafe``) only when the loop-side consumer
    is parked waiting, so a burst of records costs one wake-up, not one
    each.  The consumer takes every buffered record per wake-up
    (:meth:`get_batch`).  The buffer never holds more than ``maxsize``
    records (plus the terminating sentinel), no matter how far the
    solver runs ahead of a slow subscriber -- the memory bound the
    backpressure tests pin down.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, maxsize: int) -> None:
        self.maxsize = maxsize
        self._loop = loop
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._buffer: list[Any] = []
        self._waiter: Optional["asyncio.Future[None]"] = None
        self._cancelled = threading.Event()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def depth(self) -> int:
        """Records currently buffered (<= maxsize + sentinel)."""
        with self._lock:
            return len(self._buffer)

    @property
    def parked(self) -> bool:
        """True while the consumer waits for the next record."""
        with self._lock:
            return self._waiter is not None

    def _append(self, item: Any) -> bool:  # holding the lock
        self._buffer.append(item)
        waiter, self._waiter = self._waiter, None
        if waiter is None:
            return True
        try:
            self._loop.call_soon_threadsafe(_wake, waiter)
        except RuntimeError:  # loop closed mid-stream (server teardown)
            self._cancelled.set()
            return False
        return True

    def put(self, record: Any) -> bool:
        """Deliver one record from the producer thread (blocking while full).

        Returns False when the consumer is gone -- the record is
        discarded, and the caller is expected to keep iterating so the
        execution stream (and with it the store) still drains fully.
        """
        with self._lock:
            while len(self._buffer) >= self.maxsize and not self._cancelled.is_set():
                self._space.wait(timeout=0.1)
            if self._cancelled.is_set():
                return False
            return self._append(record)

    def finish(self) -> None:
        """Queue the terminating sentinel (bypasses the bound)."""
        with self._lock:
            self._append(_DONE)

    async def get_batch(self) -> list[Any]:
        """Every buffered record, in order; parks while there is none.

        The sentinel, once queued, is the last item of the final batch.
        """
        while True:
            with self._lock:
                if self._buffer:
                    batch, self._buffer = self._buffer, []
                    self._space.notify_all()
                    return batch
                waiter = self._waiter = self._loop.create_future()
            try:
                await waiter
            finally:
                with self._lock:
                    if self._waiter is waiter:
                        self._waiter = None

    def cancel(self) -> None:
        """Consumer gone: discard future records, unblock the producer."""
        self._cancelled.set()
        with self._lock:
            self._space.notify_all()


class _Subscription:
    """One active subscription: its bridge, identity and lifecycle."""

    __slots__ = ("bridge", "op", "request_id", "thread", "done")

    def __init__(self, bridge: _SubscriptionBridge, op: str, request_id: Any) -> None:
        self.bridge = bridge
        self.op = op
        self.request_id = request_id
        self.thread: Optional[threading.Thread] = None
        self.done = threading.Event()


class AsyncLineServer:
    """Asyncio transport skeleton: JSON lines, binary frames, subscriptions.

    Subclasses implement :meth:`answer_request` (blocking, runs on the
    request thread pool), optionally :meth:`answer_fast` (non-blocking
    in-loop fast path, which may hand what it parsed on to
    :meth:`answer_request` through :attr:`_handoff`),
    :meth:`subscribe_open` / :meth:`subscribe_pump` (the streamed-sweep
    verb) and :meth:`_drain` (what must finish before a stop completes).

    The listening socket is bound in the constructor -- :attr:`address`
    is valid immediately -- and handed to the event loop when serving
    starts.
    """

    #: Listen backlog: sized for connection-storm benchmarks.
    BACKLOG = 512

    #: Hard bound on records buffered per subscription (see
    #: :class:`_SubscriptionBridge`).
    SUBSCRIPTION_QUEUE_MAX = 64

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: Optional[int] = None,
        subscription_queue_max: Optional[int] = None,
        connection_sndbuf: Optional[int] = None,
    ) -> None:
        self.subscription_queue_max = (
            subscription_queue_max
            if subscription_queue_max is not None
            else self.SUBSCRIPTION_QUEUE_MAX
        )
        #: Per-connection SO_SNDBUF override (and write high-water mark);
        #: mostly an ops/test knob to make backpressure bite early.
        self.connection_sndbuf = connection_sndbuf
        self.transport = TransportMetrics()
        workers = (
            executor_workers
            if executor_workers is not None
            else min(32, max(8, (os.cpu_count() or 1) * 4))
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-aio"
        )
        self._sock = socket.create_server((host, port), backlog=self.BACKLOG)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._stop_requested = False
        self._stop_lock = threading.Lock()
        self._stop_done = threading.Event()
        self._drain_timeout: Optional[float] = 30.0
        self._busy = 0  # loop-confined: in-flight request count
        #: Loop-confined: what :meth:`answer_fast` parsed from a request
        #: it fell through on; :meth:`_answer` takes it right after the
        #: call and passes it to :meth:`answer_request`.
        self._handoff: Any = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._subs: set[_Subscription] = set()
        self._subs_lock = threading.Lock()
        self._sub_counts = {"opened": 0, "completed": 0, "cancelled": 0}
        #: Tasks still pending when the loop wound down -- the
        #: zero-leaked-tasks gate of the async smoke reads this.
        self.leaked_tasks: list[asyncio.Task] = []

    # -- to be provided by subclasses ------------------------------------------
    def answer_request(self, data: Any, handoff: Any = None) -> dict[str, Any]:
        """Answer one decoded request (thread pool; must never raise).

        ``handoff`` is what :meth:`answer_fast` left in :attr:`_handoff`
        for this request (None when it left nothing).
        """
        raise NotImplementedError

    def answer_fast(self, data: Any) -> Optional[dict[str, Any]]:
        """Optional in-loop fast path; None falls through to the pool.

        Must never wait (no lock that another thread may hold, no I/O).
        Before falling through it may set :attr:`_handoff` to work it
        already did, which :meth:`answer_request` then receives.
        """
        return None

    def after_answer(self, data: Any, response: dict[str, Any]) -> None:
        """In-loop hook after a pooled answer (hot-cache population)."""

    def subscribe_open(self, data: dict[str, Any], request_id: Any) -> tuple[Any, dict]:
        """Validate + plan one subscription (thread pool): ``(job, ack)``.

        Raising refuses the subscription with a single ``ok: false``
        response; no stream starts.
        """
        raise NotImplementedError

    def subscribe_pump(self, job: Any, bridge: _SubscriptionBridge) -> None:
        """Execute one subscription on its producer thread.

        Must push every record (and the summary) through ``bridge.put``
        and never raise -- the wrapper converts stray exceptions into a
        terminal error record.
        """
        raise NotImplementedError

    def _drain(self, timeout: Optional[float]) -> None:
        """Finish outstanding work once the socket stopped accepting."""
        raise NotImplementedError

    # -- addressing ------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._sock.getsockname()[0]

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self._stop_requested

    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until :meth:`stop`."""
        with self._stop_lock:
            if self._stop_requested:
                return  # stopped before the loop ever started (early signal)
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()
            self._stop_done.set()

    def serve_background(self) -> threading.Thread:
        """Serve from a daemon thread; returns once the loop is accepting."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-aio-{self.port}", daemon=True
        )
        thread.start()
        self._ready.wait(timeout=10.0)
        return thread

    def stop_async(self) -> None:
        """Initiate shutdown without blocking (signal handlers, verbs)."""
        threading.Thread(target=self.stop, daemon=True).start()

    def stop(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Stop accepting, finish in-flight work, drain; idempotent + blocking.

        Must not be called from inside the event loop thread (use
        :meth:`stop_async` there).
        """
        with self._stop_lock:
            first = not self._stop_requested
            self._stop_requested = True
            self._drain_timeout = drain_timeout
        wait = None if drain_timeout is None else drain_timeout + 30.0
        if not first:
            self._stop_done.wait(timeout=wait)
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:  # loop closed between the check and the call
                pass
            else:
                self._stop_done.wait(timeout=wait)
                return
        # The loop never ran (or already finished): drain directly.
        try:
            self._finish_drain()
        finally:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._stop_done.set()

    def _signal_stop(self) -> None:  # loop thread
        if self._stop_event is not None:
            self._stop_event.set()

    def __enter__(self) -> "AsyncLineServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the event loop --------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            self._stop_event.set()
        server = await asyncio.start_server(
            self._on_connection, sock=self._sock, limit=MAX_FRAME_BYTES
        )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._shutdown_gracefully()

    async def _shutdown_gracefully(self) -> None:
        timeout = self._drain_timeout if self._drain_timeout is not None else 30.0
        deadline = self._loop.time() + timeout
        # 1. In-flight requests finish and write their responses
        #    (connections reading further lines are answered with the
        #    shutting-down refusal -- the ``stopping`` flag is set).
        while self._busy > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        # 2. Active subscriptions wind down: their producers observe the
        #    stop flag at the next completion and terminate their streams.
        while self._subs and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        # 3. Idle connections (blocked in a read) are cancelled.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        # 4. Join producer threads, shut the request pool down, drain the
        #    service -- blocking work, run off-loop on the default executor
        #    (our own executor is one of the things being shut down).
        await self._loop.run_in_executor(None, self._finish_drain)
        # 5. Leaked-task audit: anything still pending besides this task
        #    is a bug the async smoke gates on.
        current = asyncio.current_task()
        self.leaked_tasks = [
            task
            for task in asyncio.all_tasks(self._loop)
            if task is not current and not task.done()
        ]

    def _finish_drain(self) -> None:
        with self._subs_lock:
            subs = list(self._subs)
        for sub in subs:
            sub.bridge.cancel()
        for sub in subs:
            sub.done.wait(timeout=10.0)
        self._executor.shutdown(wait=True)
        self._drain(self._drain_timeout)

    # -- connections -----------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        if self.connection_sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, self.connection_sndbuf
                    )
            writer.transport.set_write_buffer_limits(high=self.connection_sndbuf)
        try:
            await self._serve_json(reader, writer)
        except asyncio.CancelledError:  # server stopping: close quietly
            pass
        except Exception:  # noqa: BLE001 - a connection must never kill the loop
            pass
        finally:
            self._conn_tasks.discard(task)
            # FIN before close: closing a socket that still holds unread
            # request bytes (a line sent while a stop cancels this task)
            # resets the connection, and the client would lose the EOF.
            with contextlib.suppress(Exception):
                writer.write_eof()
            with contextlib.suppress(Exception):
                writer.close()

    def _begin(self) -> bool:  # loop thread
        if self._stop_requested:
            return False
        self._busy += 1
        return True

    def _end(self) -> None:  # loop thread
        self._busy -= 1

    async def _answer(self, data: Any) -> dict[str, Any]:
        fast = self.answer_fast(data)
        if fast is not None:
            return fast
        handoff, self._handoff = self._handoff, None
        try:
            response = await self._loop.run_in_executor(
                self._executor, self.answer_request, data, handoff
            )
        except RuntimeError as error:  # pool shut down: a stop won the race
            op = data.get("op") if isinstance(data, dict) else None
            request_id = data.get("id") if isinstance(data, dict) else None
            return error_response(
                str(op if op is not None else "?"),
                ServiceUnavailableError(f"server is shutting down: {error}"),
                request_id,
            )
        self.after_answer(data, response)
        return response

    # -- JSON lines ------------------------------------------------------------
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        response: dict[str, Any],
        bytes_in: int,
    ) -> bool:
        encoded = (encode_response(response) + "\n").encode("utf-8")
        # Count before the write: a client that has received a response
        # must observe it in a metrics snapshot on another connection.
        self.transport.record_request(FORMAT_JSON, bytes_in, len(encoded))
        try:
            writer.write(encoded)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _serve_json(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.transport.record_connection(FORMAT_JSON)
        while True:
            try:
                raw = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return  # line exceeded the transport limit: unsyncable
            except (ConnectionError, OSError):
                return
            if not raw:  # EOF: client closed its sending side
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            if self._stop_requested:
                if not await self._send_json(
                    writer, _shutting_down_response(line), len(raw)
                ):
                    return
                continue
            data, decode_error = decode_request(line)
            if decode_error is not None:
                if not await self._send_json(writer, decode_error, len(raw)):
                    return
                continue
            op, _, request_id = normalize_request(data)
            if op in (SUBSCRIBE_OP, SWEEP_OP):
                if not await self._serve_subscription(
                    writer, FORMAT_JSON, data, request_id, len(raw)
                ):
                    return
                continue
            if not self._begin():
                if not await self._send_json(writer, _refusal(op, request_id), len(raw)):
                    return
                continue
            try:
                response = await self._answer(data)
                sent = await self._send_json(writer, response, len(raw))
            finally:
                self._end()
            if not sent:
                return
            if response.get("op") == SHUTDOWN_OP and response.get("ok"):
                self.stop_async()
                return
            if (
                response.get("op") == HELLO_OP
                and response.get("ok")
                and response.get("format") == FORMAT_BINARY
            ):
                await self._serve_binary(reader, writer)
                return

    # -- binary frames ---------------------------------------------------------
    async def _read_frame(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        try:
            header = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF at a frame boundary
            raise FrameError("connection closed mid-frame-header") from error
        length = decode_header(header)
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise FrameError("connection closed mid-frame") from error

    async def _send_frame(
        self,
        writer: asyncio.StreamWriter,
        response: Any,
        bytes_in: int,
    ) -> bool:
        try:
            frame = encode_frame(response)
        except FrameError as error:  # pragma: no cover - responses are JSON-safe
            frame = encode_frame(error_response("?", error))
        # Same ordering as _send_json: count before the write.
        self.transport.record_request(FORMAT_BINARY, bytes_in, len(frame))
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _serve_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.transport.record_connection(FORMAT_BINARY)
        while True:
            try:
                payload = await self._read_frame(reader)
            except FrameError as error:
                # A corrupted header is unsyncable: answer once, close.
                await self._send_frame(writer, error_response("?", error), 0)
                return
            except (ConnectionError, OSError):
                return
            if payload is None:
                return
            bytes_in = HEADER_SIZE + len(payload)
            try:
                data = decode_payload(payload)
            except FrameError as error:
                # Well-framed but malformed payload: still in sync.
                if not await self._send_frame(writer, error_response("?", error), bytes_in):
                    return
                continue
            op = data.get("op") if isinstance(data, dict) else None
            request_id = data.get("id") if isinstance(data, dict) else None
            if isinstance(data, dict) and op is None and "kind" in data:
                op = "solve"
            if self._stop_requested:
                if not await self._send_frame(writer, _refusal(op, request_id), bytes_in):
                    return
                continue
            if op in (SUBSCRIBE_OP, SWEEP_OP) and isinstance(data, dict):
                if not await self._serve_subscription(
                    writer, FORMAT_BINARY, data, data.get("id"), bytes_in
                ):
                    return
                continue
            if not self._begin():
                if not await self._send_frame(writer, _refusal(op, request_id), bytes_in):
                    return
                continue
            try:
                response = await self._answer(data)
                sent = await self._send_frame(writer, response, bytes_in)
            finally:
                self._end()
            if not sent:
                return
            if response.get("op") == SHUTDOWN_OP and response.get("ok"):
                self.stop_async()
                return

    # -- subscriptions ---------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        fmt: str,
        response: dict[str, Any],
        bytes_in: int,
    ) -> bool:
        if fmt == FORMAT_BINARY:
            return await self._send_frame(writer, response, bytes_in)
        return await self._send_json(writer, response, bytes_in)

    async def _send_batch(
        self, writer: asyncio.StreamWriter, fmt: str, records: list[dict[str, Any]]
    ) -> bool:
        """Write streamed records with one ``write`` + ``drain()``."""
        if fmt == FORMAT_BINARY:
            encoded = b"".join(encode_frame(record) for record in records)
        else:
            encoded = "".join(
                encode_response(record) + "\n" for record in records
            ).encode("utf-8")
        # Same ordering as _send_json: count before the write.
        self.transport.record_stream(fmt, len(encoded))
        try:
            writer.write(encoded)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _serve_subscription(
        self,
        writer: asyncio.StreamWriter,
        fmt: str,
        data: dict[str, Any],
        request_id: Any,
        bytes_in: int,
    ) -> bool:
        """Serve one subscribe/sweep request; False when the connection died."""
        op = data.get("op") if data.get("op") in (SUBSCRIBE_OP, SWEEP_OP) else SUBSCRIBE_OP
        if not self._begin():
            return await self._send(writer, fmt, _refusal(op, request_id), bytes_in)
        try:
            try:
                job, ack = await self._loop.run_in_executor(
                    self._executor, self.subscribe_open, data, request_id
                )
            except Exception as error:  # noqa: BLE001 - refuse, keep the connection
                return await self._send(
                    writer, fmt, error_response(op, error, request_id), bytes_in
                )
            if not await self._send(writer, fmt, ack, bytes_in):
                return False  # client vanished before the ack: nothing started
            bridge = _SubscriptionBridge(self._loop, self.subscription_queue_max)
            sub = _Subscription(bridge, op, request_id)
            with self._subs_lock:
                self._subs.add(sub)
                self._sub_counts["opened"] += 1
            sub.thread = threading.Thread(
                target=self._pump_wrapper,
                args=(job, sub),
                name="repro-subscribe",
                daemon=True,
            )
            sub.thread.start()
        finally:
            # The busy window covers validation, planning and the ack;
            # the stream itself is tracked through ``self._subs``.
            self._end()
        alive = True
        try:
            done = False
            while not done:
                records = await bridge.get_batch()
                if records[-1] is _DONE:
                    done = True
                    records.pop()
                if alive and records and not await self._send_batch(writer, fmt, records):
                    alive = False
                    bridge.cancel()
                    with self._subs_lock:
                        self._sub_counts["cancelled"] += 1
                # Keep consuming until the sentinel either way, so the
                # producer thread can never deadlock on a full buffer.
        finally:
            if not bridge.cancelled and not sub.done.is_set():
                # The consumer task is going away mid-stream (connection
                # cancelled during a stop): flip the bridge so the
                # producer drains without blocking.
                bridge.cancel()
        return alive

    def _pump_wrapper(self, job: Any, sub: _Subscription) -> None:
        try:
            self.subscribe_pump(job, sub.bridge)
        except BaseException as error:  # noqa: BLE001 - terminal error record
            sub.bridge.put(error_response(sub.op, error, sub.request_id))
        finally:
            sub.bridge.finish()
            sub.done.set()
            with self._subs_lock:
                self._subs.discard(sub)
                self._sub_counts["completed"] += 1

    def subscription_stats(self) -> dict[str, int]:
        """JSON-safe counters for the metrics document and the tests."""
        with self._subs_lock:
            stats = dict(self._sub_counts)
            stats["active"] = len(self._subs)
        stats["queue_max"] = self.subscription_queue_max
        return stats


class AsyncReproServer(AsyncLineServer):
    """The ``repro serve`` solver daemon: one event loop, one shared service.

    Answers every JSON-Lines verb of :mod:`repro.service.protocol` (a
    frozen golden transcript pins the bytes), also inside the negotiated
    binary frames, and streams the ``subscribe`` and ``sweep`` verbs.

    A solve is answered on one of three paths, counted per daemon under
    ``solve_paths`` in the ``metrics`` document:

    * ``hot`` -- in the loop, from the hot response cache: the last
      :attr:`HOT_CACHE_CAP` unique requests, keyed on the request's
      shape, so nothing is decoded or hashed;
    * ``lru`` -- in the loop, from the service runner's LRU: the spec is
      decoded and hashed once and the LRU asked without waiting
      (:meth:`SolverService.resident`);
    * ``pool`` -- on the request thread pool, through
      :func:`~repro.service.protocol.handle_request`, with the spec the
      loop decoded and its hash handed along.  ``busy`` counts the pool
      answers whose LRU probe found the runner lock held.

    All three send the same bytes for the same result (``served_by:
    "cache"`` for both loop paths); only latency differs.  The loop
    paths never queue for a solve slot, and a draining service always
    goes to the pool, which refuses.

    Args:
        service: the shared :class:`SolverService` (built from
            ``service_kwargs`` when omitted).
        host / port: bind address (``port=0`` picks an ephemeral one;
            :attr:`address` is valid immediately).
        executor_workers: request thread-pool size.
        subscription_queue_max: per-subscription record buffer bound.
        service_kwargs: forwarded to :class:`SolverService` when no
            service instance is given.
    """

    #: Hot-cache capacity: results of the most recent unique solve requests.
    HOT_CACHE_CAP = 256

    def __init__(
        self,
        service: Optional[SolverService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: Optional[int] = None,
        subscription_queue_max: Optional[int] = None,
        connection_sndbuf: Optional[int] = None,
        **service_kwargs: Any,
    ) -> None:
        self.service = service if service is not None else SolverService(**service_kwargs)
        # request shape -> (result Fragment, backend): loop-confined
        # (answer_fast/after_answer both run on the loop), so no lock.
        # Both transports splice the fragment's text.
        self._hot: "collections.OrderedDict[Any, tuple[Fragment, str]]" = (
            collections.OrderedDict()
        )
        # Where each solve was answered; loop-confined like the hot cache.
        self._solve_paths = {"hot": 0, "lru": 0, "pool": 0, "busy": 0}
        super().__init__(
            host=host,
            port=port,
            executor_workers=executor_workers,
            subscription_queue_max=subscription_queue_max,
            connection_sndbuf=connection_sndbuf,
        )

    # -- request path ----------------------------------------------------------
    def answer_request(self, data: Any, handoff: Any = None) -> dict[str, Any]:
        return self._enrich(handle_request(self.service, data, handoff))

    def _enrich(self, response: dict[str, Any]) -> dict[str, Any]:
        """Fold transport/kernel/subscription stats into a metrics response."""
        if response.get("op") == "metrics" and response.get("ok"):
            metrics = response.get("metrics")
            if isinstance(metrics, dict):
                from ..simulation.kernel import kernel_cache_stats

                metrics["transport"] = self.transport.snapshot()
                metrics["kernel_cache"] = kernel_cache_stats()
                metrics["subscriptions"] = self.subscription_stats()
                metrics["solve_paths"] = dict(self._solve_paths)
        return response

    def answer_fast(self, data: Any) -> Optional[dict[str, Any]]:
        """Answer a solve in the loop from the hot cache or the runner LRU.

        Both skip the thread hop and are ``served_by: "cache"`` with the
        bytes the pool path would send for the same LRU hit, so they
        change latency, not semantics.  The hot cache is asked first:
        it answers from the request's shape without decoding or hashing
        it, and splices the result's pre-encoded text.  On a hot miss the
        spec is decoded and hashed once and the service asked for a
        resident result without waiting; a hit is promoted into the hot
        cache.  Everything else falls through (None) to the pool: an LRU
        miss or a busy runner with the decoded spec and its hash in
        :attr:`_handoff`, a spec that fails to decode without them (the
        pool decodes it again and answers the error), and any solve
        while stopping or draining (the pool refuses it).
        """
        key = hot_solve_key(data)
        if key is None:
            return None
        if self._stop_requested or self.service.draining:
            self._solve_paths["pool"] += 1
            return None
        entry = self._hot.get(key)
        if entry is None:
            return self._answer_resident(data, key)
        self._solve_paths["hot"] += 1
        started = time.perf_counter()
        self._hot.move_to_end(key)
        result, effective = entry
        latency = time.perf_counter() - started
        self.service.metrics.record(effective, "cache", latency)
        return solve_response(result, "cache", latency, data.get("id"))

    def _answer_resident(self, data: Any, hot_key: Any) -> Optional[dict[str, Any]]:
        """The LRU tier of :meth:`answer_fast`, for a hot-cache miss."""
        _, request, request_id = normalize_request(data)
        backend = request.get("backend")
        try:
            spec = spec_from_dict(request["spec"])
            spec_hash = spec.canonical_hash()
        except Exception:  # noqa: BLE001 - the pool path answers the error
            self._solve_paths["pool"] += 1
            return None
        try:
            served = self.service.resident(spec_hash, backend)
        except RunnerBusy:
            self._solve_paths["busy"] += 1
            served = None
        if served is None:
            self._solve_paths["pool"] += 1
            self._handoff = (spec, spec_hash)
            return None
        self._solve_paths["lru"] += 1
        result = result_fragment(served.result)
        effective = backend if backend is not None else self.service.backend
        self._hot_put(hot_key, result, effective)
        return solve_response(result, served.source, served.latency, request_id)

    def after_answer(self, data: Any, response: dict[str, Any]) -> None:
        if not (response.get("ok") and response.get("op") == "solve"):
            return
        key = hot_solve_key(data)
        if key is None:
            return
        result = response.get("result")
        if type(result) is not Fragment:
            return
        effective = (
            data.get("backend") if isinstance(data, dict) else None
        ) or self.service.backend
        self._hot_put(key, result, effective)

    def _hot_put(self, key: Any, result: Fragment, effective: str) -> None:
        self._hot[key] = (result, effective)
        self._hot.move_to_end(key)
        while len(self._hot) > self.HOT_CACHE_CAP:
            self._hot.popitem(last=False)

    # -- the subscribe + sweep verbs -------------------------------------------
    def subscribe_open(self, data: dict[str, Any], request_id: Any) -> tuple[Any, dict]:
        from ..api.backends import create_backend

        op = data.get("op")
        if op == SWEEP_OP:
            specs, backend, mode = parse_sweep(data)
        else:
            specs, backend = parse_subscribe(data)
            mode = None
        effective = backend if backend is not None else self.service.backend
        if self.service.draining:
            raise ServiceUnavailableError("service is draining, request refused")
        backend_obj = create_backend(effective)
        runner = self.service.runner
        plan = runner.plan(specs, backend=effective, backend_obj=backend_obj)
        if mode is None:
            ack = subscribe_ack(request_id, plan.total, plan.unique, effective, fanout=1)
        else:
            # A single daemon is its own one-partition fleet: the whole
            # deduplicated suite runs as one local batch plan.
            ack = sweep_ack(request_id, plan.total, plan.unique, effective, mode, fanout=1)
        return (runner, plan, backend_obj, effective, request_id, mode), ack

    def subscribe_pump(self, job: Any, bridge: _SubscriptionBridge) -> None:
        """Drive one planned sweep, streaming completions through the bridge.

        Runs on a dedicated producer thread.  The execution stream is
        **always drained fully** -- a cancelled bridge only discards the
        records, so the LRU and the store still receive every fresh
        result (the abrupt-disconnect invariant).  Only a server stop
        aborts the stream early (closing the generator, which flushes).

        ``mode`` distinguishes the three reply shapes: None (subscribe:
        per-spec records + subscribe summary), ``stream`` (same records,
        sweep summary with tier counts), ``fold`` (no per-spec records;
        one ``partial`` aggregate record, then a sweep summary carrying
        the ``fold_digest``).
        """
        from ..experiments.manifest import blob_hash, digest_blob_hashes, digest_blobs

        runner, plan, backend_obj, effective, request_id, mode = job
        started = time.perf_counter()
        seq = 0
        errors = 0
        sources: dict[str, int] = {}
        blobs: list[str] = []
        aborted = False
        fold = None
        blob_hashes: list[str] = []
        failures: list[dict[str, Any]] = []
        if mode == "fold":
            from ..analysis.streaming import EnvelopeAggregate

            fold = EnvelopeAggregate()
        abort_op = SWEEP_OP if mode is not None else SUBSCRIBE_OP
        stream = runner.execute_iter(plan, backend_obj=backend_obj)
        try:
            for completion in stream:
                if self._stop_requested:
                    aborted = True
                    bridge.put(
                        error_response(
                            abort_op,
                            ServiceUnavailableError(
                                "server is shutting down, subscription aborted"
                            ),
                            request_id,
                        )
                    )
                    break
                seq += 1
                sources[completion.source] = sources.get(completion.source, 0) + 1
                # One encoding per result -- the one the runner filed a
                # fresh result with, else made here: the record (or the
                # fold) and the fingerprint blob are both taken from it.
                encoded = None
                if completion.result is not None:
                    self.service.metrics.record(
                        effective, completion.source, completion.latency
                    )
                    encoded = completion.encoded or EncodedEnvelope(completion.result)
                else:
                    errors += 1
                    self.service.metrics.record_error(effective, completion.latency)
                if fold is not None:
                    # Fold mode never ships per-spec records: results
                    # collapse into the aggregate plus one blob hash each.
                    if encoded is not None:
                        fold.push(encoded.envelope)
                        blob_hashes.append(blob_hash(encoded.blob))
                    else:
                        failures.append(
                            {
                                "spec_hash": completion.key[1],
                                "error": completion.failure.message,
                                "error_type": completion.failure.error_type,
                            }
                        )
                    continue
                record = completion_record(completion, request_id, seq - 1, encoded)
                if encoded is not None:
                    blobs.append(encoded.blob)
                bridge.put(record)
        finally:
            stream.close()
        if aborted:
            return
        wall_time_ms = (time.perf_counter() - started) * 1e3
        if mode is None:
            bridge.put(
                subscribe_summary(
                    request_id,
                    records=seq,
                    errors=errors,
                    total=plan.total,
                    unique=plan.unique,
                    fingerprint_digest=digest_blobs(blobs),
                    sources=sources,
                    wall_time_ms=wall_time_ms,
                )
            )
        elif mode == "stream":
            bridge.put(
                sweep_summary(
                    request_id,
                    records=seq,
                    errors=errors,
                    total=plan.total,
                    unique=plan.unique,
                    mode=mode,
                    tiers=sources,
                    wall_time_ms=wall_time_ms,
                    fingerprint_digest=digest_blobs(blobs),
                )
            )
        else:
            bridge.put(
                sweep_partial(
                    request_id,
                    fold=fold.to_wire(),
                    blob_hashes=blob_hashes,
                    sources=sources,
                    records=seq,
                    errors=errors,
                    failures=failures,
                )
            )
            bridge.put(
                sweep_summary(
                    request_id,
                    records=seq,
                    errors=errors,
                    total=plan.total,
                    unique=plan.unique,
                    mode=mode,
                    tiers=sources,
                    wall_time_ms=wall_time_ms,
                    fold_digest=digest_blob_hashes(blob_hashes),
                )
            )

    # -- lifecycle -------------------------------------------------------------
    def _drain(self, timeout: Optional[float]) -> None:
        self.service.drain(timeout=timeout)
