"""The long-lived solver service: one shared runner, coalesced requests.

A :class:`SolverService` is the in-process serving tier between any
number of concurrent request threads and one thread-safe
:class:`~repro.api.batch.BatchRunner` (locked LRU + persistent store
tier).  On top of the runner's caching it adds what a cache cannot do:

* **request coalescing** -- concurrent identical requests (same
  ``(backend, spec hash)``) trigger exactly one solve; the first
  arrival leads, every overlapping duplicate waits on the leader's
  completion event and shares its result.  N clients asking for the
  same cold spec cost one backend call, not N.
* **admission control** -- at most ``max_inflight`` leader solves run
  concurrently; up to ``queue_limit`` more may wait for a slot, and
  anything beyond that is refused immediately with
  :class:`~repro.errors.ServiceUnavailableError` instead of piling up.
* **resident lookups** -- :meth:`SolverService.resident` answers a key
  the runner's LRU holds without waiting on anything, so the daemon's
  event loop can serve it in place (a busy runner means "ask
  :meth:`SolverService.request` instead").
* **metrics** -- per-backend request counts, hit rates, coalescing and
  latency percentiles (:class:`~repro.service.metrics.ServiceMetrics`).
* **graceful drain** -- :meth:`drain` stops admitting, waits for every
  in-flight solve, and flushes the persistent store once (the service
  runner buffers store writes instead of publishing one segment per
  request).

The service is transport-agnostic: the TCP JSON-Lines daemon
(:mod:`repro.service.aio`) and the CLI's ``solve --stdin-jsonl``
both speak to exactly this object.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, NamedTuple, Optional, Union

from ..api.batch import BatchRunner
from ..api.spec import ProblemSpec
from ..api.result import EncodedEnvelope, SolveResult
from ..api.store import ResultStore
from ..errors import InvalidParameterError, ServiceUnavailableError
from .metrics import ServiceMetrics

__all__ = ["ServedResult", "SolverService"]


class ServedResult(NamedTuple):
    """One answered request: the envelope plus how it was served."""

    result: SolveResult
    #: ``"solve"`` (fresh), ``"cache"`` (LRU), ``"store"`` (persistent
    #: tier) or ``"coalesced"`` (shared an overlapping leader's solve).
    source: str
    #: Seconds from request arrival to answer.
    latency: float
    #: The envelope's one encoding, when the run filed a fresh result
    #: with the store (None for cache and store answers).
    encoded: Optional[EncodedEnvelope] = None


class _InFlight:
    """Rendezvous point between one leader solve and its followers."""

    __slots__ = ("event", "result", "encoded", "source", "error", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[SolveResult] = None
        self.encoded: Optional[EncodedEnvelope] = None
        self.source: str = "solve"
        self.error: Optional[BaseException] = None
        #: Followers currently coalesced onto this solve (under the
        #: service lock); lets tests and introspection observe joins
        #: *before* the leader finishes.
        self.waiters = 0


class SolverService:
    """Thread-safe serving facade over one shared :class:`BatchRunner`.

    Args:
        runner: the runner to serve from; built from ``backend`` /
            ``store`` when omitted.  A service-built runner buffers
            store writes (``flush_store=False``) and flushes on drain.
        backend: default backend for requests that don't name one.
        store: persistent result store (instance or directory path) for
            a service-built runner.
        max_inflight: maximum concurrent leader solves.
        queue_limit: maximum leaders allowed to *wait* for a solve slot
            on top of ``max_inflight``; beyond it requests are refused.
        admission_timeout: seconds a queued leader waits for a slot
            before being refused.
        metrics_window: per-backend latency window for p50/p99.
    """

    def __init__(
        self,
        runner: Optional[BatchRunner] = None,
        backend: str = "auto",
        store: Union[ResultStore, str, Path, None] = None,
        max_inflight: int = 8,
        queue_limit: int = 128,
        admission_timeout: float = 60.0,
        metrics_window: int = 2048,
    ) -> None:
        if max_inflight < 1:
            raise InvalidParameterError(f"max_inflight must be >= 1, got {max_inflight!r}")
        if queue_limit < 0:
            raise InvalidParameterError(f"queue_limit must be >= 0, got {queue_limit!r}")
        if admission_timeout <= 0:
            raise InvalidParameterError(
                f"admission_timeout must be > 0, got {admission_timeout!r}"
            )
        if runner is None:
            runner = BatchRunner(backend=backend, store=store, flush_store=False)
        self.runner = runner
        self.backend = backend
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.admission_timeout = admission_timeout
        self.metrics = ServiceMetrics(window=metrics_window)
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, str], _InFlight] = {}
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._started = time.time()

    # -- lifecycle -------------------------------------------------------------
    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        """Number of leader solves currently queued or running."""
        with self._lock:
            return len(self._inflight)

    def waiting_for(self, spec: ProblemSpec, backend: Optional[str] = None) -> int:
        """Followers currently coalesced onto a spec's in-flight solve."""
        effective = backend if backend is not None else self.backend
        with self._lock:
            entry = self._inflight.get((effective, spec.canonical_hash()))
            return entry.waiters if entry is not None else 0

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight solves, flush the store.

        Returns True when everything finished within ``timeout``
        (False leaves the service draining with work still in flight;
        the store is flushed either way).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        finished = True
        with self._idle:
            self._draining = True
            while self._inflight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    finished = False
                    break
                if not self._idle.wait(timeout=remaining):
                    finished = False
                    break
        if self.runner.store is not None:
            self.runner.store.flush()
        return finished

    # -- serving ---------------------------------------------------------------
    def solve(self, spec: ProblemSpec, backend: Optional[str] = None) -> SolveResult:
        """Answer one request (blocking); see :meth:`request` for the meta."""
        return self.request(spec, backend=backend).result

    def resident(
        self, spec_hash: str, backend: Optional[str] = None
    ) -> Optional[ServedResult]:
        """Answer from the runner's LRU without ever waiting, or None.

        The in-loop tier of the daemon: a hit is moved to most recent
        and recorded as a ``cache`` answer, exactly as :meth:`request`
        would have served it.  None means "not resident" (or draining):
        the caller hands the request to :meth:`request`.  Never queues
        for a solve slot.

        Raises:
            ~repro.api.batch.RunnerBusy: another thread holds the runner
                lock.
        """
        if self._draining:
            return None
        effective = backend if backend is not None else self.backend
        started = time.perf_counter()
        result = self.runner.cache_peek((effective, spec_hash))
        if result is None:
            return None
        latency = time.perf_counter() - started
        self.metrics.record(effective, "cache", latency)
        return ServedResult(result, "cache", latency)

    def request(
        self,
        spec: ProblemSpec,
        backend: Optional[str] = None,
        spec_hash: Optional[str] = None,
    ) -> ServedResult:
        """Answer one request, coalescing with any identical in-flight one.

        ``spec_hash`` is the spec's canonical hash when the caller has
        already computed it.

        Raises:
            ServiceUnavailableError: refused by admission control
                (draining, queue full, or slot wait timed out).
            ReproError: whatever the backend raised; an error is shared
                with every coalesced follower of the same solve.
        """
        effective = backend if backend is not None else self.backend
        started = time.perf_counter()
        key = (effective, spec_hash if spec_hash is not None else spec.canonical_hash())

        with self._lock:
            if self._draining:
                self.metrics.record_rejected(effective)
                raise ServiceUnavailableError("service is draining, request refused")
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters += 1
                leader = False
            else:
                if len(self._inflight) >= self.max_inflight + self.queue_limit:
                    self.metrics.record_rejected(effective)
                    raise ServiceUnavailableError(
                        f"service at capacity ({self.max_inflight} in flight "
                        f"+ {self.queue_limit} queued), request refused"
                    )
                entry = _InFlight()
                self._inflight[key] = entry
                leader = True

        if not leader:
            entry.event.wait()
            latency = time.perf_counter() - started
            if entry.error is not None:
                # Mirror the leader's accounting: an admission refusal is
                # a rejection, not a backend error, for followers too.
                if isinstance(entry.error, ServiceUnavailableError):
                    self.metrics.record_rejected(effective)
                else:
                    self.metrics.record_error(effective, latency)
                raise entry.error
            self.metrics.record(effective, "coalesced", latency)
            return ServedResult(entry.result, "coalesced", latency, entry.encoded)

        try:
            if not self._slots.acquire(timeout=self.admission_timeout):
                self.metrics.record_rejected(effective)
                raise ServiceUnavailableError(
                    f"no solve slot freed within {self.admission_timeout}s, "
                    "request refused"
                )
            completions: list[Any] = []
            try:
                results, stats = self.runner.run(
                    [spec], backend=effective, on_completion=completions.append
                )
            finally:
                self._slots.release()
            entry.result = results[0]
            entry.encoded = completions[0].encoded
            if stats.cache_hits:
                entry.source = "cache"
            elif stats.solved_from_store:
                entry.source = "store"
            else:
                entry.source = "solve"
        except BaseException as error:
            entry.error = error
            latency = time.perf_counter() - started
            if not isinstance(error, ServiceUnavailableError):
                self.metrics.record_error(effective, latency)
            raise
        finally:
            with self._idle:
                self._inflight.pop(key, None)
                if not self._inflight:
                    self._idle.notify_all()
            entry.event.set()

        latency = time.perf_counter() - started
        self.metrics.record(effective, entry.source, latency)
        return ServedResult(entry.result, entry.source, latency, entry.encoded)

    # -- introspection ---------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """JSON-safe liveness document (the daemon's ``health`` verb)."""
        with self._lock:
            inflight = len(self._inflight)
            status = "draining" if self._draining else "serving"
        return {
            "status": status,
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "queue_limit": self.queue_limit,
            "backend": self.backend,
            "store": str(self.runner.store.path) if self.runner.store is not None else None,
            "cache_len": self.runner.cache_len,
            "uptime_s": round(time.time() - self._started, 3),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """JSON-safe metrics document (the daemon's ``metrics`` verb)."""
        return self.metrics.snapshot()
