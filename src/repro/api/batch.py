"""Batched solving: the facade's throughput path.

A :class:`BatchRunner` turns an iterable of specs into
:class:`~repro.api.result.SolveResult` envelopes.  Since the
planner/executor split it is a thin facade over :mod:`repro.exec`:

* **planning** -- :meth:`BatchRunner.plan` asks a
  :class:`~repro.exec.plan.Planner` to dedupe the input and tier it:
  LRU hits, persistent-store hits, the kernel-batchable group, the
  pool-eligible group and the serial leftovers, captured as a frozen
  :class:`~repro.exec.plan.ExecutionPlan`;
* **execution** -- an :class:`~repro.exec.executors.Executor` strategy
  consumes the plan and emits
  :class:`~repro.exec.plan.Completion` objects in completion order.
  :meth:`BatchRunner.run_iter` exposes that stream directly (per-result
  latency included); :meth:`BatchRunner.run` collects it, counts the
  sources into :class:`BatchStats` and reorders by the plan's key
  sequence -- the exact pre-split return contract.

The throughput levers are unchanged: the LRU keyed by ``(backend,
canonical spec hash)``, the optional persistent
:class:`~repro.api.store.ResultStore` tier below it, the vectorized
kernel for batchable groups, multiprocessing fan-out for the rest, and
hash-derived deterministic seeding, so a batch produces identical result
fingerprints whether it runs serially, pooled, threaded or split across
machines.  Per-spec failures no longer abort a batch: everything that
solves is retained (and flushed to the store) and the failures surface
together as a :class:`~repro.errors.BatchExecutionError` naming each
failing spec hash.

The runner is **thread-safe**: LRU lookups and store-hit promotions run
under an internal lock, so one shared runner can serve many request
threads (the :mod:`repro.service` tier builds on exactly this).  The
lock is never held across a store read or a solve, and
:meth:`BatchRunner.cache_peek` looks a key up without waiting for it at
all, so an event loop can ask the LRU and fall through when it is busy.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..errors import BatchExecutionError, InvalidParameterError
from ..faults.montecarlo import MonteCarloBackend
from ..exec import (
    Completion,
    ExecutionPlan,
    Executor,
    Planner,
    PoolExecutor,
    SerialExecutor,
)
from .backends import _REGISTRY as _BACKEND_REGISTRY
from .backends import AnalyticBackend, AutoBackend, SimulationBackend, create_backend
from .result import EncodedEnvelope, SolveResult
from .spec import ProblemSpec
from .store import ResultStore
from .vectorized import VectorizedBackend

__all__ = ["BatchStats", "BatchRunner", "RunnerBusy", "solve_batch"]

#: The import-time backend registrations.  A worker process re-imports the
#: module and sees exactly these; any runtime registration or replacement
#: would be invisible there, so such backends must solve in-process.
_BUILTIN_FACTORIES = {
    AnalyticBackend.name: AnalyticBackend,
    SimulationBackend.name: SimulationBackend,
    AutoBackend.name: AutoBackend,
    VectorizedBackend.name: VectorizedBackend,
    MonteCarloBackend.name: MonteCarloBackend,
}


def _pool_safe(backend: str) -> bool:
    """True when ``backend`` resolves identically in a fresh worker."""
    return _BACKEND_REGISTRY.get(backend) is _BUILTIN_FACTORIES.get(backend)


class RunnerBusy(Exception):
    """:meth:`BatchRunner.cache_peek` found the runner lock held elsewhere."""


@dataclass(frozen=True, slots=True)
class BatchStats:
    """Bookkeeping for one :meth:`BatchRunner.run` call."""

    total: int
    unique: int
    cache_hits: int
    solved_in_pool: int
    processes: int
    chunksize: int
    wall_time: float
    #: Misses solved through a batch-capable backend's ``solve_specs``
    #: (the vectorized kernel path) instead of per-spec calls.
    solved_in_batch: int = 0
    #: Unique keys answered by the persistent result store tier.
    solved_from_store: int = 0

    @property
    def specs_per_second(self) -> float:
        """End-to-end throughput of the batch (including cache hits)."""
        if self.wall_time <= 0.0:
            return float("inf")
        return self.total / self.wall_time

    @property
    def solved_fresh(self) -> int:
        """Unique keys actually solved in this run (no cache, no store)."""
        return self.unique - self.cache_hits - self.solved_from_store

    @property
    def hit_rate(self) -> float:
        """Fraction of unique keys answered without solving (LRU + store)."""
        if self.unique <= 0:
            return 0.0
        return (self.cache_hits + self.solved_from_store) / self.unique

    def describe(self) -> str:
        """One-line human readable summary."""
        modes = []
        if self.solved_in_batch:
            modes.append(f"batched ({self.solved_in_batch})")
        if self.solved_in_pool or not self.solved_in_batch:
            modes.append(f"{self.processes} process(es), chunksize {self.chunksize}")
        return (
            f"{self.total} specs ({self.unique} unique, {self.cache_hits} cache hits, "
            f"{self.solved_from_store} store hits, hit rate {self.hit_rate:.0%}) "
            f"in {self.wall_time:.3f}s = {self.specs_per_second:.1f} specs/s "
            f"[{'; '.join(modes)}]"
        )


class BatchRunner:
    """Solve iterables of specs with caching and pluggable execution.

    Args:
        backend: backend name every spec is solved with (``"auto"`` by
            default; any registered name works).
        processes: worker-pool size; ``None`` or ``1`` solves serially in
            this process.
        chunksize: specs per pool task; defaults to an even split across
            ``4 * processes`` waves (bounds scheduling overhead without
            starving the pool on skewed workloads).
        cache_size: maximum number of results kept in the LRU cache
            (``0`` disables caching).
        store: persistent result tier below the LRU -- a
            :class:`~repro.api.store.ResultStore`, or a directory path to
            open one at.  Misses are looked up there before solving, and
            fresh results are recorded for future runs.
        executor: execution strategy override (any
            :class:`~repro.exec.executors.Executor`); by default each
            plan picks :class:`~repro.exec.executors.PoolExecutor` when
            it has a pooled tier and
            :class:`~repro.exec.executors.SerialExecutor` otherwise.
        flush_store: flush the store after every run/stream (the
            default).  A long-lived server sets this False and flushes
            on drain, so one segment is published per session instead of
            per request.
    """

    def __init__(
        self,
        backend: str = "auto",
        processes: Optional[int] = None,
        chunksize: Optional[int] = None,
        cache_size: int = 4096,
        store: Union[ResultStore, str, Path, None] = None,
        executor: Optional[Executor] = None,
        flush_store: bool = True,
    ) -> None:
        if processes is not None and processes < 1:
            raise InvalidParameterError(f"processes must be >= 1, got {processes!r}")
        if chunksize is not None and chunksize < 1:
            raise InvalidParameterError(f"chunksize must be >= 1, got {chunksize!r}")
        if cache_size < 0:
            raise InvalidParameterError(f"cache_size must be >= 0, got {cache_size!r}")
        self.backend = backend
        self.processes = processes
        self.chunksize = chunksize
        self.cache_size = cache_size
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.executor = executor
        self.flush_store = flush_store
        self._cache: OrderedDict[tuple[str, str], SolveResult] = OrderedDict()
        # Guards the LRU only: store reads and execution run outside it,
        # so many threads can share one runner and still plan and solve
        # concurrently.
        self._lock = threading.RLock()

    # -- cache -----------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached result."""
        with self._lock:
            self._cache.clear()

    @property
    def cache_len(self) -> int:
        """Number of results currently cached.

        Read without the runner lock (``len`` of a dict is atomic), so
        a health probe never waits behind a planner.
        """
        return len(self._cache)

    def _cache_get(self, key: tuple[str, str]) -> Optional[SolveResult]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
            return result

    def cache_peek(self, key: tuple[str, str]) -> Optional[SolveResult]:
        """The LRU's result for ``key`` (moved to most recent), never waiting.

        Raises:
            RunnerBusy: another thread holds the runner lock; the caller
                answers some other way instead of blocking on it.
        """
        if not self._lock.acquire(blocking=False):
            raise RunnerBusy(key)
        try:
            return self._cache_get(key)
        finally:
            self._lock.release()

    def _cache_put(self, key: tuple[str, str], result: SolveResult) -> None:
        if self.cache_size == 0:
            return
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _record_solved(self, completion: Completion) -> Completion:
        """File one freshly solved result with the LRU and the store tier.

        The store encodes the result once as it files it, and the
        returned completion carries that encoding on; the LRU keeps the
        result alone.
        """
        key, result = completion.key, completion.result
        assert result is not None
        self._cache_put(key, result)
        if self.store is None:
            return completion
        encoded = EncodedEnvelope(result)
        self.store.put(key[0], encoded)
        return Completion(
            key, completion.source, result, latency=completion.latency, encoded=encoded
        )

    # -- planning --------------------------------------------------------------
    def plan(
        self,
        specs: Sequence[ProblemSpec],
        backend: Optional[str] = None,
        backend_obj: Optional[Any] = None,
    ) -> ExecutionPlan:
        """Plan one batch without executing it.

        Resolves the LRU and store tiers eagerly (store hits are
        promoted into the LRU, exactly as the monolithic ``run`` did)
        and tiers the remaining misses; see
        :class:`~repro.exec.plan.ExecutionPlan`.  The runner lock is
        taken per LRU lookup and once for the promotions, never across
        the store read (the store locks itself, and its published
        segments are immutable).
        """
        effective = backend if backend is not None else self.backend
        if backend_obj is None:
            backend_obj = create_backend(effective)
        planner = Planner(
            cache_get=self._cache_get if self.cache_size else None,
            store=self.store,
            processes=self.processes,
            chunksize=self.chunksize,
            pool_safe=_pool_safe,
        )
        plan = planner.plan(specs, effective, backend_obj=backend_obj)
        if plan.stored:
            with self._lock:
                for resolved in plan.stored:
                    self._cache_put(resolved.key, resolved.result)
        return plan

    # -- execution -------------------------------------------------------------
    def _executor_for(self, plan: ExecutionPlan) -> Executor:
        if self.executor is not None:
            return self.executor
        return PoolExecutor() if plan.use_pool else SerialExecutor()

    def execute_iter(
        self, plan: ExecutionPlan, backend_obj: Optional[Any] = None
    ) -> Iterator[Completion]:
        """Execute a plan, streaming completions in completion order.

        Fresh results are recorded into the LRU and the store as they
        stream past, and with a store their completions carry the
        envelope's one encoding (``Completion.encoded``); the store is
        flushed when the stream ends (also on early close), unless the
        runner was built with ``flush_store=False``.
        """
        executor = self._executor_for(plan)
        try:
            for completion in executor.execute(plan, backend_obj=backend_obj):
                if completion.result is not None and completion.source not in (
                    "cache",
                    "store",
                ):
                    completion = self._record_solved(completion)
                yield completion
        finally:
            if self.store is not None and self.flush_store:
                self.store.flush()

    def run_iter(
        self, specs: Iterable[ProblemSpec], backend: Optional[str] = None
    ) -> Iterator[Completion]:
        """Stream one :class:`~repro.exec.plan.Completion` per unique key.

        Completions arrive in **completion order** (cache and store hits
        first, then solves as they finish) with per-result latency --
        the streaming form :meth:`run` is reconstructed from.  Duplicate
        input specs share their unique key's single completion; use
        :meth:`plan` + :meth:`execute_iter` directly when the key
        sequence is needed for reassembly.
        """
        effective = backend if backend is not None else self.backend
        backend_obj = create_backend(effective)
        plan = self.plan(list(specs), backend=effective, backend_obj=backend_obj)
        return self.execute_iter(plan, backend_obj=backend_obj)

    def solve_many(
        self, specs: Iterable[ProblemSpec], backend: Optional[str] = None
    ) -> list[SolveResult]:
        """Solve every spec, in input order (see :meth:`run` for stats)."""
        return self.run(specs, backend=backend)[0]

    def run(
        self,
        specs: Iterable[ProblemSpec],
        backend: Optional[str] = None,
        on_completion: Optional[Callable[[Completion], None]] = None,
    ) -> tuple[list[SolveResult], BatchStats]:
        """Solve every spec and report batch statistics.

        Duplicate specs (equal canonical hash) are solved once.  The
        returned list matches the input order and length exactly.  This
        is literally a collect-and-reorder over the streaming pipeline:
        drain the completion stream, count each source into the stats
        partition, reassemble through the plan's key sequence.

        Args:
            specs: the problems to solve.
            backend: per-call backend override; defaults to the runner's
                configured backend.  The LRU and the store key by the
                effective backend name, so one shared runner can serve
                callers with different fidelity needs without mixing
                their results.
            on_completion: optional observer invoked with every
                :class:`~repro.exec.plan.Completion` as it happens --
                streaming progress without giving up the ordered return.

        Raises:
            BatchExecutionError: when any spec failed.  Raised only
                after the whole batch ran: every solved result is
                already in the LRU/store (and on the exception's
                ``completed`` mapping), so a retry re-attempts only the
                failures.
        """
        effective = backend if backend is not None else self.backend
        spec_list: Sequence[ProblemSpec] = list(specs)
        start = time.perf_counter()
        backend_obj = create_backend(effective)
        plan = self.plan(spec_list, backend=effective, backend_obj=backend_obj)

        resolved: dict[tuple[str, str], SolveResult] = {}
        failures = []
        counts = {"cache": 0, "store": 0, "batch": 0, "pool": 0, "serial": 0}
        for completion in self.execute_iter(plan, backend_obj=backend_obj):
            if completion.result is not None:
                resolved[completion.key] = completion.result
                counts[completion.source] += 1
            else:
                failures.append(completion.failure)
            if on_completion is not None:
                on_completion(completion)

        wall_time = time.perf_counter() - start
        stats = BatchStats(
            total=plan.total,
            unique=plan.unique,
            cache_hits=counts["cache"],
            solved_in_pool=counts["pool"],
            processes=plan.processes,
            chunksize=plan.chunksize,
            wall_time=wall_time,
            solved_in_batch=counts["batch"],
            solved_from_store=counts["store"],
        )
        if failures:
            if plan.unique == 1 and failures[0].exception is not None:
                # A batch of one keeps the historical single-spec
                # contract: the backend's own exception, not a wrapper
                # (what `solve()` would have raised; the serving tier
                # relies on this for clean per-request errors).
                raise failures[0].exception
            error = BatchExecutionError(failures, completed=resolved)
            error.stats = stats
            raise error
        return [resolved[key] for key in plan.keys], stats


def solve_batch(
    specs: Iterable[ProblemSpec],
    backend: str = "auto",
    processes: Optional[int] = None,
    chunksize: Optional[int] = None,
    cache_size: int = 4096,
    store: Union[ResultStore, str, Path, None] = None,
) -> list[SolveResult]:
    """One-shot convenience wrapper around a throwaway :class:`BatchRunner`.

    Passes every runner capability through -- ``store`` (persistent
    tier), ``chunksize`` (pool task sizing) and ``cache_size`` (LRU
    bound) used to be silently dropped here.
    """
    runner = BatchRunner(
        backend=backend,
        processes=processes,
        chunksize=chunksize,
        cache_size=cache_size,
        store=store,
    )
    return runner.solve_many(specs)
