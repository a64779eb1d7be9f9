"""Executor strategies: consume an :class:`~repro.exec.plan.ExecutionPlan`.

An executor turns a plan into a stream of
:class:`~repro.exec.plan.Completion` objects, emitted **in completion
order** -- the caller decides whether to stream them onward
(``BatchRunner.run_iter``, service progress) or collect and reorder
(``BatchRunner.run``).  All three strategies emit the planner-resolved
tiers (``cache`` / ``store``) first and immediately, then work through
the pending tiers:

* :class:`SerialExecutor`   -- everything in this process, one kernel
  call for the batch tier, one ``solve`` per remaining spec;
* :class:`PoolExecutor`     -- dispatches the pooled tier onto a
  ``multiprocessing`` pool *first* (unordered, streaming back as workers
  finish), runs the kernel batch and serial leftovers concurrently with
  it in this process;
* :class:`ThreadedExecutor` -- fans every pending spec (and the kernel
  batch as one task) over an in-process thread pool; genuinely useful
  when solves release the GIL or when runtime-registered backends rule
  the process pool out.

Failures never abort the stream: a spec that raises becomes a
``Completion`` carrying a :class:`~repro.exec.plan.SpecFailure` (spec
hash, error type, message) and every other spec still completes.

Like :mod:`repro.exec.plan`, runtime imports from ``repro.api`` are
deferred so this module is importable while ``repro.api`` is still
mid-import.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from .plan import Completion, ExecutionPlan, PlannedSpec, SpecFailure

if TYPE_CHECKING:  # pragma: no cover - type-only
    from ..api.result import SolveResult

__all__ = [
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "ThreadedExecutor",
]


def _solve_serialized_indexed(
    payload: tuple[int, str, dict[str, Any]]
) -> tuple[int, dict[str, Any]]:
    """Pool worker: solve one spec shipped as its wire-format dict.

    Never raises: an exception becomes an ``{"ok": False, ...}`` outcome,
    so one failing spec cannot abort the whole ``imap`` stream (the
    satellite fix for the all-or-nothing pool batch).
    """
    index, backend_name, spec_dict = payload
    try:
        from ..api.backends import solve
        from ..api.spec import spec_from_dict

        spec = spec_from_dict(spec_dict)
        result = solve(spec, backend=backend_name)
        return index, {"ok": True, "result": result.to_dict()}
    except Exception as error:  # noqa: BLE001 - shipped back, re-raised batch-side
        return index, {
            "ok": False,
            "error_type": type(error).__name__,
            "message": str(error),
        }


def _failure(planned: PlannedSpec, error: BaseException) -> SpecFailure:
    return SpecFailure(
        key=planned.key,
        spec_hash=planned.spec_hash,
        error_type=type(error).__name__,
        message=str(error),
        exception=error,
    )


def _resolved_completions(
    plan: ExecutionPlan, clock: Callable[[], float]
) -> Iterator[Completion]:
    """The planner-resolved tiers, emitted first and effectively instantly."""
    for resolved in plan.cached:
        yield Completion(key=resolved.key, source="cache", result=resolved.result, latency=clock())
    for resolved in plan.stored:
        yield Completion(key=resolved.key, source="store", result=resolved.result, latency=clock())


def _solve_group(
    plan: ExecutionPlan,
    backend_obj: Any,
    clock: Callable[[], float],
) -> Iterator[Completion]:
    """Solve the kernel-batchable tier with one array-at-a-time call."""
    if not plan.batch:
        return
    group = [planned.spec for planned in plan.batch]
    try:
        results: Sequence["SolveResult"] = backend_obj.solve_specs(group)
        if len(results) != len(group):  # pragma: no cover - backend contract breach
            raise RuntimeError(
                f"batch backend returned {len(results)} results for {len(group)} specs"
            )
    except Exception as error:  # noqa: BLE001 - every group member fails, stream survives
        for planned in plan.batch:
            yield Completion(
                key=planned.key, source="batch", failure=_failure(planned, error), latency=clock()
            )
        return
    for planned, result in zip(plan.batch, results):
        yield Completion(key=planned.key, source="batch", result=result, latency=clock())


def _solve_one(
    planned: PlannedSpec,
    backend_obj: Any,
    source: str,
    clock: Callable[[], float],
) -> Completion:
    try:
        result = backend_obj.solve(planned.spec)
    except Exception as error:  # noqa: BLE001 - captured per spec
        return Completion(
            key=planned.key, source=source, failure=_failure(planned, error), latency=clock()
        )
    return Completion(key=planned.key, source=source, result=result, latency=clock())


def _make_backend(name: str) -> Any:
    from ..api.backends import create_backend

    return create_backend(name)


class Executor:
    """Base strategy: ``execute(plan)`` yields completions as they happen."""

    def execute(
        self, plan: ExecutionPlan, backend_obj: Optional[Any] = None
    ) -> Iterator[Completion]:
        """Yield one :class:`Completion` per unique pending/resolved key."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """Everything in this process, one spec (or kernel group) at a time.

    A plan's ``pooled`` tier (normally empty without a pool) is treated
    like ``serial``, so a serial strategy can execute any plan.
    """

    def execute(
        self, plan: ExecutionPlan, backend_obj: Optional[Any] = None
    ) -> Iterator[Completion]:
        start = time.perf_counter()
        clock = lambda: time.perf_counter() - start  # noqa: E731
        if backend_obj is None:
            backend_obj = _make_backend(plan.backend)
        yield from _resolved_completions(plan, clock)
        yield from _solve_group(plan, backend_obj, clock)
        for planned in plan.pooled:
            yield _solve_one(planned, backend_obj, "pool", clock)
        for planned in plan.serial:
            yield _solve_one(planned, backend_obj, "serial", clock)


class PoolExecutor(Executor):
    """Multiprocessing fan-out for the pooled tier, kernel batch alongside.

    The pool is dispatched *before* the in-process kernel batch so the
    two run concurrently; pooled completions stream back unordered as
    workers finish (``imap_unordered``), each one independently ok or
    failed.
    """

    def execute(
        self, plan: ExecutionPlan, backend_obj: Optional[Any] = None
    ) -> Iterator[Completion]:
        start = time.perf_counter()
        clock = lambda: time.perf_counter() - start  # noqa: E731
        if backend_obj is None:
            backend_obj = _make_backend(plan.backend)
        yield from _resolved_completions(plan, clock)
        if not plan.pooled:
            yield from _solve_group(plan, backend_obj, clock)
            for planned in plan.serial:
                yield _solve_one(planned, backend_obj, "serial", clock)
            return

        import multiprocessing

        from ..api.result import SolveResult

        payloads = [
            (index, plan.backend, planned.spec.to_dict())
            for index, planned in enumerate(plan.pooled)
        ]
        pool = multiprocessing.Pool(plan.processes)
        drained = False
        try:
            pending = pool.imap_unordered(
                _solve_serialized_indexed, payloads, chunksize=plan.chunksize
            )
            yield from _solve_group(plan, backend_obj, clock)
            for planned in plan.serial:
                yield _solve_one(planned, backend_obj, "serial", clock)
            for index, outcome in pending:
                planned = plan.pooled[index]
                if outcome["ok"]:
                    yield Completion(
                        key=planned.key,
                        source="pool",
                        result=SolveResult.from_dict(outcome["result"]),
                        latency=clock(),
                    )
                else:
                    yield Completion(
                        key=planned.key,
                        source="pool",
                        failure=SpecFailure(
                            key=planned.key,
                            spec_hash=planned.spec_hash,
                            error_type=outcome["error_type"],
                            message=outcome["message"],
                        ),
                        latency=clock(),
                    )
            drained = True
        finally:
            if drained:
                pool.close()
            else:  # consumer abandoned the stream: don't wait on workers
                pool.terminate()
            pool.join()


class ThreadedExecutor(Executor):
    """In-process thread fan-out for every pending tier.

    Each pending spec is one task (the kernel batch is one task for the
    whole group); completions are yielded genuinely as tasks finish.
    Threads share the process, so runtime-registered backends work here
    -- the trade-off is the GIL for pure-python solves.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = max_workers

    def execute(
        self, plan: ExecutionPlan, backend_obj: Optional[Any] = None
    ) -> Iterator[Completion]:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        start = time.perf_counter()
        clock = lambda: time.perf_counter() - start  # noqa: E731
        if backend_obj is None:
            backend_obj = _make_backend(plan.backend)
        yield from _resolved_completions(plan, clock)

        def group_task() -> list[Completion]:
            # Each task builds its own backend: instances are cheap and
            # not guaranteed thread-safe.
            return list(_solve_group(plan, _make_backend(plan.backend), clock))

        def one_task(planned: PlannedSpec, source: str) -> list[Completion]:
            return [_solve_one(planned, _make_backend(plan.backend), source, clock)]

        with ThreadPoolExecutor(max_workers=self.max_workers) as threads:
            futures = set()
            if plan.batch:
                futures.add(threads.submit(group_task))
            for planned in plan.pooled:
                futures.add(threads.submit(one_task, planned, "pool"))
            for planned in plan.serial:
                futures.add(threads.submit(one_task, planned, "serial"))
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield from future.result()
