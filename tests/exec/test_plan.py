"""Planner/executor split: plan tiers, streaming completions, failure capture."""

from __future__ import annotations

import os

import pytest

from repro.api import BatchRunner, RendezvousProblem, SearchProblem, solve, solve_batch
from repro.api.backends import _REGISTRY, SolverBackend, register_backend
from repro.errors import BatchExecutionError, SimulationError
from repro.exec import PoolExecutor, SerialExecutor, ThreadedExecutor


def _searches(n: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.1 * i, visibility=0.3) for i in range(n)]


def _mixed_workload() -> list:
    return [
        SearchProblem(distance=1.2, visibility=0.3, bearing=0.6),
        RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6),
        SearchProblem(distance=0.9, visibility=0.25, bearing=2.1),
    ]


def _fingerprints(results):
    return [result.fingerprint() for result in results]


class TestPlanner:
    def test_tiers_partition_unique_keys(self):
        runner = BatchRunner(backend="auto")
        specs = _mixed_workload() + [_mixed_workload()[0]]  # one duplicate
        plan = runner.plan(specs)
        assert plan.total == 4 and plan.unique == 3
        # auto batches the two searches through the kernel; the
        # rendezvous spec is a serial leftover.
        assert len(plan.batch) == 2
        assert len(plan.serial) == 1
        assert not plan.cached and not plan.stored and not plan.pooled
        assert plan.pending == 3

    def test_warm_lru_plans_everything_cached(self):
        runner = BatchRunner(backend="analytic")
        specs = _mixed_workload()
        runner.solve_many(specs)
        plan = runner.plan(specs)
        assert len(plan.cached) == len(specs)
        assert plan.pending == 0

    def test_store_tier_planned_below_the_lru(self, tmp_path):
        specs = _mixed_workload()
        BatchRunner(backend="analytic", store=tmp_path).solve_many(specs)
        fresh = BatchRunner(backend="analytic", store=tmp_path)
        plan = fresh.plan(specs)
        assert len(plan.stored) == len(specs)
        assert plan.pending == 0
        # Store hits were promoted into the LRU at plan time.
        assert fresh.cache_len == len(specs)

    def test_pool_tier_only_for_pool_safe_backends(self):
        specs = [RendezvousProblem(distance=1.0 + 0.1 * i, visibility=0.3, speed=0.6) for i in range(4)]
        pooled = BatchRunner(backend="simulation", processes=2).plan(specs)
        assert pooled.use_pool and len(pooled.pooled) == 4 and not pooled.serial
        assert pooled.processes == 2

        class EchoBackend(SolverBackend):
            name = "echo-plan"
            fidelity = "bound"

            def _solve(self, spec):
                return {
                    "feasible": None,
                    "solved": None,
                    "measured_time": None,
                    "bound": 7.0,
                    "algorithm": None,
                    "details": {},
                }

        register_backend("echo-plan", EchoBackend)
        try:
            unsafe = BatchRunner(backend="echo-plan", processes=2).plan(specs)
            assert not unsafe.use_pool and len(unsafe.serial) == 4
            assert unsafe.processes == 1 and unsafe.chunksize == 1
        finally:
            _REGISTRY.pop("echo-plan", None)

    def test_describe_names_every_tier(self):
        plan = BatchRunner(backend="auto").plan(_mixed_workload())
        text = plan.describe()
        for word in ("cached", "stored", "batch", "pooled", "serial"):
            assert word in text


class TestRunIter:
    def test_streams_one_completion_per_unique_key(self):
        runner = BatchRunner(backend="analytic")
        specs = _mixed_workload() + [_mixed_workload()[0]]
        completions = list(runner.run_iter(specs))
        assert len(completions) == 3  # unique keys, duplicates share one
        assert all(completion.ok for completion in completions)
        assert all(completion.latency >= 0.0 for completion in completions)

    def test_cache_hits_stream_first(self):
        runner = BatchRunner(backend="analytic")
        specs = _mixed_workload()
        runner.solve_many(specs[:1])
        sources = [completion.source for completion in runner.run_iter(specs)]
        assert sources[0] == "cache"
        assert set(sources[1:]) <= {"batch", "serial"}

    def test_run_is_reconstructed_from_the_stream(self):
        specs = _mixed_workload()
        streamed = {
            completion.key: completion.result
            for completion in BatchRunner(backend="simulation").run_iter(specs)
        }
        collected, stats = BatchRunner(backend="simulation").run(specs)
        assert stats.unique == len(streamed)
        by_key = {
            (result.backend, result.provenance.spec_hash): result for result in collected
        }
        assert {key: result.fingerprint() for key, result in streamed.items()} == {
            key: result.fingerprint() for key, result in by_key.items()
        }

    def test_on_completion_observer_sees_every_completion(self):
        seen = []
        results, stats = BatchRunner(backend="analytic").run(
            _mixed_workload(), on_completion=seen.append
        )
        assert len(seen) == stats.unique
        assert all(completion.ok for completion in seen)

    def test_early_close_still_flushes_the_store(self, tmp_path):
        runner = BatchRunner(backend="analytic", store=tmp_path)
        stream = runner.run_iter(_mixed_workload())
        next(stream)
        stream.close()
        assert len(runner.store) >= 1


class TestExecutorStrategies:
    def test_threaded_executor_matches_serial_fingerprints(self):
        specs = _mixed_workload()
        serial = BatchRunner(backend="simulation").solve_many(specs)
        threaded = BatchRunner(
            backend="simulation", executor=ThreadedExecutor(max_workers=3)
        ).solve_many(specs)
        assert _fingerprints(serial) == _fingerprints(threaded)

    def test_forced_serial_executor_handles_a_pooled_plan(self):
        specs = [RendezvousProblem(distance=1.0 + 0.1 * i, visibility=0.3, speed=0.6) for i in range(3)]
        runner = BatchRunner(backend="simulation", processes=2, executor=SerialExecutor())
        results, stats = runner.run(specs)
        assert _fingerprints(results) == _fingerprints(
            BatchRunner(backend="simulation").solve_many(specs)
        )

    def test_pool_executor_streams_pooled_completions(self):
        specs = [RendezvousProblem(distance=1.0 + 0.1 * i, visibility=0.3, speed=0.6) for i in range(4)]
        runner = BatchRunner(backend="simulation", processes=2)
        plan = runner.plan(specs)
        assert plan.use_pool
        completions = list(PoolExecutor().execute(plan))
        assert sorted(completion.source for completion in completions) == ["pool"] * 4
        assert all(completion.ok for completion in completions)

    def test_pool_workers_create_no_shared_memory(self):
        """Pool workers compile into their own chunk caches: a pooled
        vectorized run answers like an in-process one and leaves no
        ``psm_*`` shared-memory segment behind."""

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        specs = [RendezvousProblem(distance=1.0 + 0.1 * i, visibility=0.3, speed=0.6) for i in range(4)]
        runner = BatchRunner(backend="vectorized", processes=2)
        assert runner.plan(specs).use_pool
        before = segments()
        results, stats = runner.run(specs)
        assert stats.solved_in_pool == 4
        assert segments() - before == set()
        assert _fingerprints(results) == _fingerprints(
            BatchRunner(backend="vectorized").solve_many(specs)
        )

    def test_threaded_executor_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(max_workers=0)


class TestFailureCapture:
    def _flaky(self):
        class FlakyBackend(SolverBackend):
            name = "flaky-exec"
            fidelity = "bound"

            def _solve(self, spec):
                if isinstance(spec, RendezvousProblem):
                    raise SimulationError("deliberate failure")
                return {
                    "feasible": True,
                    "solved": None,
                    "measured_time": None,
                    "bound": 1.0,
                    "algorithm": None,
                    "details": {},
                }

        return FlakyBackend

    def test_serial_failure_keeps_everything_that_solved(self, tmp_path):
        register_backend("flaky-exec", self._flaky())
        try:
            runner = BatchRunner(backend="flaky-exec", store=tmp_path)
            specs = _mixed_workload()  # 2 searches solve, 1 rendezvous fails
            with pytest.raises(BatchExecutionError) as excinfo:
                runner.run(specs)
            error = excinfo.value
            assert len(error.failures) == 1
            assert error.failures[0].spec_hash == specs[1].canonical_hash()
            assert error.failures[0].error_type == "SimulationError"
            assert len(error.completed) == 2
            # Solved specs were retained: LRU holds them and the store
            # flushed them, so a retry only re-attempts the failure.
            assert runner.cache_len == 2
            assert len(runner.store) == 2
        finally:
            _REGISTRY.pop("flaky-exec", None)

    def test_pool_worker_failure_does_not_abort_the_batch(self):
        # The infeasible rendezvous raises inside the pool worker; the
        # pool-safe simulation backend still returns everything else.
        good = [RendezvousProblem(distance=1.0 + 0.1 * i, visibility=0.3, speed=0.6) for i in range(3)]
        bad = RendezvousProblem(distance=1.4, visibility=0.3)  # identical robots
        runner = BatchRunner(backend="simulation", processes=2)
        with pytest.raises(BatchExecutionError) as excinfo:
            runner.run(good + [bad])
        error = excinfo.value
        assert [failure.spec_hash for failure in error.failures] == [bad.canonical_hash()]
        assert error.failures[0].error_type == "InfeasibleConfigurationError"
        assert len(error.completed) == 3
        assert error.stats.solved_in_pool == 3

    def test_kernel_batch_results_survive_a_failing_leftover(self):
        # Search specs solve through the kernel group; the infeasible
        # rendezvous fails serially -- the batch results are kept.
        searches = _searches(3)
        bad = RendezvousProblem(distance=1.4, visibility=0.3)
        runner = BatchRunner(backend="simulation")
        with pytest.raises(BatchExecutionError) as excinfo:
            runner.run(searches + [bad])
        assert len(excinfo.value.completed) == 3
        assert runner.cache_len == 3

    def test_message_names_the_failing_hash(self):
        register_backend("flaky-exec", self._flaky())
        try:
            with pytest.raises(BatchExecutionError) as excinfo:
                BatchRunner(backend="flaky-exec").run(_mixed_workload())
            spec_hash = _mixed_workload()[1].canonical_hash()
            assert spec_hash[:12] in str(excinfo.value)
        finally:
            _REGISTRY.pop("flaky-exec", None)


class TestSolveBatchPassthrough:
    def test_store_chunksize_and_cache_size_are_honoured(self, tmp_path):
        specs = _mixed_workload()
        results = solve_batch(
            specs,
            backend="analytic",
            chunksize=2,
            cache_size=8,
            store=tmp_path / "batch-store",
        )
        assert _fingerprints(results) == _fingerprints(
            [solve(spec, backend="analytic") for spec in specs]
        )
        # The store really was threaded through.
        warm = BatchRunner(backend="analytic", store=tmp_path / "batch-store")
        _, stats = warm.run(specs)
        assert stats.solved_from_store == len(specs)
