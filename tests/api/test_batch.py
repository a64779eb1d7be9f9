"""Tests for BatchRunner: determinism (serial vs pooled), caching, ordering."""

from __future__ import annotations

import threading

import pytest

from repro.api import BatchRunner, RendezvousProblem, SearchProblem, solve, solve_batch
from repro.api.batch import RunnerBusy
from repro.api.store import ResultStore
from repro.errors import InvalidParameterError

#: Upper bound on every wait of the threaded tests: a broken lock scope
#: fails them in seconds instead of hanging the suite.
WAIT_S = 10.0


def _small_workload():
    return [
        SearchProblem(distance=1.2, visibility=0.3, bearing=0.6),
        RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6),
        SearchProblem(distance=0.9, visibility=0.25, bearing=2.1),
    ]


def _fingerprints(results):
    return [result.fingerprint() for result in results]


class TestDeterminism:
    def test_two_serial_runs_are_identical(self):
        specs = _small_workload()
        first = BatchRunner(backend="simulation").solve_many(specs)
        second = BatchRunner(backend="simulation").solve_many(specs)
        assert _fingerprints(first) == _fingerprints(second)

    def test_serial_and_pooled_runs_are_identical(self):
        specs = _small_workload()
        serial = BatchRunner(backend="simulation").solve_many(specs)
        pooled = BatchRunner(backend="simulation", processes=2).solve_many(specs)
        assert _fingerprints(serial) == _fingerprints(pooled)

    def test_runtime_registered_backend_solves_in_process_despite_pool(self):
        from repro.api import SolverBackend, register_backend
        from repro.api.backends import _REGISTRY

        class EchoBackend(SolverBackend):
            name = "echo-batch"
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

        register_backend("echo-batch", EchoBackend)
        try:
            # A spawn-style worker would not see the runtime registration,
            # so custom backends must bypass the pool.
            runner = BatchRunner(backend="echo-batch", processes=2)
            results, stats = runner.run(_small_workload())
            assert all(result.bound == 7.0 for result in results)
            assert stats.processes == 1 and stats.solved_in_pool == 0
        finally:
            _REGISTRY.pop("echo-batch", None)

        # Replacing a *builtin* name must equally bypass the pool: a fresh
        # worker would resolve "analytic" to the original builtin.
        original = _REGISTRY["analytic"]
        register_backend("analytic", EchoBackend)
        try:
            runner = BatchRunner(backend="analytic", processes=2)
            results, stats = runner.run(_small_workload())
            assert all(result.bound == 7.0 for result in results)
            assert stats.processes == 1 and stats.solved_in_pool == 0
        finally:
            register_backend("analytic", original)

    def test_seeds_derive_from_the_spec_alone(self):
        specs = _small_workload()
        results = BatchRunner(backend="analytic").solve_many(specs)
        assert [r.provenance.seed for r in results] == [s.seed() for s in specs]


class TestOrderingAndDuplicates:
    def test_results_match_input_order(self):
        specs = _small_workload()
        results = BatchRunner(backend="analytic").solve_many(specs)
        assert [result.spec for result in results] == specs

    def test_duplicate_specs_solved_once(self):
        spec = SearchProblem(distance=1.2, visibility=0.3)
        runner = BatchRunner(backend="analytic")
        results, stats = runner.run([spec, spec, spec])
        assert stats.total == 3 and stats.unique == 1
        assert len(results) == 3
        assert _fingerprints(results)[0] == _fingerprints(results)[1]


class TestCache:
    def test_second_run_hits_the_cache(self):
        specs = _small_workload()
        runner = BatchRunner(backend="simulation")
        _, cold = runner.run(specs)
        warm_results, warm = runner.run(specs)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(specs)
        assert runner.cache_len == len(specs)
        assert _fingerprints(warm_results) == _fingerprints(runner.solve_many(specs))

    def test_lru_eviction_respects_cache_size(self):
        runner = BatchRunner(backend="analytic", cache_size=1)
        a = SearchProblem(distance=1.0, visibility=0.2)
        b = SearchProblem(distance=2.0, visibility=0.2)
        runner.solve_many([a])
        runner.solve_many([b])
        assert runner.cache_len == 1
        _, stats = runner.run([a])  # evicted, must be re-solved
        assert stats.cache_hits == 0

    def test_cache_disabled_with_size_zero(self):
        runner = BatchRunner(backend="analytic", cache_size=0)
        spec = SearchProblem(distance=1.0, visibility=0.2)
        runner.solve_many([spec])
        _, stats = runner.run([spec])
        assert stats.cache_hits == 0 and runner.cache_len == 0

    def test_clear_cache(self):
        runner = BatchRunner(backend="analytic")
        runner.solve_many([SearchProblem(distance=1.0, visibility=0.2)])
        runner.clear_cache()
        assert runner.cache_len == 0


    def test_cache_peek_returns_a_hit_and_refreshes_it(self):
        runner = BatchRunner(backend="analytic", cache_size=2)
        a, b, c = (SearchProblem(distance=d, visibility=0.2) for d in (1.0, 2.0, 3.0))
        (solved_a,) = runner.solve_many([a])
        runner.solve_many([b])
        assert runner.cache_peek(("analytic", a.canonical_hash())) is solved_a
        assert runner.cache_peek(("simulation", a.canonical_hash())) is None
        runner.solve_many([c])  # evicts b: the peek made a the most recent
        assert runner.run([a])[1].cache_hits == 1
        assert runner.run([b])[1].cache_hits == 0

    def test_cache_peek_never_waits_for_the_lock(self):
        runner = BatchRunner(backend="analytic")
        spec = SearchProblem(distance=1.0, visibility=0.2)
        runner.solve_many([spec])
        held, release = threading.Event(), threading.Event()

        def hold():
            with runner._lock:
                held.set()
                release.wait(WAIT_S)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(WAIT_S)
            with pytest.raises(RunnerBusy):
                runner.cache_peek(("analytic", spec.canonical_hash()))
        finally:
            release.set()
            holder.join(WAIT_S)
        assert runner.cache_peek(("analytic", spec.canonical_hash())) is not None


class _ParkedStore(ResultStore):
    """A store whose read of one spec hash parks until released."""

    def __init__(self, path, park_hash):
        super().__init__(path)
        self.park_hash = park_hash
        self.entered = threading.Event()
        self.release = threading.Event()

    def get_many(self, backend, spec_hashes):
        spec_hashes = list(spec_hashes)
        if self.park_hash in spec_hashes:
            self.entered.set()
            self.release.wait(WAIT_S)
        return super().get_many(backend, spec_hashes)


class TestLockScope:
    def test_a_parked_store_read_does_not_stop_an_lru_hit(self, tmp_path):
        resident = SearchProblem(distance=1.0, visibility=0.2)
        parked = SearchProblem(distance=2.0, visibility=0.2)
        store = _ParkedStore(tmp_path, park_hash=parked.canonical_hash())
        runner = BatchRunner(backend="analytic", store=store)
        runner.solve_many([resident])
        planner = threading.Thread(target=runner.solve_many, args=([parked],))
        planner.start()
        try:
            assert store.entered.wait(WAIT_S)
            key = ("analytic", resident.canonical_hash())
            assert runner.cache_peek(key) is not None
            answered = []
            hit = threading.Thread(target=lambda: answered.append(runner.run([resident])))
            hit.start()
            hit.join(WAIT_S)
            assert not hit.is_alive() and answered[0][1].cache_hits == 1
            assert planner.is_alive()  # still parked in the store read
        finally:
            store.release.set()
            planner.join(WAIT_S)
        assert not planner.is_alive()
        assert runner.cache_len == 2


class TestStoreTier:
    def test_store_answers_below_the_lru(self, tmp_path):
        specs = _small_workload()
        cold = BatchRunner(backend="analytic", store=tmp_path)
        _, cold_stats = cold.run(specs)
        assert cold_stats.solved_from_store == 0
        assert cold_stats.solved_fresh == len(specs)

        warm = BatchRunner(backend="analytic", store=tmp_path)
        results, warm_stats = warm.run(specs)
        assert warm_stats.solved_from_store == len(specs)
        assert warm_stats.cache_hits == 0  # fresh runner: LRU is empty
        assert warm_stats.solved_fresh == 0
        assert warm_stats.hit_rate == 1.0
        assert all(result.provenance.from_store for result in results)
        # The LRU now holds the store answers: a second pass is pure LRU.
        _, third_stats = warm.run(specs)
        assert third_stats.cache_hits == len(specs)
        assert third_stats.solved_from_store == 0

    def test_store_accepts_a_path_string(self, tmp_path):
        runner = BatchRunner(backend="analytic", store=str(tmp_path / "s"))
        runner.run(_small_workload())
        assert runner.store is not None and len(runner.store) == len(_small_workload())

    def test_stats_describe_mentions_store_hits(self, tmp_path):
        runner = BatchRunner(backend="analytic", store=tmp_path)
        runner.run(_small_workload())
        _, stats = BatchRunner(backend="analytic", store=tmp_path).run(_small_workload())
        text = stats.describe()
        assert "store hits" in text and "hit rate 100%" in text

    def test_backend_override_keys_results_separately(self, tmp_path):
        spec = SearchProblem(distance=1.2, visibility=0.3)
        runner = BatchRunner(backend="analytic", store=tmp_path)
        (analytic,), _ = runner.run([spec])
        (simulated,), stats = runner.run([spec], backend="simulation")
        assert stats.cache_hits == 0  # different backend, different key
        assert analytic.backend == "analytic" and simulated.backend == "simulation"
        assert simulated.measured_time is not None
        # Both live in the store under their own backend namespace.
        assert runner.store.contains("analytic", spec.canonical_hash())
        assert runner.store.contains("simulation", spec.canonical_hash())


class TestStatsAndValidation:
    def test_stats_describe_mentions_throughput(self):
        runner = BatchRunner(backend="analytic")
        _, stats = runner.run(_small_workload())
        text = stats.describe()
        assert "specs/s" in text and "cache hits" in text
        assert stats.specs_per_second > 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            BatchRunner(processes=0)
        with pytest.raises(InvalidParameterError):
            BatchRunner(chunksize=0)
        with pytest.raises(InvalidParameterError):
            BatchRunner(cache_size=-1)

    def test_empty_batch(self):
        results, stats = BatchRunner().run([])
        assert results == [] and stats.total == 0

    def test_solve_batch_convenience_matches_solve(self):
        spec = SearchProblem(distance=1.2, visibility=0.3, bearing=0.6)
        (batched,) = solve_batch([spec], backend="simulation")
        assert batched.fingerprint() == solve(spec, backend="simulation").fingerprint()
