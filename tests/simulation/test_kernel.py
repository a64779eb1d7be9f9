"""Tests for the vectorized batch simulation kernel.

The scalar engine is the reference implementation: every kernel answer is
checked against it -- solved flags must match exactly, event times within
``TIME_TOLERANCE``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import SearchCircle, SearchRound, UniversalSearch, WaitAndSearchRendezvous
from repro.api import RendezvousProblem, SearchProblem, solve
from repro.constants import TIME_TOLERANCE
from repro.core import rendezvous_time_bound, theorem1_search_bound
from repro.errors import InvalidParameterError
from repro.geometry import Vec2
from repro.motion.compiled import FLOAT_FIELDS, SegmentStreamCompiler
from repro.robots import RobotAttributes
from repro.simulation import (
    RendezvousInstance,
    SearchInstance,
    bound_multiple_horizon,
    kernel_simulate_rendezvous,
    kernel_simulate_search,
    simulate_rendezvous,
    simulate_search,
    simulate_search_batch,
)
from repro.simulation import kernel as kernel_module
from repro.simulation.kernel import (
    _lipschitz_first_crossing,
    _quadratic_first_crossing,
    clear_compiled_cache,
    kernel_cache_stats,
)
from repro.workloads import (
    mirrored_suite,
    search_sweep_suite,
    symmetric_clock_suite,
)


def _search_horizons(instances, factor=1.25):
    return [
        bound_multiple_horizon(
            theorem1_search_bound(i.distance, i.visibility), factor
        )
        for i in instances
    ]


class TestSearchBatchParity:
    def test_sweep_suite_matches_the_scalar_engine(self):
        instances = search_sweep_suite()
        horizons = _search_horizons(instances)
        scalar = [
            simulate_search(UniversalSearch(), instance, horizon)
            for instance, horizon in zip(instances, horizons)
        ]
        batch = simulate_search_batch(UniversalSearch(), instances, horizons)
        assert len(batch) == len(scalar)
        for reference, kernel in zip(scalar, batch):
            assert kernel.solved == reference.solved
            assert abs(kernel.event.time - reference.event.time) <= TIME_TOLERANCE
            assert kernel.event.gap <= instances[0].visibility * 10  # sanity
            assert kernel.segments_processed == reference.segments_processed

    def test_cached_and_fresh_compilation_agree(self):
        instances = search_sweep_suite()[:6]
        horizons = _search_horizons(instances)
        clear_compiled_cache()
        cold = simulate_search_batch(UniversalSearch(), instances, horizons)
        warm = simulate_search_batch(UniversalSearch(), instances, horizons)
        for a, b in zip(cold, warm):
            assert a.event.time == b.event.time

    def test_batch_of_one_matches_single_entry_point(self):
        instance = SearchInstance(target=Vec2.polar(1.7, 0.9), visibility=0.3)
        horizon = _search_horizons([instance])[0]
        single = kernel_simulate_search(UniversalSearch(), instance, horizon)
        batch = simulate_search_batch(UniversalSearch(), [instance], [horizon])[0]
        assert single.event.time == batch.event.time

    def test_unsolved_when_the_horizon_is_too_small(self):
        instance = SearchInstance(target=Vec2.polar(3.0, 0.4), visibility=0.1)
        scalar = simulate_search(UniversalSearch(), instance, 5.0)
        kernel = kernel_simulate_search(UniversalSearch(), instance, 5.0)
        assert not scalar.solved and not kernel.solved
        assert kernel.horizon == 5.0

    def test_mixed_horizons_resolve_independently(self):
        instances = [
            SearchInstance(target=Vec2.polar(2.5, 1.0), visibility=0.2),
            SearchInstance(target=Vec2.polar(2.5, 1.0), visibility=0.2),
        ]
        generous = _search_horizons(instances)[0]
        outcomes = simulate_search_batch(
            UniversalSearch(), instances, [5.0, generous]
        )
        assert not outcomes[0].solved
        assert outcomes[1].solved

    def test_heterogeneous_attributes_are_rejected(self):
        instances = [
            SearchInstance(target=Vec2.polar(1.0, 0.1), visibility=0.2),
            SearchInstance(
                target=Vec2.polar(1.0, 0.1),
                visibility=0.2,
                attributes=RobotAttributes(speed=2.0),
            ),
        ]
        with pytest.raises(InvalidParameterError):
            simulate_search_batch(UniversalSearch(), instances, [10.0, 10.0])

    def test_horizon_and_instance_counts_must_agree(self):
        instance = SearchInstance(target=Vec2.polar(1.0, 0.1), visibility=0.2)
        with pytest.raises(InvalidParameterError):
            simulate_search_batch(UniversalSearch(), [instance], [10.0, 20.0])

    def test_empty_batch(self):
        assert simulate_search_batch(UniversalSearch(), [], []) == []


class TestPairKernelParity:
    @pytest.mark.parametrize("index", [0, 5, 11, 17, 23, 29])
    def test_symmetric_clock_instances(self, index):
        instance = symmetric_clock_suite()[index]
        horizon = bound_multiple_horizon(rendezvous_time_bound(instance), 1.25)
        scalar = simulate_rendezvous(UniversalSearch(), instance, horizon)
        kernel = kernel_simulate_rendezvous(UniversalSearch(), instance, horizon)
        assert kernel.solved == scalar.solved
        assert abs(kernel.event.time - scalar.event.time) <= TIME_TOLERANCE

    @pytest.mark.parametrize("index", [0, 9, 20])
    def test_mirrored_instances(self, index):
        instance = mirrored_suite()[index]
        horizon = bound_multiple_horizon(rendezvous_time_bound(instance), 1.25)
        scalar = simulate_rendezvous(UniversalSearch(), instance, horizon)
        kernel = kernel_simulate_rendezvous(UniversalSearch(), instance, horizon)
        assert kernel.solved == scalar.solved
        assert abs(kernel.event.time - scalar.event.time) <= TIME_TOLERANCE

    def test_asymmetric_clock_instance_with_algorithm7(self):
        from repro.simulation import RendezvousInstance

        instance = RendezvousInstance(
            separation=Vec2.polar(1.1, 0.7),
            visibility=0.45,
            attributes=RobotAttributes(time_unit=0.5),
        )
        horizon = bound_multiple_horizon(rendezvous_time_bound(instance), 1.25)
        algorithm = WaitAndSearchRendezvous()
        scalar = simulate_rendezvous(algorithm, instance, horizon)
        kernel = kernel_simulate_rendezvous(algorithm, instance, horizon)
        assert kernel.solved == scalar.solved
        assert abs(kernel.event.time - scalar.event.time) <= TIME_TOLERANCE

    def test_immediate_detection_at_time_zero(self):
        from repro.simulation import RendezvousInstance

        instance = RendezvousInstance(
            separation=Vec2(0.2, 0.0),
            visibility=0.5,
            attributes=RobotAttributes(speed=0.7),
        )
        kernel = kernel_simulate_rendezvous(UniversalSearch(), instance, 10.0)
        assert kernel.solved and kernel.event.time == 0.0

    def test_infeasible_identical_robots_run_to_the_horizon(self):
        from repro.simulation import RendezvousInstance

        instance = RendezvousInstance(
            separation=Vec2.polar(1.5, 0.3),
            visibility=0.3,
            attributes=RobotAttributes(),
        )
        scalar = simulate_rendezvous(UniversalSearch(), instance, 120.0)
        kernel = kernel_simulate_rendezvous(UniversalSearch(), instance, 120.0)
        assert not scalar.solved and not kernel.solved


class TestRobotParking:
    """A finite algorithm's robots wait at their final positions (``_RobotStream``)."""

    @pytest.fixture
    def parked(self, monkeypatch):
        positions = []
        wait = kernel_module.WaitMotion

        def recording(position, duration):
            positions.append(position)
            return wait(position, duration)

        monkeypatch.setattr(kernel_module, "WaitMotion", recording)
        return positions

    def test_both_robots_park_and_never_meet(self, parked):
        # SearchRound(1) ends where it starts, so both robots park at their
        # starts, out of sight of each other, until the horizon.
        instance = RendezvousInstance(
            separation=Vec2(1.5, 0.3), visibility=0.2, attributes=RobotAttributes(speed=0.5)
        )
        scalar = simulate_rendezvous(SearchRound(1), instance, 400.0)
        outcome = kernel_simulate_rendezvous(SearchRound(1), instance, 400.0)
        assert not scalar.solved and not outcome.solved
        assert outcome.horizon == scalar.horizon == 400.0
        assert len(parked) == 2
        assert parked[0].is_close(Vec2(0.0, 0.0)) and parked[1].is_close(Vec2(1.5, 0.3))

    def test_a_parked_robot_is_found_by_the_moving_one(self, parked):
        # Half the time unit: the other robot finishes its round at ~49.7
        # and waits at its start, where the reference robot sees it later.
        instance = RendezvousInstance(
            separation=Vec2.polar(2.0, math.pi / 2),
            visibility=0.2,
            attributes=RobotAttributes(time_unit=0.5),
        )
        scalar = simulate_rendezvous(SearchRound(1), instance, 300.0)
        outcome = kernel_simulate_rendezvous(SearchRound(1), instance, 300.0)
        assert scalar.solved and outcome.solved
        assert abs(outcome.event.time - scalar.event.time) <= TIME_TOLERANCE
        assert len(parked) == 1 and parked[0].is_close(Vec2(0.0, 2.0))
        assert outcome.event.position_other.is_close(parked[0])


#: Rendezvous whose other robot's chunks are mapped from the cached
#: arrays: mirrored with speed != 1, and tau != 1.  Both run the other
#: robot past a 256-segment cache cap (one 512-segment chunk); the
#: mirrored one runs the reference robot past it too.
MIRRORED = RendezvousProblem(
    distance=2.5, visibility=0.2, speed=0.7, orientation=1.0, chirality=-1
)
CLOCK = RendezvousProblem(distance=3.0, visibility=0.15, time_unit=0.5)


@pytest.fixture
def fresh_compiled_cache():
    """No inherited compiled cache, before and after."""
    clear_compiled_cache()
    yield
    clear_compiled_cache()


@pytest.mark.usefixtures("fresh_compiled_cache")
class TestCacheSegmentCap:
    @pytest.mark.parametrize(
        "spec, continued_mapped",
        [
            # > one 512-segment chunk: the searcher runs past the cap.
            pytest.param(SearchProblem(distance=5.0, visibility=0.2), {False}, id="search"),
            pytest.param(MIRRORED, {True, False}, id="mirrored"),
            pytest.param(CLOCK, {True}, id="clock"),
        ],
    )
    def test_capped_stream_still_solves_bit_identically(self, monkeypatch, spec, continued_mapped):
        from repro.simulation import kernel

        baseline = solve(spec, backend="vectorized")
        assert kernel_cache_stats()["cache_capped"] == 0

        continued = []
        resume = kernel._ChunkSource._continue_uncached

        def recording(source):
            continued.append(source._mapped)
            resume(source)

        clear_compiled_cache()
        monkeypatch.setattr(kernel, "_CACHE_SEGMENT_CAP", 256)
        monkeypatch.setattr(kernel._ChunkSource, "_continue_uncached", recording)
        capped = solve(spec, backend="vectorized")
        stats = kernel_cache_stats()
        assert stats["cache_capped"] > 0
        # The robots whose streams run past the cap continue uncached
        # (True for a mapped robot, False for the reference frame).
        assert set(continued) == continued_mapped
        # The capped prefix stops extending; the continuation path must
        # still produce the exact same answer.
        assert capped.fingerprint() == baseline.fingerprint()


#: One spec per way a robot reads the cache: the searcher takes the
#: cached chunks as they are, the other robot of a mirrored or an
#: asymmetric-clock rendezvous maps slices of the same chunks.
CACHE_SPECS = [
    pytest.param(SearchProblem(distance=2.0, visibility=0.5), id="search"),
    pytest.param(MIRRORED, id="mirrored"),
    pytest.param(CLOCK, id="clock"),
]

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _assert_same_chunk(got, expected):
    assert len(got) == len(expected)
    np.testing.assert_array_equal(got.kinds, expected.kinds)
    for field in FLOAT_FIELDS:
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))


@pytest.mark.usefixtures("fresh_compiled_cache")
class TestPrivateChunkCache:
    """Each process compiles a trajectory once and serves every later
    solve, and both robots of a rendezvous, from its own cache."""

    @pytest.mark.parametrize("spec", CACHE_SPECS)
    def test_a_repeated_solve_compiles_nothing(self, spec):
        first = solve(spec, backend="vectorized")
        compiled = kernel_cache_stats()["local_compiles"]
        assert compiled > 0
        second = solve(spec, backend="vectorized")
        assert kernel_cache_stats()["local_compiles"] == compiled
        assert second.fingerprint() == first.fingerprint()

    @pytest.mark.parametrize("spec", CACHE_SPECS)
    def test_a_cleared_cache_recompiles_the_same_chunks(self, spec):
        first = solve(spec, backend="vectorized")
        stats = kernel_cache_stats()
        clear_compiled_cache()
        assert kernel_cache_stats() == {"local_compiles": 0, "cache_capped": 0, "entries": 0}
        again = solve(spec, backend="vectorized")
        assert kernel_cache_stats() == stats
        assert again.fingerprint() == first.fingerprint()

    @pytest.mark.parametrize(
        "spec", [pytest.param(MIRRORED, id="mirrored"), pytest.param(CLOCK, id="clock")]
    )
    def test_both_robots_of_a_rendezvous_read_one_entry(self, spec):
        solve(spec, backend="vectorized")
        assert kernel_cache_stats()["entries"] == 1

    def test_stats_document_is_json_safe(self):
        solve(MIRRORED, backend="vectorized")
        stats = kernel_cache_stats()
        assert set(stats) == {"entries", "local_compiles", "cache_capped"}
        assert json.loads(json.dumps(stats)) == stats

    def test_concurrent_solves_compile_each_chunk_once(self):
        expected = solve(MIRRORED, backend="vectorized").fingerprint()
        compiled = kernel_cache_stats()["local_compiles"]
        clear_compiled_cache()

        barrier = threading.Barrier(4)
        fingerprints = []

        def worker():
            barrier.wait()
            for _ in range(3):
                fingerprints.append(solve(MIRRORED, backend="vectorized").fingerprint())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert fingerprints == [expected] * 12
        assert kernel_cache_stats()["local_compiles"] == compiled

    def test_a_child_process_compiles_its_own_cache(self):
        spec = SearchProblem(distance=2.0, visibility=0.5)
        expected = solve(spec, backend="vectorized").fingerprint()
        parent_stats = kernel_cache_stats()
        code = (
            "import json\n"
            "from repro.api import SearchProblem, solve\n"
            "from repro.simulation.kernel import kernel_cache_stats\n"
            "result = solve(SearchProblem(distance=2.0, visibility=0.5), backend='vectorized')\n"
            "print(json.dumps({'fingerprint': result.fingerprint(), 'stats': kernel_cache_stats()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        child = json.loads(completed.stdout.splitlines()[-1])
        # The child compiled the same chunks for itself and answered
        # identically; nothing it did reached this process's cache.
        assert child["fingerprint"] == expected
        assert child["stats"] == parent_stats
        assert kernel_cache_stats() == parent_stats


@pytest.mark.usefixtures("fresh_compiled_cache")
class TestCacheEntries:
    """The cache mapping: one entry per algorithm parameterisation, at
    most ``_CACHE_ENTRY_CAP`` of them, least recently used evicted."""

    def test_equal_parameters_share_an_entry(self):
        entry = kernel_module._cache_entry_for(UniversalSearch())
        assert kernel_module._cache_entry_for(UniversalSearch(first_round=1)) is entry
        assert kernel_cache_stats()["entries"] == 1

    def test_parameters_beyond_six_digits_get_their_own_entry(self):
        close = [SearchCircle(1.0), SearchCircle(1.0000001)]
        assert close[0].describe() == close[1].describe()
        entries = [kernel_module._cache_entry_for(algorithm) for algorithm in close]
        assert entries[0] is not entries[1]
        assert kernel_cache_stats()["entries"] == 2

    def test_at_most_the_cap_of_trajectories_stay_cached(self):
        cap = kernel_module._CACHE_ENTRY_CAP
        algorithms = [UniversalSearch(first_round=k) for k in range(1, cap + 3)]
        for algorithm in algorithms:
            kernel_module._cache_entry_for(algorithm)
        assert kernel_cache_stats()["entries"] == cap
        cached = set(kernel_module._CHUNK_CACHE)
        assert [kernel_module._cache_key(a) in cached for a in algorithms] == [False] * 2 + [
            True
        ] * cap

    def test_a_lookup_refreshes_recency(self):
        cap = kernel_module._CACHE_ENTRY_CAP
        algorithms = [UniversalSearch(first_round=k) for k in range(1, cap + 1)]
        for algorithm in algorithms:
            kernel_module._cache_entry_for(algorithm)
        kernel_module._cache_entry_for(algorithms[0])
        kernel_module._cache_entry_for(UniversalSearch(first_round=cap + 1))
        cached = set(kernel_module._CHUNK_CACHE)
        assert kernel_module._cache_key(algorithms[0]) in cached
        assert kernel_module._cache_key(algorithms[1]) not in cached


@pytest.mark.usefixtures("fresh_compiled_cache")
class TestCacheEntry:
    """One entry's compiled prefix: fixed-size chunks, spans across them,
    and the difference between a finished stream and a capped prefix."""

    def test_chunks_match_a_fresh_stream_compile(self):
        entry = kernel_module._CacheEntry(UniversalSearch())
        compiler = SegmentStreamCompiler(UniversalSearch().segments())
        size = kernel_module._CACHED_CHUNK_SEGMENTS
        for index in range(2):
            _assert_same_chunk(entry.chunk(index), compiler.next_chunk(max_segments=size))
        assert entry.chunk(1) is entry.chunk(1)
        assert kernel_cache_stats()["local_compiles"] == 2

    def test_a_span_crosses_chunk_boundaries(self):
        entry = kernel_module._CacheEntry(UniversalSearch())
        size = kernel_module._CACHED_CHUNK_SEGMENTS
        reference = SegmentStreamCompiler(UniversalSearch().segments()).next_chunk(
            max_segments=2 * size
        )
        first = size - 12
        _assert_same_chunk(entry.span(first, 40), reference.section(first, first + 40))
        assert entry.starts == [0, size]

    def test_a_finite_stream_ends_with_stream_done(self):
        entry = kernel_module._CacheEntry(SearchRound(1))
        total = len(entry.chunk(0))
        assert entry.chunk(1) is None
        assert entry.done and entry.stream_done
        assert len(entry.span(total - 5, 10)) == 5
        assert entry.span(total, 4) is None
        assert kernel_cache_stats()["cache_capped"] == 0

    def test_a_capped_prefix_is_not_the_stream_end(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_CACHE_SEGMENT_CAP", 256)
        entry = kernel_module._CacheEntry(UniversalSearch())
        assert len(entry.chunk(0)) == kernel_module._CACHED_CHUNK_SEGMENTS
        assert entry.chunk(1) is None
        assert entry.done and not entry.stream_done
        assert entry.span(kernel_module._CACHED_CHUNK_SEGMENTS + 8, 8) is None
        assert kernel_cache_stats()["cache_capped"] == 1


class TestCrossingPrimitives:
    def test_quadratic_matches_the_scalar_closed_form(self):
        from repro.simulation.gap import _first_crossing_quadratic

        rng = np.random.default_rng(7)
        for _ in range(300):
            ox, oy = rng.uniform(-3, 3, 2)
            vx, vy = rng.uniform(-2, 2, 2)
            threshold = rng.uniform(0.05, 1.5)
            duration = rng.uniform(0.0, 8.0)
            scalar = _first_crossing_quadratic(
                Vec2(ox, oy), Vec2(vx, vy), threshold, duration
            )
            kernel = _quadratic_first_crossing(
                np.array([ox]),
                np.array([oy]),
                np.array([vx]),
                np.array([vy]),
                np.array([threshold]),
                np.array([duration]),
            )[0]
            if scalar is None:
                assert math.isnan(kernel)
            else:
                assert kernel == pytest.approx(scalar, abs=1e-12)

    def test_lipschitz_wavefront_matches_find_first_crossing(self):
        from repro.simulation import find_first_crossing

        cases = [
            (2.0, 1.5, 0.4, 0.0, 9.0),  # dip crossing the threshold
            (2.0, 0.3, 0.2, 0.0, 6.0),  # dip staying above: no crossing
            (1.0, 1.1, 0.5, 0.0, 0.0),  # degenerate interval
        ]

        def make_gap(base, depth, dip_at=4.0):
            return lambda t: base - depth * math.exp(-((t - dip_at) ** 2))

        for base, depth, threshold, lo, hi in cases:
            gap = make_gap(base, depth)
            lipschitz = depth * 2.0  # generous bound on |gap'|
            scalar = find_first_crossing(gap, lo, hi, lipschitz, threshold, 1e-9)

            def gap_fn(problems, times):
                return np.array([gap(float(t)) for t in np.atleast_1d(times)])

            kernel, _ = _lipschitz_first_crossing(
                gap_fn,
                np.array([lo]),
                np.array([hi]),
                np.array([lipschitz]),
                np.array([threshold]),
                1e-9,
            )
            if scalar.time is None:
                assert math.isnan(kernel[0])
            else:
                assert abs(kernel[0] - scalar.time) <= 1e-9
