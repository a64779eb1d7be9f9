"""Tests for the vectorized batch simulation kernel.

The scalar engine is the reference implementation: every kernel answer is
checked against it -- solved flags must match exactly, event times within
``TIME_TOLERANCE``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import SearchRound, UniversalSearch, WaitAndSearchRendezvous
from repro.constants import TIME_TOLERANCE
from repro.core import rendezvous_time_bound, theorem1_search_bound
from repro.errors import InvalidParameterError
from repro.geometry import Vec2
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
