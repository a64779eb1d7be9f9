"""The tiled search batch loop reproduces the whole-chunk loop exactly.

``simulate_search_batch`` walks each compiled chunk in (segments x
instances) tiles bounded by ``kernel._TILE_ELEMENTS`` and drops the
instances a tile solves before the next tile.  Tiling must not move any
outcome: event times and positions, ``segments_processed`` and
``gap_evaluations`` are all fingerprinted, so every outcome's ``repr``
must equal that of the whole-chunk loop kept in ``search_reference``.
Both loops run in this process, because numpy's SIMD ``cos``/``sin`` may
round differently on other hardware.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from search_reference import reference_simulate_search_batch

from repro.algorithms import UniversalSearch
from repro.algorithms.base import FiniteMobilityAlgorithm
from repro.core import theorem1_search_bound
from repro.geometry import Vec2
from repro.motion import KIND_ARC, LinearMotion, WaitMotion
from repro.robots import RobotAttributes
from repro.simulation import SearchInstance, bound_multiple_horizon, kernel
from repro.simulation.kernel import simulate_search_batch

SHIPPED_BUDGET = kernel._TILE_ELEMENTS


def _bound_horizon(instance: SearchInstance) -> object:
    bound = theorem1_search_bound(instance.distance, instance.visibility)
    return bound_multiple_horizon(bound, 1.25)


def _assert_same_outcomes(algorithm, instances, horizons):
    tiled = simulate_search_batch(algorithm, instances, horizons)
    whole = reference_simulate_search_batch(algorithm, instances, horizons)
    assert [repr(outcome) for outcome in tiled] == [repr(outcome) for outcome in whole]
    return tiled


# -- property: random batches under every tile shape -----------------------------------

#: Tile budgets and the largest batch drawn for each.  A budget of 1
#: evaluates one segment of one instance per tile, 37 makes blocks of two
#: instances walking 18 or 37 segments, 512 blocks of 32; small budgets
#: cost one call per tile, so their batches stay small.
BUDGETS = {1: 3, 37: 80, 512: 600, SHIPPED_BUDGET: 600}

#: The searcher of a batch: the reference robot (cached chunks) or a
#: robot whose world trajectory is mapped per chunk.
SEARCHERS = [
    RobotAttributes(),
    RobotAttributes(speed=0.6),
    RobotAttributes(time_unit=0.5, orientation=1.0, chirality=-1),
]

#: One target: distance and bearing; visibility at perfbench's ends or
#: between them.
targets = st.tuples(
    st.floats(0.05, 4.0),
    st.floats(0.0, 2.0 * math.pi),
    st.one_of(st.sampled_from([0.08, 0.45]), st.floats(0.08, 0.45)),
)

#: One instance's horizon: the bound-derived one, or a share of the
#: Theorem 1 bound that cuts a chunk short and may leave it unsolved.
horizon_draws = st.one_of(st.just(None), st.floats(0.01, 1.0))


@st.composite
def batches(draw):
    budget = draw(st.sampled_from(sorted(BUDGETS)))
    size = draw(st.integers(1, BUDGETS[budget]))
    # A small pool of targets, drawn with repeats, so duplicates occur.
    pool = draw(st.lists(targets, min_size=1, max_size=max(1, size // 2 + 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    cuts = draw(st.lists(horizon_draws, min_size=size, max_size=size))
    searcher = draw(st.sampled_from(SEARCHERS))
    instances, horizons = [], []
    for pick, cut in zip(picks, cuts):
        distance, bearing, visibility = pool[pick]
        instance = SearchInstance(Vec2.polar(distance, bearing), visibility, searcher)
        instances.append(instance)
        if cut is None:
            horizons.append(_bound_horizon(instance))
        else:
            horizons.append(cut * theorem1_search_bound(distance, visibility))
    return budget, instances, horizons


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=batches())
def test_tiles_reproduce_the_whole_chunk_loop(batch):
    budget, instances, horizons = batch
    saved = kernel._TILE_ELEMENTS
    kernel._TILE_ELEMENTS = budget
    try:
        _assert_same_outcomes(UniversalSearch(), instances, horizons)
    finally:
        kernel._TILE_ELEMENTS = saved


# -- fixed cases -------------------------------------------------------------------------


def _perfbench_like(count: int, seed: int) -> list[SearchInstance]:
    """Search instances drawn like perfbench's: distance U[0.5, 4],
    visibility U[0.08, 0.45], bearing U[0, 2 pi)."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform((0.5, 0.08, 0.0), (4.0, 0.45, 2.0 * math.pi), size=(count, 3))
    return [
        SearchInstance(Vec2.polar(float(d), float(b)), float(v)) for d, v, b in draws
    ]


def test_arc_crossings_in_later_tiles_match(monkeypatch):
    """Instances found on an arc past their block's first tile -- the
    crossing search then sees a different problem group than in a
    whole-chunk pass -- keep their outcomes."""
    monkeypatch.setattr(kernel, "_TILE_ELEMENTS", 37)
    algorithm = UniversalSearch()
    instances = _perfbench_like(120, seed=3)
    outcomes = _assert_same_outcomes(
        algorithm, instances, [_bound_horizon(instance) for instance in instances]
    )
    first_chunk = kernel._cache_entry_for(algorithm).chunk(0)
    later_arcs = 0
    for outcome in outcomes:
        assert outcome.solved
        row = int(first_chunk.segment_indices(np.array([outcome.event.time]))[0])
        if outcome.event.time < first_chunk.t_end and row >= 37:
            later_arcs += int(first_chunk.kinds[row] == KIND_ARC)
    assert later_arcs >= 5


def test_column_blocks_at_the_shipped_budget():
    """More live instances than one block holds: several column blocks."""
    width = kernel._TILE_ELEMENTS // kernel._TILE_MIN_ROWS
    instances = _perfbench_like(width + 300, seed=11)
    _assert_same_outcomes(
        UniversalSearch(), instances, [_bound_horizon(instance) for instance in instances]
    )


class ZeroDurationAtHorizon(FiniteMobilityAlgorithm):
    """Forty unit moves away from the targets, a zero-duration wait at
    t = 40, then moves back past them."""

    name = "zero-duration-at-horizon"

    def segments(self):
        for k in range(40):
            yield LinearMotion(Vec2(-k, 0.0), Vec2(-k - 1.0, 0.0), 1.0)
        yield WaitMotion(Vec2(-40.0, 0.0), 0.0)
        yield LinearMotion(Vec2(-40.0, 0.0), Vec2(10.0, 0.0), 50.0)


@pytest.mark.parametrize("budget", [1, 20, 40, SHIPPED_BUDGET])
def test_zero_duration_segment_at_the_horizon_is_counted(monkeypatch, budget):
    """A zero-duration segment starting exactly at an instance's horizon
    is a valid window, so ``segments_processed`` counts it even when a
    tile ending at the horizon comes before it: horizon retirement stays
    at chunk ends."""
    monkeypatch.setattr(kernel, "_TILE_ELEMENTS", budget)
    instances = [SearchInstance(Vec2(5.0, 0.0), 0.5), SearchInstance(Vec2(5.0, 0.2), 0.25)]
    horizons = [40.0, 100.0]
    outcomes = _assert_same_outcomes(ZeroDurationAtHorizon(), instances, horizons)
    assert not outcomes[0].solved
    assert outcomes[0].segments_processed == 41  # forty moves and the wait
    assert outcomes[1].solved


# -- memory ------------------------------------------------------------------------------


def test_peak_memory_does_not_grow_with_the_batch():
    """4,000 instances: the kernel's temporaries stay within a few MiB
    (the whole-chunk loop peaks at about 175 MiB on these instances)."""
    algorithm = UniversalSearch()
    instances = _perfbench_like(4000, seed=5)
    horizons = [_bound_horizon(instance) for instance in instances]
    simulate_search_batch(algorithm, instances[:50], horizons[:50])  # compile the cache
    tracemalloc.start()
    try:
        outcomes = simulate_search_batch(algorithm, instances, horizons)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 4000
    assert peak - held < 8 * 2**20
