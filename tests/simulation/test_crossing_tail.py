"""The kernel's crossing search visits exactly the binary wavefront's nodes.

``_lipschitz_first_crossing`` runs a numpy pass per dyadic level while
many intervals are live and finishes in Python floats, several levels per
``gap_fn`` call, once few are.  Neither half may change which nodes are
visited: crossing times, NaNs and per-problem evaluation counts must equal
the plain binary wavefront kept in ``crossing_reference`` -- exactly, not
within a tolerance -- and so must every solve built on top of it.  The
end-to-end comparisons run both searches in this process, because
numpy's SIMD ``cos``/``sin`` may round differently on other hardware.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from crossing_reference import reference_lipschitz_first_crossing
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RendezvousProblem, SearchProblem, VectorizedBackend
from repro.api import vectorized as vectorized_backend
from repro.simulation import kernel
from repro.simulation.kernel import _lipschitz_first_crossing

# -- traversal: random problem sets ---------------------------------------------------

#: One gap shape: ``base + amplitude * cos(frequency * t + phase)``.
shapes = st.tuples(
    st.floats(0.0, 2.0),  # base
    st.floats(0.0, 1.5),  # amplitude (0 gives a plateau)
    st.floats(0.1, 12.0),  # frequency
    st.floats(0.0, 2.0 * math.pi),  # phase
)

#: One problem: which shape, its interval, Lipschitz factor and threshold.
problem_draws = st.tuples(
    st.integers(0, 15),  # shape id -- several problems share one
    st.floats(0.0, 5.0),  # lo
    st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 3.0)),  # width
    st.floats(0.25, 2.0),  # Lipschitz factor (< 1 under-estimates)
    st.sampled_from(["free", "at-lo", "at-hi", "none"]),  # threshold mode
    st.floats(0.0, 2.5),  # free threshold
)


def _gap_function(table):
    base, amplitude, frequency, phase = (np.array(column) for column in zip(*table))

    def gap_fn(problems, times):
        return base[problems] + amplitude[problems] * np.cos(
            frequency[problems] * times + phase[problems]
        )

    return gap_fn, amplitude * frequency


def _problem_set(shape_list, draws):
    """Per-problem arrays; problems drawing the same shape id share it."""
    table = [shape_list[shape % len(shape_list)] for shape, *_ in draws]
    gap_fn, slopes = _gap_function(table)
    lo = np.array([draw[1] for draw in draws])
    hi = lo + np.array([draw[2] for draw in draws])
    lipschitz = slopes * np.array([draw[3] for draw in draws])
    problems = np.arange(len(draws))
    at_lo, at_hi = gap_fn(problems, lo), gap_fn(problems, hi)
    threshold = np.array(
        [
            {"at-lo": g_lo, "at-hi": g_hi, "none": -2.0}.get(mode, free)
            for (_, _, _, _, mode, free), g_lo, g_hi in zip(draws, at_lo, at_hi)
        ]
    )
    return gap_fn, lo, hi, lipschitz, threshold


def _assert_same_traversal(gap_fn, lo, hi, lipschitz, threshold, tolerance):
    best, counts = _lipschitz_first_crossing(gap_fn, lo, hi, lipschitz, threshold, tolerance)
    ref_best, ref_counts = reference_lipschitz_first_crossing(
        gap_fn, lo, hi, lipschitz, threshold, tolerance
    )
    assert np.array_equal(np.isnan(best), np.isnan(ref_best))
    assert np.array_equal(best, ref_best, equal_nan=True)
    assert np.array_equal(counts, ref_counts)
    return best, counts


@pytest.fixture
def tail_calls(monkeypatch):
    """Sizes of the live sets handed to and returned by the narrow tail."""
    calls = []
    tail = kernel._narrow_tail

    def recording(gap_fn, live, best, counts, time_tolerance):
        remaining = tail(gap_fn, live, best, counts, time_tolerance)
        calls.append((live[0].size, remaining[0].size))
        return remaining

    monkeypatch.setattr(kernel, "_narrow_tail", recording)
    return calls


class TestTraversalMatchesTheBinaryWavefront:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.lists(shapes, min_size=1, max_size=16),
        st.lists(problem_draws, min_size=1, max_size=200),
        st.sampled_from([2.0**-9, 2.0**-6, 1e-3]),
    )
    def test_random_problem_sets(self, shape_list, draws, tolerance):
        _assert_same_traversal(*_problem_set(shape_list, draws), tolerance)

    def test_wide_set_finishes_in_the_tail(self, tail_calls):
        # Dyadic widths from 1 down to 2^-16 finish at different depths,
        # so the live set starts wide and thins out below the switch.
        rng = np.random.default_rng(11)
        shape_list = [
            tuple(row) for row in rng.uniform((0.2, 0.1, 1.0, 0.0), (1.0, 1.0, 8.0, 6.0), (16, 4))
        ]
        draws = [
            (shape, lo, 2.0**-depth, 4.0, "free", 0.4)
            for shape, lo, depth in zip(
                rng.integers(16, size=200).tolist(),
                rng.uniform(0.0, 3.0, 200).tolist(),
                rng.integers(17, size=200).tolist(),
            )
        ]
        gap_fn, *arrays = _problem_set(shape_list, draws)
        sizes = []

        def recording_gap(problems, times):
            sizes.append(problems.size)
            return gap_fn(problems, times)

        _lipschitz_first_crossing(recording_gap, *arrays, 1e-9)
        assert any(kernel._NARROW_LIVE < size < 400 for size in sizes)  # a wide pass
        assert tail_calls and tail_calls[0][0] <= kernel._NARROW_LIVE
        _assert_same_traversal(gap_fn, *arrays, 1e-9)

    def test_tail_hands_a_growing_live_set_back_to_the_wide_pass(self, tail_calls):
        # A plateau just above the threshold with a loose Lipschitz bound
        # keeps every interval alive until its width reaches the
        # tolerance, so one live interval doubles past the narrow bound.
        best, counts = _assert_same_traversal(
            lambda problems, times: np.full(times.shape, 0.51),
            np.array([0.0]),
            np.array([1.0]),
            np.array([10.0]),
            np.array([0.5]),
            2.0**-9,
        )
        assert math.isnan(best[0]) and counts[0] > 2 * kernel._NARROW_LIVE
        assert any(remaining > kernel._NARROW_LIVE for _, remaining in tail_calls)

    def test_duplicate_problems_resolve_independently(self):
        shape = (1.0, 0.8, 3.0, 0.5)
        draws = [(0, 0.25, 2.0, 1.0, "free", 0.35)] * 5 + [(0, 0.25, 2.0, 1.0, "none", 0.0)]
        best, counts = _assert_same_traversal(*_problem_set([shape], draws), 1e-9)
        assert np.all(best[:5] == best[0]) and not math.isnan(best[0])
        assert math.isnan(best[5]) and np.all(counts[:5] == counts[0])

    def test_endpoint_crossings_and_degenerate_widths(self):
        shape = (0.6, 0.5, 2.0, 0.0)
        draws = [
            (0, 1.0, 2.0, 1.0, "at-lo", 0.0),
            (0, 1.0, 2.0, 1.0, "at-hi", 0.0),
            (0, 1.0, 0.0, 1.0, "free", 0.9),
            (0, 1.0, 1e-12, 1.0, "free", 0.3),
        ]
        best, _ = _assert_same_traversal(*_problem_set([shape], draws), 1e-9)
        assert best[0] == 1.0

    def test_nan_gap_values_prune_like_numpy(self):
        # A NaN gap gives a NaN tent bound: numpy's minimum propagates it
        # and the interval dies, even where the other endpoint crosses.
        gap_fn, lo, hi, lipschitz, threshold = _problem_set(
            [(0.5, 0.4, 3.0, 0.0)], [(0, 0.0, 3.0, 1.0, "free", 0.3)] * 4
        )

        def holed_gap(problems, times):
            hole = (times > 0.4 + 0.5 * problems) & (times < 0.9 + 0.5 * problems)
            return np.where(hole, np.nan, gap_fn(problems, times))

        _assert_same_traversal(holed_gap, lo, hi, lipschitz, threshold, 1e-9)


# -- end to end: solves with the reference traversal patched in -----------------------


def _rendezvous_specs(count):
    rng = np.random.default_rng(2024)
    specs = []
    for index in range(count):
        slow = index % 2 == 0
        specs.append(
            RendezvousProblem(
                visibility=float(rng.uniform(0.3, 0.45)),
                distance=float(rng.uniform(0.8, 2.0)),
                bearing=float(rng.uniform(0.0, 2.0 * math.pi)),
                speed=float(rng.uniform(0.3, 0.85) if slow else rng.uniform(1.15, 2.0)),
                orientation=float(rng.uniform(0.0, 2.0 * math.pi)),
                chirality=-1 if index % 4 < 2 else 1,
            )
        )
    return specs


def _search_specs(count):
    rng = np.random.default_rng(77)
    draws = rng.uniform((0.5, 0.08, 0.0), (4.0, 0.45, 2.0 * math.pi), (count, 3)).tolist()
    return [
        SearchProblem(visibility=visibility, distance=distance, bearing=bearing)
        for distance, visibility, bearing in draws
    ]


def _solve_recording(monkeypatch, specs, batch):
    """Fingerprints and the kernel's own outcomes for one pass over ``specs``."""
    outcomes = []

    def recorded(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            outcomes.extend(result if isinstance(result, list) else [result])
            return result

        return wrapper

    name = "simulate_search_batch" if batch else "kernel_simulate_rendezvous"
    monkeypatch.setattr(vectorized_backend, name, recorded(getattr(vectorized_backend, name)))
    backend = VectorizedBackend()
    results = backend.solve_specs(specs) if batch else [backend.solve(spec) for spec in specs]
    monkeypatch.undo()
    return [result.fingerprint() for result in results], outcomes


def _with_reference_traversal(monkeypatch, specs, batch):
    calls = []

    def reference(*args):
        calls.append(args[1].size)
        return reference_lipschitz_first_crossing(*args)

    monkeypatch.setattr(kernel, "_lipschitz_first_crossing", reference)
    recorded = _solve_recording(monkeypatch, specs, batch)
    assert calls, "the solves never reached the patched-in reference search"
    return recorded


class TestSolvesAreBitIdentical:
    def test_feasible_rendezvous(self, monkeypatch):
        specs = _rendezvous_specs(200)
        fingerprints, outcomes = _solve_recording(monkeypatch, specs, batch=False)
        ref_fingerprints, ref_outcomes = _with_reference_traversal(monkeypatch, specs, False)
        assert len(outcomes) == len(specs) and all(outcome.solved for outcome in outcomes)
        assert repr(outcomes) == repr(ref_outcomes)
        assert fingerprints == ref_fingerprints

    def test_search_batch(self, monkeypatch):
        specs = _search_specs(500)
        fingerprints, outcomes = _solve_recording(monkeypatch, specs, batch=True)
        ref_fingerprints, ref_outcomes = _with_reference_traversal(monkeypatch, specs, True)
        assert len(outcomes) == len(specs)
        assert repr(outcomes) == repr(ref_outcomes)
        assert fingerprints == ref_fingerprints
