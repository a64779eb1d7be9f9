"""Tests for the structure-of-arrays compiled trajectories."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import SearchRound, TruncatedUniversalSearch
from repro.errors import TrajectoryError
from repro.geometry import Vec2
from repro.motion import (
    KIND_ARC,
    KIND_LINEAR,
    KIND_WAIT,
    ArcMotion,
    CompiledTrajectory,
    LazyTrajectory,
    LinearMotion,
    SegmentStreamCompiler,
    Trajectory,
    WaitMotion,
    compile_segments,
)
from repro.motion.compiled import SegmentRows


def _mixed_trajectory() -> Trajectory:
    return Trajectory(
        [
            LinearMotion(Vec2(0.0, 0.0), Vec2(1.0, 0.0), 2.0),
            ArcMotion(Vec2(0.0, 0.0), 1.0, 0.0, math.pi, 3.0),
            WaitMotion(Vec2(-1.0, 0.0), 1.5),
            LinearMotion(Vec2(-1.0, 0.0), Vec2(-1.0, -2.0), 4.0),
        ]
    )


class TestCompiledTrajectory:
    def test_kinds_and_layout(self):
        compiled = _mixed_trajectory().compile()
        assert list(compiled.kinds) == [KIND_LINEAR, KIND_ARC, KIND_WAIT, KIND_LINEAR]
        assert compiled.segment_count == 4
        assert compiled.t_begin == 0.0
        assert compiled.t_end == pytest.approx(10.5)

    def test_positions_match_the_scalar_segments(self):
        trajectory = _mixed_trajectory()
        compiled = trajectory.compile()
        times = np.linspace(0.0, trajectory.duration, 257)
        xs, ys = compiled.positions_at(times)
        for t, x, y in zip(times, xs, ys):
            expected = trajectory.position(float(t))
            assert math.isclose(x, expected.x, abs_tol=1e-12)
            assert math.isclose(y, expected.y, abs_tol=1e-12)

    def test_positions_match_on_a_real_search_round(self):
        trajectory = SearchRound(2).local_trajectory()
        compiled = trajectory.compile()
        times = np.linspace(0.0, trajectory.duration, 513)
        xs, ys = compiled.positions_at(times)
        for t, x, y in zip(times, xs, ys):
            expected = trajectory.position(float(t))
            assert math.isclose(x, expected.x, abs_tol=1e-9)
            assert math.isclose(y, expected.y, abs_tol=1e-9)

    def test_out_of_range_times_clamp_to_the_ends(self):
        compiled = _mixed_trajectory().compile()
        xs, ys = compiled.positions_at(np.array([-5.0, 1e9]))
        assert (xs[0], ys[0]) == (0.0, 0.0)
        assert xs[1] == pytest.approx(-1.0) and ys[1] == pytest.approx(-2.0)

    def test_end_position(self):
        compiled = _mixed_trajectory().compile()
        end = compiled.end_position()
        assert end.x == pytest.approx(-1.0) and end.y == pytest.approx(-2.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(TrajectoryError):
            CompiledTrajectory.from_segments([])

    def test_compile_segments_offsets_start_time(self):
        compiled = compile_segments(
            [WaitMotion(Vec2(1.0, 2.0), 3.0)], start_time=10.0
        )
        assert compiled.t_begin == 10.0
        assert compiled.t_end == 13.0
        position = compiled.position_at(11.0)
        assert (position.x, position.y) == (1.0, 2.0)


class TestLazyCompile:
    def test_prefix_covers_requested_time(self):
        lazy = LazyTrajectory(TruncatedUniversalSearch(3).segments())
        compiled = lazy.compile(up_to=30.0)
        assert compiled.t_end >= 30.0
        for t in np.linspace(0.0, 30.0, 64):
            expected = lazy.position(float(t))
            got = compiled.position_at(float(t))
            assert math.isclose(got.x, expected.x, abs_tol=1e-9)
            assert math.isclose(got.y, expected.y, abs_tol=1e-9)

    def test_finite_source_compiles_fully_past_its_end(self):
        lazy = LazyTrajectory(iter([WaitMotion(Vec2(0.0, 0.0), 2.0)]))
        compiled = lazy.compile(up_to=100.0)
        assert compiled.segment_count == 1
        assert compiled.t_end == pytest.approx(2.0)


class TestSegmentStreamCompiler:
    def test_chunks_partition_the_stream_in_order(self):
        segments = list(SearchRound(2).segments())
        compiler = SegmentStreamCompiler(iter(segments))
        chunks = []
        while True:
            chunk = compiler.next_chunk(max_segments=7)
            if chunk is None:
                break
            chunks.append(chunk)
        assert compiler.exhausted
        assert sum(len(chunk) for chunk in chunks) == len(segments)
        # Chunks tile the time axis contiguously.
        assert chunks[0].t_begin == 0.0
        for previous, current in zip(chunks, chunks[1:]):
            assert current.t_begin == pytest.approx(previous.t_end)
        total = sum(segment.duration for segment in segments)
        assert chunks[-1].t_end == pytest.approx(total)

    def test_until_time_bounds_compilation(self):
        compiler = SegmentStreamCompiler(TruncatedUniversalSearch(4).segments())
        chunk = compiler.next_chunk(max_segments=10_000, until_time=5.0)
        assert chunk.t_end >= 5.0
        # It must not have eaten the whole stream to answer a 5s window.
        assert not compiler.exhausted

    def test_final_position_of_finite_stream(self):
        compiler = SegmentStreamCompiler(iter([LinearMotion(Vec2(0, 0), Vec2(3, 4), 5.0)]))
        assert compiler.next_chunk() is not None
        assert compiler.next_chunk() is None
        final = compiler.final_position()
        assert (final.x, final.y) == (3.0, 4.0)


def _masked_local_positions(compiled, indices, local_times):
    """``CompiledTrajectory.local_positions`` before the row gather split."""
    local = np.clip(local_times, 0.0, compiled.durations[indices])
    ax = compiled.ax[indices]
    ay = compiled.ay[indices]
    x = ax + compiled.bx[indices] * local
    y = ay + compiled.by[indices] * local
    arc = compiled.kinds[indices] == KIND_ARC
    if np.any(arc):
        angle = compiled.theta0[indices[arc]] + compiled.omega[indices[arc]] * local[arc]
        r = compiled.radius[indices[arc]]
        x[arc] = ax[arc] + r * np.cos(angle)
        y[arc] = ay[arc] + r * np.sin(angle)
    return x, y


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestSegmentRows:
    """Gathered rows evaluate bit for bit like the masked per-kind formula."""

    @pytest.fixture
    def compiled(self):
        return SearchRound(2).local_trajectory().compile()

    @pytest.mark.parametrize("selection", ["mixed", "arcs", "no-arcs"])
    def test_local_positions_are_bit_identical(self, compiled, selection):
        rng = np.random.default_rng(3)
        pool = {
            "mixed": np.arange(len(compiled)),
            "arcs": np.flatnonzero(compiled.kinds == KIND_ARC),
            "no-arcs": np.flatnonzero(compiled.kinds != KIND_ARC),
        }[selection]
        indices = rng.choice(pool, 400)
        # Clamped on both sides as well as inside each segment.
        local = rng.uniform(-0.5, 1.5, 400) * compiled.durations[indices]
        arcs = compiled.rows(indices).arcs
        if selection == "mixed":
            assert isinstance(arcs, np.ndarray) and arcs.any() and not arcs.all()
        else:
            assert arcs is {"arcs": True, "no-arcs": None}[selection]
        for got, want in zip(
            compiled.local_positions(indices, local),
            _masked_local_positions(compiled, indices, local),
        ):
            assert _same_bits(got, want)

    def test_concatenated_rows_evaluate_like_each_part(self, compiled):
        rng = np.random.default_rng(4)
        other = SearchRound(1).local_trajectory().compile()
        first = rng.choice(np.flatnonzero(compiled.kinds == KIND_ARC), 30)
        second = rng.integers(len(other), size=30)
        both = SegmentRows.concat(compiled.rows(first), other.rows(second))
        columns = rng.integers(30, size=90)
        times = rng.uniform(0.0, other.t_end, 90)
        rows = both.take(np.concatenate((columns, columns + 30)))
        x, y = rows.local_positions(np.concatenate((times, times)) - rows.start_times)
        for part, (chunk, indices) in enumerate(((compiled, first), (other, second))):
            picked = indices[columns]
            want_x, want_y = _masked_local_positions(
                chunk, picked, times - chunk.start_times[picked]
            )
            assert _same_bits(x[90 * part : 90 * (part + 1)], want_x)
            assert _same_bits(y[90 * part : 90 * (part + 1)], want_y)
