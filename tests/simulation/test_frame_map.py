"""The other robot's chunks are the cached local arrays, mapped exactly.

By Lemma 4 the other robot follows the reference robot's local segment
stream through one similarity and one time dilation, so
``_ChunkSource`` serves every frame but the identity by mapping slices
of the cached local chunks (``transform_compiled``).  Each chunk it hands
out must equal, byte for byte on every column, the chunk the object path
compiles per solve under the same schedule and ``until_time`` cuts
(``stream_reference``), and a finite stream must park the robot at the
same final position.  Then fingerprints, ``segments_processed`` and
``gap_evaluations`` cannot move.  The end-to-end comparisons run both
paths in this process, because numpy's SIMD ``cos``/``sin`` may round
differently on other hardware.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from stream_reference import ObjectPathSource, assert_same_bytes, same_point

from repro.algorithms import UniversalSearch, WaitAndSearchRendezvous
from repro.algorithms.base import FiniteMobilityAlgorithm
from repro.api import RendezvousProblem, VectorizedBackend
from repro.api import vectorized as vectorized_backend
from repro.errors import InvalidParameterError, TrajectoryError
from repro.geometry import ORIGIN, ReferenceFrame, Vec2, rotation
from repro.motion import LinearMotion, TrajectoryBuilder, transform_segment
from repro.motion.transform import transform_compiled
from repro.robots import Robot, RobotAttributes
from repro.simulation import kernel
from repro.simulation.kernel import _CACHED_CHUNK_SEGMENTS, _ChunkSource


class EndsOnArc(FiniteMobilityAlgorithm):
    """Spokes, partial arcs of both senses and waits; the last segment is an arc."""

    name = "ends-on-arc"

    def __init__(self, spokes: int) -> None:
        self.spokes = spokes

    def segments(self):
        builder = TrajectoryBuilder()
        for k in range(1, self.spokes + 1):
            builder.move_to(Vec2.polar(0.05 * k, 0.7 * k))
            builder.arc_around(ORIGIN, 0.9 if k % 2 else -1.3)
            if k % 3 == 0:
                builder.wait(0.5)
        builder.arc_around(ORIGIN, 2.5)
        yield from builder.drain()


class ZeroWorldDuration(FiniteMobilityAlgorithm):
    """A move so short that a time unit below 1 rounds its duration to zero."""

    name = "zero-world-duration"

    def segments(self):
        yield LinearMotion(ORIGIN, Vec2(1.0, 0.0), 5e-324)


class SkewedFrame(ReferenceFrame):
    """Orientation 0, but points rotate by 0.5 rad: an inconsistent map."""

    @property
    def spatial_map(self):
        return rotation(0.5)


ALGORITHMS = {
    "universal": UniversalSearch(),
    "algorithm-7": WaitAndSearchRendezvous(),
}

speeds = st.one_of(st.floats(0.25, 0.99), st.floats(1.01, 3.0))
time_units = st.one_of(st.just(1.0), st.floats(0.3, 3.0))
attributes = st.builds(
    RobotAttributes,
    speed=speeds,
    time_unit=time_units,
    orientation=st.floats(0.0, 2.0 * math.pi),
    chirality=st.sampled_from([1, -1]),
)
starts = st.builds(Vec2, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
#: Per chunk: no cut, or a cut at ``covered + fraction * 300`` world time.
cuts = st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=1, max_size=7)


def _algorithm(name: str, spokes: int):
    return EndsOnArc(spokes) if name == "ends-on-arc" else ALGORITHMS[name]


def _drain_in_step(source, reference, fractions):
    """Hand out chunks from both sources under the same cuts; compare each.

    Returns True once both streams have ended.
    """
    for fraction in fractions:
        until = None if fraction is None else reference.covered + 300.0 * fraction
        expected = reference.next_chunk(until)
        chunk = source.next_chunk(until)
        if expected is None:
            assert chunk is None
            return True
        assert_same_bytes(chunk, expected)
        assert source.covered == reference.covered
    return False


class TestChunksMatchTheObjectPath:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.sampled_from(["universal", "algorithm-7", "ends-on-arc"]),
        st.integers(1, 300),
        attributes,
        starts,
        cuts,
    )
    def test_random_frames_and_cuts(self, name, spokes, attrs, start, fractions):
        robot = Robot(name="R'", start=start, attributes=attrs)
        algorithm = _algorithm(name, spokes)
        source = _ChunkSource(algorithm, robot, _CACHED_CHUNK_SEGMENTS)
        reference = ObjectPathSource(algorithm, robot, _CACHED_CHUNK_SEGMENTS)
        ended = _drain_in_step(source, reference, fractions)
        if name == "ends-on-arc":
            assert ended or _drain_in_step(source, reference, [None] * 8)
            assert same_point(source.final_position(), reference.final_position())

    @pytest.mark.parametrize("name", ["universal", "algorithm-7"])
    @pytest.mark.parametrize("chirality", [1, -1])
    def test_schedule_crosses_cached_chunk_boundaries(self, name, chirality):
        # 32, 128 and then 512-segment chunks: the third covers segments
        # 160..671, across the cache's first 512-segment boundary.
        attrs = RobotAttributes(speed=0.7, time_unit=1.6, orientation=2.2, chirality=chirality)
        robot = Robot(name="R'", start=Vec2(1.1, -0.4), attributes=attrs)
        algorithm = ALGORITHMS[name]
        source = _ChunkSource(algorithm, robot, _CACHED_CHUNK_SEGMENTS)
        reference = ObjectPathSource(algorithm, robot, _CACHED_CHUNK_SEGMENTS)
        sizes = []
        for _ in range(5):
            chunk, expected = source.next_chunk(), reference.next_chunk()
            assert_same_bytes(chunk, expected)
            sizes.append(len(chunk))
        assert sizes == [32, 128, 512, 512, 512]

    def test_until_time_cuts_inside_a_chunk(self):
        attrs = RobotAttributes(speed=1.4, time_unit=0.45, chirality=-1)
        robot = Robot(name="R'", start=Vec2(-0.8, 0.9), attributes=attrs)
        source = _ChunkSource(UniversalSearch(), robot, _CACHED_CHUNK_SEGMENTS)
        reference = ObjectPathSource(UniversalSearch(), robot, _CACHED_CHUNK_SEGMENTS)
        first = source.next_chunk(until_time=1.0)
        assert_same_bytes(first, reference.next_chunk(until_time=1.0))
        assert 1 < len(first) < 32 and first.t_end >= 1.0
        assert first.start_times[-1] < 1.0

    @pytest.mark.parametrize("segments", [1, 5, 31])
    def test_until_time_on_a_segment_end_stops_there(self, segments):
        attrs = RobotAttributes(speed=0.8, time_unit=1.3, orientation=0.4)
        robot = Robot(name="R'", start=Vec2(1.5, 0.0), attributes=attrs)
        uncut = ObjectPathSource(UniversalSearch(), robot, _CACHED_CHUNK_SEGMENTS).next_chunk()
        until = float(uncut.start_times[segments])
        source = _ChunkSource(UniversalSearch(), robot, _CACHED_CHUNK_SEGMENTS)
        reference = ObjectPathSource(UniversalSearch(), robot, _CACHED_CHUNK_SEGMENTS)
        chunk = source.next_chunk(until_time=until)
        assert_same_bytes(chunk, reference.next_chunk(until_time=until))
        assert len(chunk) == segments and chunk.t_end == until

    def test_arc_ending_stream_parks_where_the_last_arc_ends(self):
        # The end of the last world arc, center + r (cos, sin)(theta0 +
        # sweep): for a few of these time units theta0 + omega * duration
        # (or mapping the local end point) rounds differently.
        algorithm = EndsOnArc(200)
        last = list(algorithm.segments())[-1]
        for step in range(40):
            attrs = RobotAttributes(
                speed=1.3, time_unit=0.3 + 0.07 * step, orientation=1.0, chirality=-1
            )
            robot = Robot(name="R'", start=Vec2(0.3, 2.0), attributes=attrs)
            source = _ChunkSource(algorithm, robot, _CACHED_CHUNK_SEGMENTS)
            while source.next_chunk() is not None:
                pass
            end = transform_segment(last, robot.frame).end
            assert same_point(source.final_position(), end), attrs


class TestTheObjectPathChecksRemain:
    def test_zero_world_duration_with_positive_length_is_rejected(self):
        robot = Robot(name="R'", start=Vec2(1.0, 1.0), attributes=RobotAttributes(time_unit=0.3))
        with pytest.raises(InvalidParameterError, match="linear motion"):
            ObjectPathSource(ZeroWorldDuration(), robot, 32).next_chunk()
        with pytest.raises(InvalidParameterError, match="linear motion"):
            _ChunkSource(ZeroWorldDuration(), robot, 32).next_chunk()

    def test_inconsistent_arc_start_is_rejected(self):
        # A frame whose matrix rotates by a different angle than its
        # orientation: the mapped arc cannot start where its start maps to.
        skewed = SkewedFrame(origin=Vec2(0.5, 0.5))
        local = EndsOnArc(3).local_trajectory()
        arc = next(segment for segment in local if hasattr(segment, "sweep"))
        with pytest.raises(TrajectoryError, match="inconsistent start"):
            transform_segment(arc, skewed)
        with pytest.raises(TrajectoryError, match="inconsistent start"):
            transform_compiled(local.compile(), skewed, 0.0)


# -- end to end: solves with the object path patched in --------------------------------


def _rendezvous_specs(count):
    """Cold rendezvous: mirrored or not, speeds on both sides of 1, some tau != 1."""
    rng = np.random.default_rng(4242)
    specs = []
    for index in range(count):
        slow = index % 2 == 0
        speed = float(rng.uniform(0.3, 0.85) if slow else rng.uniform(1.15, 2.0))
        specs.append(
            RendezvousProblem(
                visibility=float(rng.uniform(0.3, 0.45)),
                distance=float(rng.uniform(0.8, 2.0)),
                bearing=float(rng.uniform(0.0, 2.0 * math.pi)),
                speed=1.0 if index % 3 == 0 else speed,
                time_unit=1.0 if index % 3 == 1 else float(rng.uniform(0.3, 3.0)),
                orientation=float(rng.uniform(0.0, 2.0 * math.pi)),
                chirality=-1 if index % 4 < 2 else 1,
                horizon=2e4,
            )
        )
    return specs


def _solve_recording(monkeypatch, specs):
    """Fingerprints and the kernel's own outcomes for one pass over ``specs``."""
    outcomes = []
    solve = vectorized_backend.kernel_simulate_rendezvous

    def recorded(*args, **kwargs):
        outcome = solve(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(vectorized_backend, "kernel_simulate_rendezvous", recorded)
    backend = VectorizedBackend()
    fingerprints = [backend.solve(spec).fingerprint() for spec in specs]
    monkeypatch.undo()
    return fingerprints, outcomes


class TestSolvesAreBitIdentical:
    def test_cold_rendezvous_match_the_object_path(self, monkeypatch):
        specs = _rendezvous_specs(120)
        fingerprints, outcomes = _solve_recording(monkeypatch, specs)

        mapped = []

        def object_path(algorithm, robot, chunk_segments):
            source = _ChunkSource(algorithm, robot, chunk_segments)
            if not source._mapped:
                return source
            mapped.append(robot)
            return ObjectPathSource(algorithm, robot, chunk_segments)

        monkeypatch.setattr(kernel, "_ChunkSource", object_path)
        ref_fingerprints, ref_outcomes = _solve_recording(monkeypatch, specs)
        assert len(mapped) == len(specs), "every solve maps the other robot"
        assert {robot.attributes.chirality for robot in mapped} == {1, -1}
        assert any(robot.attributes.time_unit != 1.0 for robot in mapped)
        assert len(outcomes) == len(specs) and all(outcome.solved for outcome in outcomes)
        assert repr(outcomes) == repr(ref_outcomes)
        assert fingerprints == ref_fingerprints
