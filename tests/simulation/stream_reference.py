"""The other robot's trajectory compiled per solve, kept as the parity reference.

This is how ``repro.simulation.kernel._ChunkSource`` served every frame
but the identity before it mapped the cached local arrays: the
algorithm's segments are regenerated, mapped one at a time by
``transform_segment`` and lowered by a ``SegmentStreamCompiler``, in
chunks of 32 segments, then four times more per chunk up to
``chunk_segments``.  The shipped source must hand out byte-identical
chunks under the same ``until_time`` cuts and park a finite stream at
the same final position.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.algorithms.base import MobilityAlgorithm
from repro.errors import TrajectoryError
from repro.geometry import Vec2
from repro.motion import (
    CompiledTrajectory,
    MotionSegment,
    SegmentStreamCompiler,
    transform_segments,
)
from repro.motion.compiled import FLOAT_FIELDS
from repro.robots import Robot


class ObjectPathSource:
    """``_ChunkSource``'s interface, served by the object path."""

    def __init__(self, algorithm: MobilityAlgorithm, robot: Robot, chunk_segments: int) -> None:
        self._compiler = SegmentStreamCompiler(
            self._remember_last(transform_segments(algorithm.segments(), robot.frame))
        )
        self._last: Optional[MotionSegment] = None
        self._chunk_segments = chunk_segments
        self._next_size = min(32, chunk_segments)
        self._covered = 0.0

    @property
    def covered(self) -> float:
        return self._covered

    def _remember_last(self, segments: Iterator[MotionSegment]) -> Iterator[MotionSegment]:
        for segment in segments:
            self._last = segment
            yield segment

    def final_position(self) -> Vec2:
        """Where the last world segment ends, as the segment object says."""
        if self._last is None:
            raise TrajectoryError("the segment stream produced no segments yet")
        return self._last.end

    def next_chunk(self, until_time: Optional[float] = None) -> Optional[CompiledTrajectory]:
        compiled = self._compiler.next_chunk(max_segments=self._next_size, until_time=until_time)
        self._next_size = min(self._next_size * 4, self._chunk_segments)
        if compiled is not None:
            self._covered = compiled.t_end
        return compiled


def assert_same_bytes(chunk: CompiledTrajectory, expected: CompiledTrajectory) -> None:
    """Equal kinds and float columns, compared as raw bytes (signed zeros too)."""
    assert chunk.kinds.tobytes() == expected.kinds.tobytes()
    for name in FLOAT_FIELDS:
        assert getattr(chunk, name).tobytes() == getattr(expected, name).tobytes(), name


def same_point(a: Vec2, b: Vec2) -> bool:
    """Bitwise equality of two points."""
    return [float(v).hex() for v in a] == [float(v).hex() for v in b]
