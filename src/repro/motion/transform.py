"""Mapping local-frame motion segments to world-frame motion.

The attribute map of Lemma 4 is a *similarity* of the plane (rotation,
optional reflection, uniform scaling) combined with a uniform time dilation
(the asymmetric clock).  Similarities map straight lines to straight lines
and circles to circles, so a local-frame :class:`LinearMotion`,
:class:`ArcMotion` or :class:`WaitMotion` maps to a world-frame segment of
the *same kind* -- the world trajectory stays exactly representable, which
keeps the whole simulation closed-form.

This module implements that mapping twice, with bit-identical results:
one segment at a time (:func:`transform_segment`), which also works for
the lazy/unbounded trajectories of Algorithms 4 and 7, and for compiled
chunks as whole arrays (:func:`transform_compiled`), which is how the
vectorized kernel turns the cached local trajectory into the other
robot's world trajectory.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from ..errors import InvalidParameterError, TrajectoryError
from ..geometry import ReferenceFrame, Vec2
from .arc import ArcMotion
from .compiled import KIND_ARC, KIND_LINEAR, CompiledTrajectory
from .lazy import LazyTrajectory
from .linear import LinearMotion
from .segment import MotionSegment
from .trajectory import Trajectory
from .wait import WaitMotion

__all__ = [
    "is_identity_frame",
    "transform_compiled",
    "transform_segment",
    "transform_segments",
    "transform_trajectory",
    "lazy_world_trajectory",
]


def transform_segment(segment: MotionSegment, frame: ReferenceFrame) -> MotionSegment:
    """Map one local-frame segment into the world frame of ``frame``.

    Durations are multiplied by the frame's time unit; positions go through
    the frame's similarity map.  The segment kind is preserved.
    """
    duration = segment.duration * frame.time_unit
    if isinstance(segment, WaitMotion):
        return WaitMotion(frame.to_world_point(segment.start), duration)
    if isinstance(segment, LinearMotion):
        return LinearMotion(
            frame.to_world_point(segment.start),
            frame.to_world_point(segment.end),
            duration,
        )
    if isinstance(segment, ArcMotion):
        return _transform_arc(segment, frame, duration)
    raise TrajectoryError(f"unknown segment type {type(segment).__name__!r}")


def _transform_arc(segment: ArcMotion, frame: ReferenceFrame, duration: float) -> ArcMotion:
    center = frame.to_world_point(segment.center)
    radius = segment.radius * frame.distance_unit
    # The start angle rotates with the frame; a mirrored frame (chirality
    # -1) flips both the start angle and the sweep direction.
    if frame.chirality == 1:
        start_angle = segment.start_angle + frame.orientation
        sweep = segment.sweep
    else:
        start_angle = -segment.start_angle + frame.orientation
        sweep = -segment.sweep
    world_arc = ArcMotion(center, radius, start_angle, sweep, duration)
    # Defensive check: the similarity must map endpoints consistently.
    expected_start = frame.to_world_point(segment.start)
    if world_arc.start.distance_to(expected_start) > 1e-6 * max(1.0, radius):
        raise TrajectoryError("arc transform produced an inconsistent start point")
    return world_arc


def transform_compiled(
    local: CompiledTrajectory, frame: ReferenceFrame, start_time: float
) -> CompiledTrajectory:
    """Map compiled local segments into the world frame of ``frame``.

    The array form of :func:`transform_segment`: every column equals, bit
    for bit, what compiling the mapped segments would give
    (``CompiledTrajectory.from_segments(mapped, start_time)``), because
    each value is computed by the same IEEE operations in the same order.
    Points go through ``origin + M p``; durations are scaled by the time
    unit and accumulated from ``start_time`` one segment at a time; linear
    velocities and speeds come from the mapped end points (lengths by
    ``math.hypot``, as ``Vec2.distance_to`` computes them); angular rates
    come from the mapped sweep.  Columns a kind does not use stay zero.
    The object path's checks remain: a positive length needs a positive
    duration, and a mapped arc must start where its start point maps to.
    """
    n = len(local)
    kinds = local.kinds
    linear = kinds == KIND_LINEAR
    arc = kinds == KIND_ARC
    durations = local.durations * frame.time_unit
    # Sequential accumulation from the chunk start, as the compiler sums
    # segment durations; start + cumsum(durations) rounds differently.
    start_times = np.add.accumulate(np.concatenate(([start_time], durations)))[:n]
    matrix = frame.spatial_map
    ox, oy = frame.origin.x, frame.origin.y

    def to_world(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ox + (matrix.a * x + matrix.b * y), oy + (matrix.c * x + matrix.d * y)

    # Anchors (wait position, linear start, arc center) and linear end
    # points in one pass.
    x, y = to_world(np.concatenate((local.ax, local.ex)), np.concatenate((local.ay, local.ey)))
    ax, ay = x[:n], y[:n]
    ex, ey = np.where(linear, x[n:], 0.0), np.where(linear, y[n:], 0.0)
    dx, dy = np.where(linear, x[n:] - ax, 0.0), np.where(linear, y[n:] - ay, 0.0)
    radius = local.radius * frame.distance_unit
    # The start angle rotates with the frame; a mirrored frame flips both
    # the start angle and the sweep direction.
    flip = frame.chirality == -1
    theta0 = np.where(arc, (-local.theta0 if flip else local.theta0) + frame.orientation, 0.0)
    sweep = np.where(arc, -local.sweep if flip else local.sweep, 0.0)
    lengths = np.where(
        arc,
        radius * np.abs(sweep),
        np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, n),
    )
    moving = durations > 0.0
    if not moving.all():
        stuck = np.flatnonzero(~moving & (lengths > 0.0))
        if stuck.size:
            what = "an arc" if kinds[stuck[0]] == KIND_ARC else "a linear motion"
            raise InvalidParameterError(
                f"{what} covering a positive distance needs a positive duration"
            )

    # Defensive check, per arc: the world arc must start where the local
    # start point maps to (rows of other kinds have radius zero and pass).
    cos = np.cos(np.concatenate((local.theta0, theta0)))
    sin = np.sin(np.concatenate((local.theta0, theta0)))
    start_x, start_y = to_world(local.ax + local.radius * cos[:n], local.ay + local.radius * sin[:n])
    drift = np.hypot(ax + radius * cos[n:] - start_x, ay + radius * sin[n:] - start_y)
    if (drift > 1e-6 * np.maximum(1.0, radius)).any():
        raise TrajectoryError("arc transform produced an inconsistent start point")

    def per_time(values: np.ndarray) -> np.ndarray:
        return np.divide(values, durations, out=np.zeros(n), where=moving)

    return CompiledTrajectory(
        kinds,
        start_times,
        durations,
        per_time(lengths),
        ax,
        ay,
        per_time(dx),
        per_time(dy),
        radius,
        theta0,
        per_time(sweep),
        ex,
        ey,
        sweep,
    )


def is_identity_frame(frame: ReferenceFrame) -> bool:
    """True when the frame transform is *bitwise* the identity.

    Only exact equality counts: multiplying through a matrix that is
    merely close to the identity would perturb every coordinate by an
    ulp, whereas skipping the map entirely is exact.  The reference robot
    R of every canonical instance has exactly this frame, which is what
    lets the vectorized kernel share one compiled trajectory across a
    whole batch.
    """
    return (
        frame.origin.x == 0.0
        and frame.origin.y == 0.0
        and frame.speed == 1.0
        and frame.time_unit == 1.0
        and frame.orientation == 0.0
        and frame.chirality == 1
    )


def transform_segments(
    segments: Iterable[MotionSegment], frame: ReferenceFrame
) -> Iterator[MotionSegment]:
    """Lazily map a stream of local segments into the world frame.

    The reference robot's frame (the common case for every search batch)
    is the exact identity, so its segments pass through untouched.
    """
    if is_identity_frame(frame):
        yield from segments
        return
    for segment in segments:
        yield transform_segment(segment, frame)


def transform_trajectory(trajectory: Trajectory, frame: ReferenceFrame) -> Trajectory:
    """Map a finite local trajectory into the world frame."""
    return Trajectory([transform_segment(segment, frame) for segment in trajectory])


def lazy_world_trajectory(
    segments: Iterable[MotionSegment], frame: ReferenceFrame
) -> LazyTrajectory:
    """Wrap a (possibly infinite) local segment stream as a world trajectory."""
    return LazyTrajectory(transform_segments(segments, frame))
