"""Compiled trajectories: structure-of-arrays views of motion prefixes.

The scalar simulator walks rich :class:`~repro.motion.segment.MotionSegment`
objects one at a time, which is exact but costs a Python dispatch per
segment per instance.  A :class:`CompiledTrajectory` lowers a finite
trajectory prefix into flat numpy arrays -- one row per segment, one column
per parameter -- so that the vectorized simulation kernel can evaluate
*whole batches* of positions and first-crossing tests with array
arithmetic.  Three segment kinds exist, mirroring the three motion
primitives:

* ``KIND_WAIT``   -- anchored at ``(ax, ay)``;
* ``KIND_LINEAR`` -- start ``(ax, ay)``, constant velocity ``(bx, by)``
  and end point ``(ex, ey)``;
* ``KIND_ARC``    -- center ``(ax, ay)``, ``radius``, start angle
  ``theta0``, angular rate ``omega`` (``sweep / duration``) and ``sweep``.

All kinds share ``start_times`` (global), ``durations`` and ``speeds``.
Evaluation reads only the first ten columns; the end point and the sweep
are what an exact frame map needs (the world velocity and angular rate
are recomputed from them, :func:`repro.motion.transform.transform_compiled`).
Positions computed here match the scalar ``segment.position`` closed forms
to floating-point noise: the compiler stores the same parameters the
scalar primitives use, it does not resample or approximate.

``Trajectory.compile()`` and ``LazyTrajectory.compile(up_to)`` are the
user-facing entry points; :class:`SegmentStreamCompiler` incrementally
compiles an unbounded segment stream into bounded chunks, which is what
the kernel uses for the (infinite) search algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

try:  # the clip ufunc itself: np.clip's wrapper triples the per-call cost
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from ..errors import InvalidParameterError, TrajectoryError
from ..geometry import Vec2
from .arc import ArcMotion
from .linear import LinearMotion
from .segment import MotionSegment
from .wait import WaitMotion

__all__ = [
    "KIND_WAIT",
    "KIND_LINEAR",
    "KIND_ARC",
    "EVAL_FIELDS",
    "FLOAT_FIELDS",
    "CompiledTrajectory",
    "SegmentRows",
    "SegmentStreamCompiler",
    "compile_segments",
]

#: Segment-kind codes stored in :attr:`CompiledTrajectory.kinds`.
KIND_WAIT: int = 0
KIND_LINEAR: int = 1
KIND_ARC: int = 2

#: The float64 columns evaluation reads, in :class:`SegmentRows` table
#: order.
EVAL_FIELDS: tuple[str, ...] = (
    "start_times",
    "durations",
    "speeds",
    "ax",
    "ay",
    "bx",
    "by",
    "radius",
    "theta0",
    "omega",
)

#: The float64 arrays of a :class:`CompiledTrajectory`: the evaluation
#: columns, then the linear end point and the arc sweep.  The order is
#: the dataclass field order after ``kinds``, because
#: :meth:`CompiledTrajectory.section` and :meth:`CompiledTrajectory.concat`
#: pass the columns positionally.
FLOAT_FIELDS: tuple[str, ...] = EVAL_FIELDS + ("ex", "ey", "sweep")


@dataclass(frozen=True)
class CompiledTrajectory:
    """A finite trajectory prefix as structure-of-arrays numpy data.

    Attributes:
        kinds: ``(n,)`` int8 segment kinds (``KIND_*`` codes).
        start_times: ``(n,)`` global start time of each segment (sorted).
        durations: ``(n,)`` segment durations.
        speeds: ``(n,)`` constant segment speeds.
        ax, ay: anchor point -- wait position, linear start, or arc center.
        bx, by: linear velocity components (zero for waits and arcs).
        radius, theta0, omega: arc parameters (zero for other kinds).
        ex, ey: linear end point (zero for waits and arcs).
        sweep: signed arc sweep (zero for other kinds).
    """

    kinds: np.ndarray
    start_times: np.ndarray
    durations: np.ndarray
    speeds: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    radius: np.ndarray
    theta0: np.ndarray
    omega: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    sweep: np.ndarray

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def segment_count(self) -> int:
        """Number of compiled segments."""
        return len(self)

    @property
    def t_begin(self) -> float:
        """Global time at which the compiled prefix starts."""
        return float(self.start_times[0])

    @property
    def t_end(self) -> float:
        """Global time up to which the compiled prefix covers the motion."""
        return float(self.start_times[-1] + self.durations[-1])

    @property
    def end_times(self) -> np.ndarray:
        """Global end time of each segment."""
        return self.start_times + self.durations

    def end_position(self) -> Vec2:
        """End point of the last segment, exactly as its ``segment.end``."""
        i = len(self) - 1
        kind = self.kinds[i]
        if kind == KIND_LINEAR:
            return Vec2(float(self.ex[i]), float(self.ey[i]))
        center = Vec2(float(self.ax[i]), float(self.ay[i]))
        if kind == KIND_ARC:
            angle = float(self.theta0[i]) + float(self.sweep[i])
            return center + Vec2.polar(float(self.radius[i]), angle)
        return center

    def section(self, begin: int, end: int) -> "CompiledTrajectory":
        """Segments ``begin .. end - 1`` as views of this chunk's arrays."""
        return CompiledTrajectory(
            self.kinds[begin:end], *(getattr(self, name)[begin:end] for name in FLOAT_FIELDS)
        )

    @classmethod
    def concat(cls, parts: Sequence["CompiledTrajectory"]) -> "CompiledTrajectory":
        """The segments of ``parts`` in order, as one chunk."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([part.kinds for part in parts]),
            *(np.concatenate([getattr(part, name) for part in parts]) for name in FLOAT_FIELDS),
        )

    # -- evaluation ---------------------------------------------------------
    def segment_indices(self, times: np.ndarray) -> np.ndarray:
        """Index of the segment active at each global time (clamped)."""
        indices = np.searchsorted(self.start_times, times, side="right") - 1
        return _clip(indices, 0, len(self) - 1)

    def rows(self, indices: np.ndarray) -> "SegmentRows":
        """The indexed segments' parameters, gathered for evaluation."""
        table = np.array([getattr(self, name)[indices] for name in EVAL_FIELDS])
        arc = self.kinds[indices] == KIND_ARC
        arcs = np.count_nonzero(arc)
        return SegmentRows(table, None if arcs == 0 else True if arcs == arc.size else arc)

    def local_positions(
        self, indices: np.ndarray, local_times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions on the indexed segments at segment-local times.

        Local times are clamped into each segment's ``[0, duration]``
        domain, mirroring the scalar segments' clamping behaviour.
        """
        return self.rows(indices).local_positions(local_times)

    def positions_at(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World positions at an array of global times.

        Times outside the covered span are clamped to the span's ends
        (before the first segment / after the last one the motion idles at
        the respective endpoint).
        """
        times = np.asarray(times, dtype=float)
        indices = self.segment_indices(times)
        return self.local_positions(indices, times - self.start_times[indices])

    def position_at(self, time: float) -> Vec2:
        """World position at one global time (scalar convenience)."""
        x, y = self.positions_at(np.array([float(time)]))
        return Vec2(float(x[0]), float(y[0]))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_segments(
        cls, segments: Sequence[MotionSegment], start_time: float = 0.0
    ) -> "CompiledTrajectory":
        """Lower a sequence of segments starting at ``start_time``."""
        if not segments:
            raise TrajectoryError("cannot compile an empty segment sequence")
        n = len(segments)
        kinds = np.zeros(n, dtype=np.int8)
        start_times = np.zeros(n, dtype=float)
        durations = np.zeros(n, dtype=float)
        speeds = np.zeros(n, dtype=float)
        ax = np.zeros(n, dtype=float)
        ay = np.zeros(n, dtype=float)
        bx = np.zeros(n, dtype=float)
        by = np.zeros(n, dtype=float)
        radius = np.zeros(n, dtype=float)
        theta0 = np.zeros(n, dtype=float)
        omega = np.zeros(n, dtype=float)
        ex = np.zeros(n, dtype=float)
        ey = np.zeros(n, dtype=float)
        sweep = np.zeros(n, dtype=float)

        # Private-slot access instead of the public properties: this loop
        # runs once per segment of every compiled chunk, and the property
        # indirection was a measurable share of batch solve time.
        elapsed = float(start_time)
        for i, segment in enumerate(segments):
            start_times[i] = elapsed
            if isinstance(segment, LinearMotion):
                duration = segment._duration
                kinds[i] = KIND_LINEAR
                speeds[i] = segment._speed
                start = segment._start
                end = segment._end
                ax[i], ay[i] = start.x, start.y
                ex[i], ey[i] = end.x, end.y
                if duration > 0.0:
                    bx[i] = (end.x - start.x) / duration
                    by[i] = (end.y - start.y) / duration
            elif isinstance(segment, ArcMotion):
                duration = segment._duration
                kinds[i] = KIND_ARC
                speeds[i] = segment._speed
                center = segment._center
                ax[i], ay[i] = center.x, center.y
                radius[i] = segment._radius
                theta0[i] = segment._start_angle
                sweep[i] = segment._sweep
                if duration > 0.0:
                    omega[i] = segment._sweep / duration
            elif isinstance(segment, WaitMotion):
                duration = segment._duration
                kinds[i] = KIND_WAIT
                position = segment._position
                ax[i], ay[i] = position.x, position.y
            else:
                raise TrajectoryError(
                    f"cannot compile segment type {type(segment).__name__!r}"
                )
            durations[i] = duration
            elapsed += duration
        return cls(
            kinds=kinds,
            start_times=start_times,
            durations=durations,
            speeds=speeds,
            ax=ax,
            ay=ay,
            bx=bx,
            by=by,
            radius=radius,
            theta0=theta0,
            omega=omega,
            ex=ex,
            ey=ey,
            sweep=sweep,
        )


class SegmentRows:
    """Parameters of selected segments, gathered once for many evaluations.

    ``table`` has one row per field of ``EVAL_FIELDS`` and one column
    per selected segment.  ``arcs`` is None when no selected segment is an
    arc, True when all of them are, and the per-column arc mask
    otherwise, so evaluation never re-tests the kinds.  The kernel's
    crossing search gathers each window's segments once and evaluates
    them at every probed time; :meth:`CompiledTrajectory.local_positions`
    is the same gather followed by the same evaluation.
    """

    __slots__ = ("table", "arcs")

    def __init__(self, table: np.ndarray, arcs: "Optional[np.ndarray | bool]") -> None:
        self.table = table
        self.arcs = arcs

    @classmethod
    def concat(cls, first: "SegmentRows", second: "SegmentRows") -> "SegmentRows":
        """The selections of ``first`` followed by those of ``second``."""
        table = np.concatenate((first.table, second.table), axis=1)
        if first.arcs is second.arcs:  # both None or both True
            return cls(table, first.arcs)
        masks = [
            rows.arcs
            if isinstance(rows.arcs, np.ndarray)
            else np.full(rows.table.shape[1], rows.arcs is True)
            for rows in (first, second)
        ]
        return cls(table, np.concatenate(masks))

    @property
    def start_times(self) -> np.ndarray:
        """Global start time of each selected segment."""
        return self.table[0]

    def take(self, columns: np.ndarray) -> "SegmentRows":
        """The selected segments at ``columns`` (repeats allowed)."""
        arcs = self.arcs
        if arcs is not None and arcs is not True:
            arcs = arcs[columns]
        return SegmentRows(self.table[:, columns], arcs)

    def local_positions(self, local_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions at segment-local times, clamped into ``[0, duration]``."""
        _, durations, _, ax, ay, bx, by, radius, theta0, omega = self.table
        local = _clip(local_times, 0.0, durations)
        if self.arcs is not True:
            # Waits and linears: anchor + velocity * t (velocity is zero
            # for waits, so one fused expression covers both).
            x = ax + bx * local
            y = ay + by * local
            if self.arcs is None:
                return x, y
        angle = theta0 + omega * local
        arc_x = ax + radius * np.cos(angle)
        arc_y = ay + radius * np.sin(angle)
        if self.arcs is True:
            return arc_x, arc_y
        return np.where(self.arcs, arc_x, x), np.where(self.arcs, arc_y, y)


def compile_segments(
    segments: Iterable[MotionSegment], start_time: float = 0.0
) -> CompiledTrajectory:
    """Compile an iterable of segments into a :class:`CompiledTrajectory`."""
    return CompiledTrajectory.from_segments(list(segments), start_time=start_time)


class SegmentStreamCompiler:
    """Incrementally compile an unbounded segment stream into chunks.

    The search algorithms emit exponentially many segments per round, so
    compiling "up to the horizon" in one shot is infeasible.  The stream
    compiler pulls bounded chunks on demand -- the kernel processes one
    chunk across the whole instance batch, drops solved instances, and
    only then asks for the next chunk, which keeps memory bounded and
    stops compilation as soon as every instance is resolved.
    """

    __slots__ = ("_source", "_covered", "_exhausted", "_last_chunk")

    def __init__(self, segments: Iterable[MotionSegment], start_time: float = 0.0) -> None:
        self._source: Iterator[MotionSegment] = iter(segments)
        self._covered = float(start_time)
        self._exhausted = False
        self._last_chunk: Optional[CompiledTrajectory] = None

    @property
    def covered(self) -> float:
        """Global time covered by the chunks compiled so far."""
        return self._covered

    @property
    def exhausted(self) -> bool:
        """True when the underlying segment stream has ended."""
        return self._exhausted

    def final_position(self) -> Vec2:
        """End position of a finite, fully consumed stream."""
        if self._last_chunk is None:
            raise TrajectoryError("the segment stream produced no segments yet")
        return self._last_chunk.end_position()

    def next_chunk(
        self, max_segments: int = 2048, until_time: Optional[float] = None
    ) -> Optional[CompiledTrajectory]:
        """Compile the next chunk of at most ``max_segments`` segments.

        When ``until_time`` is given, the chunk also stops as soon as the
        covered time reaches it.  Returns None once the stream is
        exhausted (no further segments).
        """
        if max_segments < 1:
            raise InvalidParameterError(f"max_segments must be >= 1, got {max_segments!r}")
        if self._exhausted:
            return None
        batch: list[MotionSegment] = []
        start_time = self._covered
        while len(batch) < max_segments:
            if until_time is not None and self._covered >= until_time and batch:
                break
            try:
                segment = next(self._source)
            except StopIteration:
                self._exhausted = True
                break
            batch.append(segment)
            self._covered += segment.duration
        if not batch:
            return None
        self._last_chunk = CompiledTrajectory.from_segments(batch, start_time=start_time)
        return self._last_chunk
