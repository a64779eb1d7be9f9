"""Vectorized batch simulation kernel.

The scalar engine (:mod:`repro.simulation.engine`) answers one instance at
a time, paying a Python dispatch per segment per instance.  The kernel
answers *batches*: trajectories are lowered into
:class:`~repro.motion.compiled.CompiledTrajectory` chunks and the
first-crossing question is evaluated with array arithmetic across all
instances (search) or all elementary windows (rendezvous) at once.

The numerics deliberately mirror the scalar engine case by case:

* static and linear--linear windows use the exact quadratic closed form
  (:func:`_quadratic_first_crossing` is an array transcription of
  ``gap._first_crossing_quadratic``);
* windows involving arcs use a Lipschitz branch-and-bound that explores
  the *same dyadic interval tree* as
  :func:`~repro.simulation.closest_approach.find_first_crossing`, so the
  reported event times agree with the scalar detector to floating-point
  noise and always within the configured time tolerance.

The branch-and-bound (:func:`_lipschitz_first_crossing`) walks that tree
level by level.  While many intervals are live -- a search batch starts
with hundreds to thousands of problems -- each level is one numpy pass
over all of them (the wide head).  Once few are live, as in nearly every
pass of a rendezvous solve, numpy's per-call overhead dominates, so a
narrow tail finishes in Python floats: one ``gap_fn`` call evaluates a
few levels of each live interval's subtree, and the binary pruning is
replayed over those values level by level.  Gap values still come from
numpy and Python's float operations are the same IEEE operations, so the
visited nodes, the crossing times and the ``gap_evaluations`` counts are
exactly those of a numpy pass per level.

Chunked compilation keeps memory bounded: ``Search(k)`` emits on the
order of ``2^{2k}`` segments per round, so the kernel compiles a bounded
number of segments, resolves every instance it can, drops solved
instances from the batch and only then compiles further.

The scalar engine remains the reference implementation; the property
tests in ``tests/properties/test_kernel_parity.py`` assert agreement
within ``TIME_TOLERANCE`` on random suites.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from typing import Callable, Optional, Sequence

import numpy as np

from ..algorithms.base import MobilityAlgorithm
from ..constants import TIME_TOLERANCE
from ..errors import InvalidParameterError, TrajectoryError
from ..geometry import ORIGIN, Vec2
from ..motion import (
    KIND_ARC,
    KIND_LINEAR,
    KIND_WAIT,
    CompiledTrajectory,
    SegmentStreamCompiler,
    WaitMotion,
)
from ..motion.compiled import SegmentRows
from ..motion.transform import is_identity_frame, transform_segments
from ..robots import Robot
from .events import DetectionEvent, SimulationOutcome
from .horizon import MIN_WINDOW as _MIN_WINDOW
from .horizon import HorizonPolicy, resolve_horizon as _resolve_horizon
from .instance import RendezvousInstance, SearchInstance

__all__ = [
    "simulate_search_batch",
    "simulate_robot_pair_kernel",
    "kernel_simulate_search",
    "kernel_simulate_rendezvous",
    "kernel_cache_stats",
    "clear_compiled_cache",
]

_TWO_PI = 2.0 * math.pi

#: Fixed chunk size for cacheable compiled trajectories -- chunk
#: boundaries must not depend on the batch, or cached chunks could not be
#: shared across calls.  Small-ish chunks let easy instances drop out of
#: the batch before the per-chunk matrices grow.
_CACHED_CHUNK_SEGMENTS = 512

#: Cap on the number of segments kept per cached trajectory (the arrays
#: cost ~90 bytes per segment; the cap bounds each entry at ~25 MB).
_CACHE_SEGMENT_CAP = 1 << 18


#: Cross-process / cross-batch cache observability.  ``cache_capped``
#: counts entries whose prefix hit ``_CACHE_SEGMENT_CAP`` -- streams that
#: long keep solving through the uncached continuation path, they just
#: stop extending the shared prefix.  Reset by :func:`clear_compiled_cache`.
_STATS_LOCK = threading.Lock()
_STATS = {
    "local_compiles": 0,
    "arena_hits": 0,
    "arena_misses": 0,
    "arena_publishes": 0,
    "arena_drops": 0,
    "cache_capped": 0,
}


def _count(counter: str, amount: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[counter] += amount


def kernel_cache_stats() -> dict:
    """JSON-safe snapshot of the compiled-chunk cache and arena counters."""
    from . import arena as _arena

    with _STATS_LOCK:
        stats = dict(_STATS)
    with _CHUNK_CACHE_LOCK:
        stats["entries"] = len(_CHUNK_CACHE)
    active = _arena.active_arena()
    stats["arena_attached"] = active is not None
    stats["arena"] = active.stats() if active is not None else None
    return stats


class _CacheEntry:
    """Compiled prefix of one reference-frame trajectory, shared by key.

    The prefix has two backing tiers: this process's ``chunks`` list and,
    when a :mod:`repro.simulation.arena` is active, the cross-process
    shared-memory arena.  Extension checks the arena first (adopting
    zero-copy views another process already compiled), compiles locally
    on a miss, and publishes what it compiled -- so any trajectory is
    compiled once fleet-wide.  ``stream_done`` distinguishes a genuinely
    exhausted stream from a cap-limited prefix; adopting arena chunks
    leaves the local compiler stale (``compiler`` None), and a later
    local extension rebuilds it by skipping the covered prefix.
    """

    __slots__ = (
        "algorithm",
        "digest",
        "chunks",
        "compiler",
        "segment_total",
        "done",
        "stream_done",
        "final_pos",
        "lock",
    )

    def __init__(self, algorithm: MobilityAlgorithm, digest: bytes) -> None:
        self.algorithm = algorithm
        self.digest = digest
        self.chunks: list[CompiledTrajectory] = []
        self.compiler: Optional[SegmentStreamCompiler] = SegmentStreamCompiler(
            algorithm.segments()
        )
        self.segment_total = 0
        self.done = False  # stream exhausted or cache cap reached
        self.stream_done = False  # the underlying stream is known exhausted
        self.final_pos: Optional[Vec2] = None
        # Entries are shared across every thread solving the same
        # algorithm (the serving tier does exactly that); the compiler
        # is a stateful stream, so extending the prefix must be
        # serialised or concurrent solves read corrupted trajectories.
        self.lock = threading.Lock()

    def _mark_capped(self) -> None:
        if self.segment_total >= _CACHE_SEGMENT_CAP and not self.done:
            self.done = True
            _count("cache_capped")

    def _extend(self) -> None:
        """Grow the prefix by one chunk (arena first, then local compile)."""
        from . import arena as _arena

        shared = _arena.active_arena()
        next_index = len(self.chunks)
        if shared is not None:
            found = shared.get(self.digest, next_index)
            if found is not None:
                compiled, final, final_pos = found
                _count("arena_hits")
                if compiled is not None:
                    self.chunks.append(compiled)
                    self.segment_total += len(compiled)
                    self.compiler = None  # local stream now lags the prefix
                if final:
                    self.stream_done = True
                    self.done = True
                    if final_pos is not None:
                        self.final_pos = Vec2(final_pos[0], final_pos[1])
                else:
                    self._mark_capped()
                return
            _count("arena_misses")
        if self.compiler is None:
            # Arena-adopted chunks outpaced the local stream: regenerate
            # it and skip the prefix we already hold.
            skipped = itertools.islice(self.algorithm.segments(), self.segment_total, None)
            start = self.chunks[-1].t_end if self.chunks else 0.0
            self.compiler = SegmentStreamCompiler(skipped, start_time=start)
        compiled = self.compiler.next_chunk(max_segments=_CACHED_CHUNK_SEGMENTS)
        if compiled is None:
            self.stream_done = True
            self.done = True
            try:
                self.final_pos = self.compiler.final_position()
            except (TrajectoryError, InvalidParameterError):
                self.final_pos = None
            if self.final_pos is None and self.chunks:
                self.final_pos = self.chunks[-1].end_position()
            if shared is not None:
                pos = None
                if self.final_pos is not None:
                    pos = (self.final_pos.x, self.final_pos.y)
                if shared.publish_final(self.digest, next_index, pos):
                    _count("arena_publishes")
                else:
                    _count("arena_drops")
            return
        self.chunks.append(compiled)
        self.segment_total += len(compiled)
        _count("local_compiles")
        if shared is not None:
            if shared.publish_chunk(self.digest, next_index, compiled):
                _count("arena_publishes")
            else:
                _count("arena_drops")
        self._mark_capped()

    def chunk(self, index: int) -> Optional[CompiledTrajectory]:
        """The ``index``-th fixed-size chunk, compiling (and caching) as needed."""
        with self.lock:
            while index >= len(self.chunks) and not self.done:
                self._extend()
            if index < len(self.chunks):
                return self.chunks[index]
            return None


#: Maximum number of distinct trajectories kept compiled at once.  Each
#: entry is bounded by _CACHE_SEGMENT_CAP (~25 MB); the LRU bound keeps a
#: long-lived process that sweeps many algorithm parameterisations from
#: growing without limit.
_CACHE_ENTRY_CAP = 8

_CHUNK_CACHE: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()

#: Guards the cache mapping itself (entry creation, LRU order/eviction);
#: each entry carries its own lock for compilation.
_CHUNK_CACHE_LOCK = threading.Lock()


def clear_compiled_cache() -> None:
    """Drop every cached compiled trajectory and reset the cache counters."""
    with _CHUNK_CACHE_LOCK:
        _CHUNK_CACHE.clear()
    with _STATS_LOCK:
        for counter in _STATS:
            _STATS[counter] = 0


def _cache_key(algorithm: MobilityAlgorithm) -> tuple:
    cls = type(algorithm)
    # describe() alone is not collision-safe (its %.6g formatting merges
    # parameters differing beyond six significant digits), so the full
    # repr of the instance attributes joins the key.
    try:
        parameters = tuple(sorted((k, repr(v)) for k, v in vars(algorithm).items()))
    except TypeError:  # no __dict__ (e.g. slotted custom algorithm)
        parameters = ()
    return (cls.__module__, cls.__qualname__, algorithm.describe(), parameters)


def _cache_entry_for(algorithm: MobilityAlgorithm) -> _CacheEntry:
    key = _cache_key(algorithm)
    with _CHUNK_CACHE_LOCK:
        entry = _CHUNK_CACHE.get(key)
        if entry is None:
            from .arena import cache_digest

            entry = _CacheEntry(algorithm, cache_digest(key))
            _CHUNK_CACHE[key] = entry
        _CHUNK_CACHE.move_to_end(key)
        while len(_CHUNK_CACHE) > _CACHE_ENTRY_CAP:
            _CHUNK_CACHE.popitem(last=False)
        return entry


class _ChunkSource:
    """Sequential compiled chunks of one robot's world trajectory.

    Identity-frame trajectories (the reference robot R -- identical for
    every instance of a canonical batch) are served from the module-level
    compiled-chunk cache, so repeated batches over the same algorithm
    skip both segment generation and compilation.  Other frames compile
    on the fly.
    """

    __slots__ = (
        "_entry",
        "_compiler",
        "_index",
        "_covered",
        "_exhausted",
        "_chunk_segments",
        "_next_size",
        "_last_chunk",
    )

    def __init__(
        self,
        algorithm: MobilityAlgorithm,
        robot: Robot,
        chunk_segments: int,
        use_cache: bool = True,
    ) -> None:
        self._index = 0
        self._covered = 0.0
        self._exhausted = False
        self._chunk_segments = chunk_segments
        self._last_chunk: Optional[CompiledTrajectory] = None
        # Uncached streams compile per run, so start small and grow: most
        # pair simulations meet within a few dozen segments, and eagerly
        # compiling a full-size chunk of the other robot's trajectory was
        # the dominant cost of the pair path.
        self._next_size = min(32, chunk_segments)
        if use_cache and is_identity_frame(robot.frame):
            self._entry = _cache_entry_for(algorithm)
            self._compiler = None
        else:
            self._entry = None
            self._compiler = SegmentStreamCompiler(
                transform_segments(algorithm.segments(), robot.frame)
            )

    @property
    def covered(self) -> float:
        """Global time covered by the chunks handed out so far."""
        return self._covered

    def final_position(self) -> Vec2:
        """Final position of an exhausted finite stream."""
        if self._entry is not None:
            if self._entry.final_pos is not None:
                return self._entry.final_pos
        elif self._compiler is not None:
            try:
                return self._compiler.final_position()
            except (TrajectoryError, InvalidParameterError):
                pass
        # A cache-cap continuation that produced no further segments (the
        # stream ended exactly at the cap) still knows where the last
        # handed-out chunk stopped.
        if self._last_chunk is not None:
            return self._last_chunk.end_position()
        raise InvalidParameterError("the compiled stream has no final position")

    def next_chunk(self, until_time: Optional[float] = None) -> Optional[CompiledTrajectory]:
        """The next chunk in time order, or None once the stream ends.

        ``until_time`` only bounds how far an *uncached* stream compiles
        ahead; cached streams use fixed chunk boundaries so the cache is
        batch-independent.
        """
        if self._exhausted:
            return None
        if self._entry is not None:
            entry = self._entry
            compiled = entry.chunk(self._index)
            if compiled is None:
                if entry.stream_done:
                    self._exhausted = True
                    return None
                # Cache cap reached: compile onward without caching, by
                # regenerating the stream and skipping the cached prefix.
                skipped = itertools.islice(
                    entry.algorithm.segments(), entry.segment_total, None
                )
                self._entry = None
                self._compiler = SegmentStreamCompiler(skipped, start_time=self._covered)
                return self.next_chunk(until_time)
            self._index += 1
            self._covered = compiled.t_end
            self._last_chunk = compiled
            return compiled
        compiled = self._compiler.next_chunk(
            max_segments=self._next_size, until_time=until_time
        )
        self._next_size = min(self._next_size * 4, self._chunk_segments)
        if compiled is None:
            self._exhausted = True
            return None
        self._covered = compiled.t_end
        self._last_chunk = compiled
        return compiled


# -- batched first-crossing primitives -----------------------------------------------


def _quadratic_first_crossing(
    off_x: np.ndarray,
    off_y: np.ndarray,
    vel_x: np.ndarray,
    vel_y: np.ndarray,
    threshold: np.ndarray,
    duration: np.ndarray,
) -> np.ndarray:
    """Array version of ``gap._first_crossing_quadratic`` (NaN = no crossing).

    Earliest local ``t`` in ``[0, duration]`` with
    ``|offset + velocity t| <= threshold``, elementwise over the inputs.
    """
    a = vel_x * vel_x + vel_y * vel_y
    b = 2.0 * (off_x * vel_x + off_y * vel_y)
    c = off_x * off_x + off_y * off_y - threshold * threshold
    out = np.full(np.shape(c), np.nan)
    out = np.where(c <= 0.0, 0.0, out)
    moving = (c > 0.0) & (a > 0.0)
    discriminant = b * b - 4.0 * a * c
    ok = moving & (discriminant >= 0.0)
    sqrt_disc = np.sqrt(np.where(ok, discriminant, 0.0))
    safe_a = np.where(a > 0.0, a, 1.0)
    root_low = (-b - sqrt_disc) / (2.0 * safe_a)
    root_high = (-b + sqrt_disc) / (2.0 * safe_a)
    hit = ok & (root_high >= 0.0) & (root_low <= duration)
    return np.where(hit, np.maximum(root_low, 0.0), out)


GapFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Live intervals at or below which the crossing search leaves the numpy
#: wavefront for the Python-float tail.  Measured on a 2-core x86-64 VM:
#: a numpy pass costs ~50-70 us of call overhead however few intervals it
#: carries; a cold rendezvous solve spends ~97% of its ~33 passes at or
#: below 24 live intervals (median 5), while search batches enter with
#: 150-7,000 problems; on recorded rendezvous searches any switch point
#: from 12 to 48 measured the same within noise.
_NARROW_LIVE = 24

#: Dyadic levels the tail evaluates per ``gap_fn`` call, as
#: ``(live intervals at most, levels)``.  Deeper blocks mean fewer calls
#: but more Python work on midpoints that pruning then discards: on the
#: same recorded searches and VM, 3 or 4 levels cost ~0.8-1.0 ms per solve
#: against ~1.1 ms for 2 levels and ~2.9 ms for the binary wavefront.
_TAIL_LEVELS = ((8, 4), (_NARROW_LIVE, 3))


def _lipschitz_first_crossing(
    gap_fn: GapFunction,
    lo: np.ndarray,
    hi: np.ndarray,
    lipschitz: np.ndarray,
    threshold: np.ndarray,
    time_tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched leftmost branch-and-bound over ``n`` independent problems.

    ``gap_fn(problems, times)`` evaluates problem-specific gap functions
    at the given times.  Explores the same dyadic subdivision tree with
    the same tent-bound pruning as the scalar
    :func:`~repro.simulation.closest_approach.find_first_crossing`, so the
    earliest evaluated crossing point per problem coincides with the
    scalar result (intervals to the right of a found crossing are pruned
    early, which only skips work past the answer).

    The tree is walked level by level.  While more than ``_NARROW_LIVE``
    intervals are live, each level is one numpy pass over all of them
    (the wide head); once at most that many are, :func:`_narrow_tail`
    continues in Python floats, evaluating several levels per ``gap_fn``
    call.  Both visit the same nodes level by level and count a node
    only when they visit it, so neither the answers nor the counts
    depend on where the search switches between them.

    Returns ``(crossing times with NaN where none, per-problem gap
    evaluation counts)``.
    """
    n = int(lo.shape[0])
    counts = np.full(n, 2, dtype=np.int64)
    problems = np.arange(n)

    g_ends = gap_fn(np.concatenate((problems, problems)), np.concatenate((lo, hi)))
    g_lo, g_hi = g_ends[:n], g_ends[n:]
    best = np.fmin(
        np.where(g_lo <= threshold, lo, np.nan), np.where(g_hi <= threshold, hi, np.nan)
    )

    def _prune(
        p: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        gl: np.ndarray,
        gr: np.ndarray,
        thr: np.ndarray,
        lip: np.ndarray,
    ) -> np.ndarray:
        width = right - left
        tent = 0.5 * (gl + gr - lip * width)
        lower = np.minimum(np.minimum(gl, gr), tent)
        alive = (width > time_tolerance) & (lower <= thr)
        # An interval entirely at or right of the best known crossing
        # cannot contain an earlier one (NaN best compares False: kept).
        alive &= ~(left >= best[p])
        return alive

    thr = threshold
    lip = lipschitz
    keep = _prune(problems, lo, hi, g_lo, g_hi, thr, lip)
    p, left, right = problems[keep], lo[keep], hi[keep]
    gl, gr, thr, lip = g_lo[keep], g_hi[keep], thr[keep], lip[keep]

    # Binary bisection wavefront: every pass halves all live intervals at
    # once, exploring exactly the scalar detector's dyadic tree with the
    # same tent-bound pruning, so the earliest recorded crossing lands in
    # ``[t*, t* + time_tolerance]`` just like the scalar result.  The
    # per-interval thresholds and Lipschitz constants ride along to avoid
    # re-gathering them every pass.
    concat = np.concatenate
    while p.size:
        if p.size <= _NARROW_LIVE:
            p, left, right, gl, gr, thr, lip = _narrow_tail(
                gap_fn, (p, left, right, gl, gr, thr, lip), best, counts, time_tolerance
            )
            continue
        mid = 0.5 * (left + right)
        g_mid = gap_fn(p, mid)
        np.add.at(counts, p, 1)
        crossed = g_mid <= thr
        np.fmin.at(best, p[crossed], mid[crossed])

        child_p = concat([p, p])
        child_l = concat([left, mid])
        child_r = concat([mid, right])
        child_gl = concat([gl, g_mid])
        child_gr = concat([g_mid, gr])
        child_thr = concat([thr, thr])
        child_lip = concat([lip, lip])
        alive = _prune(child_p, child_l, child_r, child_gl, child_gr, child_thr, child_lip)
        p, left, right = child_p[alive], child_l[alive], child_r[alive]
        gl, gr = child_gl[alive], child_gr[alive]
        thr, lip = child_thr[alive], child_lip[alive]
    return best, counts


def _narrow_tail(
    gap_fn: GapFunction,
    live: tuple[np.ndarray, ...],
    best: np.ndarray,
    counts: np.ndarray,
    time_tolerance: float,
) -> tuple[np.ndarray, ...]:
    """Continue the :func:`_lipschitz_first_crossing` wavefront in Python floats.

    ``live`` holds one level's live intervals as the arrays ``(problem,
    left, right, gap at left, gap at right, threshold, Lipschitz
    constant)``.  Each block evaluates, in one ``gap_fn`` call, the
    midpoints of every live interval's dyadic subtree a few levels deep,
    then replays the binary wavefront over those values level by level:
    each live midpoint is counted and may lower ``best``, and only then
    are all children pruned against the updated ``best``.  Midpoints
    under a pruned node are evaluated but neither counted nor used.
    Python float arithmetic and comparisons are the IEEE operations the
    wide pass performs in numpy, so every visited node, count and crossing
    is the same.  ``best`` and ``counts`` are updated in place; returns
    the live intervals once none remain or more than ``_NARROW_LIVE`` do.
    """
    intervals = list(zip(*(column.tolist() for column in live)))
    tail_best = dict(zip(live[0].tolist(), best[live[0]].tolist()))
    tail_counts = dict.fromkeys(tail_best, 0)
    while intervals and len(intervals) <= _NARROW_LIVE:
        levels = next(depth for size, depth in _TAIL_LEVELS if len(intervals) <= size)
        block = (1 << levels) - 1
        problems: list[int] = []
        times: list[float] = []
        for problem, left, right, *_ in intervals:
            # The subtree's midpoints in heap order (node k's children are
            # 2k + 1 and 2k + 2); its internal nodes append their halves.
            spans = [(left, right)]
            for a, b in spans:
                mid = 0.5 * (a + b)
                times.append(mid)
                if len(spans) < block:
                    spans += ((a, mid), (mid, b))
            problems += [problem] * block
        values = gap_fn(np.array(problems), np.array(times)).tolist()

        frontier = [(k * block, 0, *interval) for k, interval in enumerate(intervals)]
        for _ in range(levels):
            for base, node, problem, left, right, _gl, _gr, thr, _lip in frontier:
                tail_counts[problem] += 1
                if values[base + node] <= thr:
                    mid = 0.5 * (left + right)
                    known = tail_best[problem]
                    if mid < known or known != known:  # fmin: NaN is "none yet"
                        tail_best[problem] = mid
            # The wide pass's _prune for both children; a NaN tent means a
            # NaN lower bound, which never passes.
            children = []
            for base, node, problem, left, right, gl, gr, thr, lip in frontier:
                mid = 0.5 * (left + right)
                g_mid = values[base + node]
                known = tail_best[problem]
                width = mid - left
                if width > time_tolerance and not left >= known:
                    tent = 0.5 * (gl + g_mid - lip * width)
                    if tent == tent and (gl <= thr or g_mid <= thr or tent <= thr):
                        child = (base, 2 * node + 1, problem, left, mid, gl, g_mid, thr, lip)
                        children.append(child)
                width = right - mid
                if width > time_tolerance and not mid >= known:
                    tent = 0.5 * (g_mid + gr - lip * width)
                    if tent == tent and (g_mid <= thr or gr <= thr or tent <= thr):
                        child = (base, 2 * node + 2, problem, mid, right, g_mid, gr, thr, lip)
                        children.append(child)
            frontier = children
        intervals = [entry[2:] for entry in frontier]

    for problem, count in tail_counts.items():
        counts[problem] += count
    for problem, value in tail_best.items():
        best[problem] = value
    if not intervals:
        return tuple(column[:0] for column in live)
    return tuple(np.array(column, dtype=ref.dtype) for column, ref in zip(zip(*intervals), live))


# -- batched search ------------------------------------------------------------------


def _point_segment_distances(
    px: np.ndarray, py: np.ndarray, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
) -> np.ndarray:
    """Elementwise distance from points to segments (broadcasting allowed)."""
    dx = x1 - x0
    dy = y1 - y0
    length_squared = dx * dx + dy * dy
    tpx = px - x0
    tpy = py - y0
    safe = np.where(length_squared > 0.0, length_squared, 1.0)
    fraction = np.clip((tpx * dx + tpy * dy) / safe, 0.0, 1.0)
    fraction = np.where(length_squared > 0.0, fraction, 0.0)
    return np.hypot(tpx - dx * fraction, tpy - dy * fraction)


def _point_subarc_distances(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    radius: np.ndarray,
    theta0: np.ndarray,
    sweep: np.ndarray,
) -> np.ndarray:
    """Elementwise ``geometry.point_arc_distance`` over arrays."""
    off_x = px - cx
    off_y = py - cy
    rho = np.hypot(off_x, off_y)
    on_circle = np.abs(rho - radius)
    full = np.abs(sweep) >= _TWO_PI - 1e-15
    point_angle = np.arctan2(off_y, off_x)
    relative = np.where(
        sweep >= 0.0,
        np.mod(point_angle - theta0, _TWO_PI),
        np.mod(theta0 - point_angle, _TWO_PI),
    )
    within = relative <= np.abs(sweep)
    start_x = cx + radius * np.cos(theta0)
    start_y = cy + radius * np.sin(theta0)
    end_angle = theta0 + sweep
    end_x = cx + radius * np.cos(end_angle)
    end_y = cy + radius * np.sin(end_angle)
    endpoint = np.minimum(
        np.hypot(px - start_x, py - start_y), np.hypot(px - end_x, py - end_y)
    )
    distance = np.where(full | within, on_circle, endpoint)
    return np.where(rho == 0.0, radius, distance)


def simulate_search_batch(
    algorithm: MobilityAlgorithm,
    instances: Sequence[SearchInstance],
    horizons: Sequence[HorizonPolicy | float],
    time_tolerance: float = TIME_TOLERANCE,
    chunk_segments: int = _CACHED_CHUNK_SEGMENTS,
) -> list[SimulationOutcome]:
    """Run one search algorithm against a whole batch of instances.

    Every instance must share the searcher's attributes (the batch is
    *homogeneous*): the world trajectory is then identical across the
    batch and is compiled once, while targets, visibilities and horizons
    vary per instance.  Results match :func:`~repro.simulation.engine.
    simulate_search` run per instance, with event times agreeing within
    ``time_tolerance``.

    ``chunk_segments`` only tunes *uncached* (non-reference-attribute)
    streams: identity-frame trajectories come from the shared compiled
    cache, whose chunk boundaries are fixed at ``_CACHED_CHUNK_SEGMENTS``
    so chunks stay reusable across batches.
    """
    instances = list(instances)
    horizons = list(horizons)
    if len(horizons) != len(instances):
        raise InvalidParameterError(
            f"got {len(instances)} instances but {len(horizons)} horizons"
        )
    if not instances:
        return []
    attributes = instances[0].attributes
    for instance in instances[1:]:
        if instance.attributes != attributes:
            raise InvalidParameterError(
                "a batched search needs identical searcher attributes across instances"
            )
    limits = np.array([_resolve_horizon(h) for h in horizons], dtype=float)

    robot = Robot(name="R", start=ORIGIN, attributes=attributes)
    stream = _ChunkSource(algorithm, robot, chunk_segments)

    n = len(instances)
    target_x = np.array([instance.target.x for instance in instances], dtype=float)
    target_y = np.array([instance.target.y for instance in instances], dtype=float)
    visibility = np.array([instance.visibility for instance in instances], dtype=float)

    times = np.full(n, np.nan)
    event_x = np.zeros(n)
    event_y = np.zeros(n)
    windows = np.zeros(n, dtype=np.int64)
    evaluations = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    while np.any(active):
        horizon_cap = float(limits[active].max())
        chunk = stream.next_chunk(until_time=horizon_cap)
        if chunk is None or chunk.t_begin >= horizon_cap:
            break
        _process_search_chunk(
            chunk,
            np.where(active)[0],
            target_x,
            target_y,
            visibility,
            limits,
            times,
            event_x,
            event_y,
            windows,
            evaluations,
            time_tolerance,
        )
        active &= np.isnan(times)
        # Every later segment starts at or after the chunk end, so
        # instances whose horizon the chunk already reached are final.
        active &= limits > chunk.t_end

    outcomes = []
    for i, instance in enumerate(instances):
        solved = not math.isnan(times[i])
        event = None
        if solved:
            position = Vec2(float(event_x[i]), float(event_y[i]))
            event = DetectionEvent(
                time=float(times[i]),
                gap=position.distance_to(instance.target),
                position_reference=position,
                position_other=instance.target,
            )
        outcomes.append(
            SimulationOutcome(
                solved=solved,
                event=event,
                horizon=float(limits[i]),
                segments_processed=int(windows[i]),
                gap_evaluations=int(evaluations[i]),
            )
        )
    return outcomes


def _process_search_chunk(
    chunk: CompiledTrajectory,
    sub: np.ndarray,
    target_x: np.ndarray,
    target_y: np.ndarray,
    visibility: np.ndarray,
    limits: np.ndarray,
    times: np.ndarray,
    event_x: np.ndarray,
    event_y: np.ndarray,
    windows: np.ndarray,
    evaluations: np.ndarray,
    time_tolerance: float,
) -> None:
    """Resolve one compiled chunk against the active instance subset."""
    m = len(chunk)
    k = sub.size
    t0 = chunk.start_times
    durations = chunk.durations
    tx = target_x[sub]
    ty = target_y[sub]
    vis = visibility[sub]

    # Per (segment, instance) windows: local [0, local_hi], clipped at the
    # instance horizon exactly like the scalar engine clips at its limit.
    slack = limits[sub][None, :] - t0[:, None]
    local_hi = np.minimum(durations[:, None], slack)
    valid = (local_hi > _MIN_WINDOW) | ((durations[:, None] == 0.0) & (slack >= 0.0))
    local_hi = np.clip(local_hi, 0.0, None)

    # Exact minimum distance from each target to each windowed sub-path.
    rows = np.arange(m)
    start_x, start_y = chunk.local_positions(rows, np.zeros(m))
    arc_moving = (chunk.kinds == KIND_ARC) & (durations > 0.0)
    other = ~arc_moving

    min_distance = np.empty((m, k))
    if np.any(other):
        o = np.where(other)[0]
        end_x = start_x[o][:, None] + chunk.bx[o][:, None] * local_hi[o]
        end_y = start_y[o][:, None] + chunk.by[o][:, None] * local_hi[o]
        min_distance[o] = _point_segment_distances(
            tx[None, :], ty[None, :], start_x[o][:, None], start_y[o][:, None], end_x, end_y
        )
    if np.any(arc_moving):
        a = np.where(arc_moving)[0]
        min_distance[a] = _point_subarc_distances(
            tx[None, :],
            ty[None, :],
            chunk.ax[a][:, None],
            chunk.ay[a][:, None],
            chunk.radius[a][:, None],
            chunk.theta0[a][:, None],
            chunk.omega[a][:, None] * local_hi[a],
        )

    candidate = valid & (min_distance <= vis[None, :])
    window_counts = np.cumsum(valid, axis=0)

    resolved_time = np.full(k, np.nan)
    resolved_x = np.zeros(k)
    resolved_y = np.zeros(k)
    pending = candidate.any(axis=0)
    while np.any(pending):
        first_row = np.argmax(candidate, axis=0)
        cols = np.where(pending)[0]
        rows_now = first_row[cols]
        kinds_now = chunk.kinds[rows_now]
        durations_now = durations[rows_now]
        local = np.full(cols.shape, np.nan)

        # Waits and zero-duration segments: the exact rejection already
        # established proximity, the crossing is at the window start.
        instant = (kinds_now == KIND_WAIT) | (durations_now == 0.0)
        local[instant] = 0.0

        linear = (kinds_now == KIND_LINEAR) & (durations_now > 0.0)
        if np.any(linear):
            r = rows_now[linear]
            c = cols[linear]
            local[linear] = _quadratic_first_crossing(
                chunk.ax[r] - tx[c],
                chunk.ay[r] - ty[c],
                chunk.bx[r],
                chunk.by[r],
                vis[c],
                local_hi[r, c],
            )

        arc = (kinds_now == KIND_ARC) & (durations_now > 0.0)
        if np.any(arc):
            r = rows_now[arc]
            c = cols[arc]
            # Probed times stay inside [0, local_hi], within each arc's
            # duration, so the row evaluation's clamp never moves them.
            arcs = chunk.rows(r)
            point_x = tx[c]
            point_y = ty[c]

            def gap_fn(problems: np.ndarray, local_times: np.ndarray) -> np.ndarray:
                x, y = arcs.take(problems).local_positions(local_times)
                return np.hypot(x - point_x[problems], y - point_y[problems])

            crossing, counts = _lipschitz_first_crossing(
                gap_fn,
                np.zeros(r.size),
                local_hi[r, c],
                chunk.speeds[r],
                vis[c],
                time_tolerance,
            )
            local[arc] = crossing
            np.add.at(evaluations, sub[c], counts)

        found = ~np.isnan(local)
        if np.any(found):
            fc = cols[found]
            fr = rows_now[found]
            resolved_time[fc] = t0[fr] + local[found]
            fx, fy = chunk.local_positions(fr, local[found])
            resolved_x[fc] = fx
            resolved_y[fc] = fy
            windows[sub[fc]] += window_counts[fr, fc]
            candidate[:, fc] = False
        missed = ~found
        if np.any(missed):
            # The detector ignored a dip shallower than its tolerance
            # (exactly like the scalar engine): move to the next candidate.
            candidate[rows_now[missed], cols[missed]] = False
        pending = candidate.any(axis=0) & np.isnan(resolved_time)

    solved_here = ~np.isnan(resolved_time)
    if np.any(solved_here):
        indices = sub[solved_here]
        times[indices] = resolved_time[solved_here]
        event_x[indices] = resolved_x[solved_here]
        event_y[indices] = resolved_y[solved_here]
    unsolved = ~solved_here
    if np.any(unsolved) and m:
        windows[sub[unsolved]] += window_counts[-1, unsolved]


# -- pair (rendezvous) kernel --------------------------------------------------------


class _RobotStream:
    """Chunked compiled view of one robot's world trajectory.

    Parks the robot at its final position (a virtual wait, like the
    engine's ``_segment_or_parked``) when a finite algorithm runs out of
    segments before the horizon.
    """

    __slots__ = ("_source", "_limit", "_chunk", "_fallback_start")

    def __init__(
        self,
        robot: Robot,
        algorithm: MobilityAlgorithm,
        limit: float,
        chunk_segments: int,
    ) -> None:
        self._source = _ChunkSource(algorithm, robot, chunk_segments)
        self._limit = limit
        self._chunk: Optional[CompiledTrajectory] = None
        self._fallback_start = robot.start

    def chunk_covering(self, t: float) -> CompiledTrajectory:
        """The compiled chunk whose span contains time ``t`` onwards."""
        while self._chunk is None or self._chunk.t_end <= t + _MIN_WINDOW:
            nxt = self._source.next_chunk()
            if nxt is not None:
                self._chunk = nxt
                continue
            try:
                position = self._source.final_position()
            except (TrajectoryError, InvalidParameterError):
                position = self._fallback_start
            parked = WaitMotion(
                position, max(self._limit - self._source.covered, 0.0) + 1.0
            )
            self._chunk = CompiledTrajectory.from_segments(
                [parked], start_time=self._source.covered
            )
            break
        return self._chunk


#: Windows resolved per vectorized pass of the pair kernel.  The pass is
#: all-or-nothing (no early exit inside it), so the batch bounds how much
#: work past the first crossing can be wasted.
_PAIR_WINDOW_BATCH = 96


def simulate_robot_pair_kernel(
    algorithm: MobilityAlgorithm,
    robot_reference: Robot,
    robot_other: Robot,
    visibility: float,
    horizon: HorizonPolicy | float,
    time_tolerance: float = TIME_TOLERANCE,
    chunk_segments: int = _CACHED_CHUNK_SEGMENTS,
) -> SimulationOutcome:
    """Kernel counterpart of :func:`~repro.simulation.engine.simulate_robot_pair`.

    Both trajectories are compiled chunk by chunk; the chunks' segment
    boundaries are merged into elementary windows and whole window
    batches are classified and resolved with array arithmetic (constant /
    quadratic closed forms, Lipschitz branch-and-bound for windows
    involving arcs).
    """
    if visibility <= 0.0 or not math.isfinite(visibility):
        raise InvalidParameterError(f"visibility must be positive and finite, got {visibility!r}")
    limit = _resolve_horizon(horizon)

    initial_gap = robot_reference.start.distance_to(robot_other.start)
    if initial_gap <= visibility:
        event = DetectionEvent(
            time=0.0,
            gap=initial_gap,
            position_reference=robot_reference.start,
            position_other=robot_other.start,
        )
        return SimulationOutcome(
            solved=True, event=event, horizon=limit, segments_processed=0, gap_evaluations=1
        )

    reference = _RobotStream(robot_reference, algorithm, limit, chunk_segments)
    other = _RobotStream(robot_other, algorithm, limit, chunk_segments)

    intervals = 0
    evaluations = 0
    t = 0.0
    while t < limit:
        chunk_ref = reference.chunk_covering(t)
        chunk_oth = other.chunk_covering(t)
        t_next = min(chunk_ref.t_end, chunk_oth.t_end, limit)

        boundaries_ref = chunk_ref.start_times
        boundaries_oth = chunk_oth.start_times
        edges = np.unique(
            np.concatenate(
                [
                    np.array([t, t_next]),
                    boundaries_ref[(boundaries_ref > t) & (boundaries_ref < t_next)],
                    boundaries_oth[(boundaries_oth > t) & (boundaries_oth < t_next)],
                ]
            )
        )
        lo = edges[:-1]
        hi = edges[1:]
        keep = hi - lo > _MIN_WINDOW
        lo, hi = lo[keep], hi[keep]
        # Resolve windows in bounded, time-ordered batches with an early
        # exit, mirroring the scalar engine's stop-at-first-crossing --
        # without this, a whole chunk span would be resolved even when
        # the robots meet in its very first window.
        for offset in range(0, lo.size, _PAIR_WINDOW_BATCH):
            crossing, n_windows, n_evals = _resolve_pair_windows(
                chunk_ref,
                chunk_oth,
                lo[offset : offset + _PAIR_WINDOW_BATCH],
                hi[offset : offset + _PAIR_WINDOW_BATCH],
                visibility,
                time_tolerance,
            )
            intervals += n_windows
            evaluations += n_evals
            if crossing is not None:
                position_ref = chunk_ref.position_at(crossing)
                position_oth = chunk_oth.position_at(crossing)
                event = DetectionEvent(
                    time=crossing,
                    gap=position_ref.distance_to(position_oth),
                    position_reference=position_ref,
                    position_other=position_oth,
                )
                return SimulationOutcome(
                    solved=True,
                    event=event,
                    horizon=limit,
                    segments_processed=intervals,
                    gap_evaluations=evaluations,
                )
        if t_next >= limit:
            break
        t = t_next
    return SimulationOutcome(
        solved=False,
        event=None,
        horizon=limit,
        segments_processed=intervals,
        gap_evaluations=evaluations,
    )


def _resolve_pair_windows(
    chunk_ref: CompiledTrajectory,
    chunk_oth: CompiledTrajectory,
    lo: np.ndarray,
    hi: np.ndarray,
    visibility: float,
    time_tolerance: float,
) -> tuple[Optional[float], int, int]:
    """Earliest crossing across a batch of elementary windows.

    Windows are disjoint and time-ordered; within each window both robots
    follow a single compiled segment.  Returns ``(global time or None,
    windows examined, gap evaluations)``.
    """
    w = lo.size
    idx_ref = chunk_ref.segment_indices(lo)
    idx_oth = chunk_oth.segment_indices(lo)
    x_ref, y_ref = chunk_ref.local_positions(idx_ref, lo - chunk_ref.start_times[idx_ref])
    x_oth, y_oth = chunk_oth.local_positions(idx_oth, lo - chunk_oth.start_times[idx_oth])
    speed_ref = chunk_ref.speeds[idx_ref]
    speed_oth = chunk_oth.speeds[idx_oth]
    width = hi - lo
    threshold = np.full(w, visibility)

    arc_ref = (chunk_ref.kinds[idx_ref] == KIND_ARC) & (speed_ref > 0.0)
    arc_oth = (chunk_oth.kinds[idx_oth] == KIND_ARC) & (speed_oth > 0.0)
    has_arc = arc_ref | arc_oth

    crossing = np.full(w, np.nan)
    evaluations = 0

    plain = ~has_arc
    if np.any(plain):
        local = _quadratic_first_crossing(
            (x_ref - x_oth)[plain],
            (y_ref - y_oth)[plain],
            (chunk_ref.bx[idx_ref] - chunk_oth.bx[idx_oth])[plain],
            (chunk_ref.by[idx_ref] - chunk_oth.by[idx_oth])[plain],
            threshold[plain],
            width[plain],
        )
        crossing[plain] = lo[plain] + local

    if np.any(has_arc):
        aw = np.where(has_arc)[0]
        lipschitz = (speed_ref + speed_oth)[aw]
        gap_lo = np.hypot((x_ref - x_oth)[aw], (y_ref - y_oth)[aw])
        evaluations += aw.size
        # A window whose start gap cannot be closed within the window at
        # combined top speed has no crossing (Lipschitz rejection).
        candidate = aw[gap_lo - lipschitz * width[aw] <= visibility]
        if candidate.size:
            # Gather each candidate window's two segments once per search
            # (which of them are arcs is decided here, not per call) and
            # evaluate them in one pass: reference rows, then the other's.
            rows = SegmentRows.concat(
                chunk_ref.rows(idx_ref[candidate]), chunk_oth.rows(idx_oth[candidate])
            )
            shift = candidate.size

            def gap_fn(problems: np.ndarray, global_times: np.ndarray) -> np.ndarray:
                both = rows.take(np.concatenate((problems, problems + shift)))
                x, y = both.local_positions(
                    np.concatenate((global_times, global_times)) - both.start_times
                )
                m = problems.size
                return np.hypot(x[:m] - x[m:], y[:m] - y[m:])

            found, counts = _lipschitz_first_crossing(
                gap_fn,
                lo[candidate],
                hi[candidate],
                (speed_ref + speed_oth)[candidate],
                threshold[candidate],
                time_tolerance,
            )
            crossing[candidate] = found
            evaluations += int(counts.sum())

    if np.all(np.isnan(crossing)):
        return None, w, evaluations
    return float(np.nanmin(crossing)), w, evaluations


# -- instance-level conveniences -----------------------------------------------------


def kernel_simulate_search(
    algorithm: MobilityAlgorithm,
    instance: SearchInstance,
    horizon: HorizonPolicy | float,
    time_tolerance: float = TIME_TOLERANCE,
) -> SimulationOutcome:
    """Drop-in kernel replacement for :func:`~repro.simulation.engine.simulate_search`."""
    return simulate_search_batch(algorithm, [instance], [horizon], time_tolerance)[0]


def kernel_simulate_rendezvous(
    algorithm: MobilityAlgorithm,
    instance: RendezvousInstance,
    horizon: HorizonPolicy | float,
    time_tolerance: float = TIME_TOLERANCE,
) -> SimulationOutcome:
    """Drop-in kernel replacement for :func:`~repro.simulation.engine.simulate_rendezvous`."""
    pair = instance.robot_pair()
    return simulate_robot_pair_kernel(
        algorithm, pair.reference, pair.other, instance.visibility, horizon, time_tolerance
    )
