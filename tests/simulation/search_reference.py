"""The whole-chunk search batch loop, kept as the parity reference.

This is ``repro.simulation.kernel.simulate_search_batch`` as it was
before the kernel walked each chunk in bounded tiles: one
``_process_search_chunk`` call per chunk against every live instance,
with solved and horizon-expired instances dropped only at chunk ends.
The shipped loop must reproduce every outcome of this one exactly --
event times and positions, ``segments_processed`` and
``gap_evaluations`` -- so the tests compare the outcomes' ``repr`` for
equality, not within a tolerance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.constants import TIME_TOLERANCE
from repro.errors import InvalidParameterError
from repro.geometry import ORIGIN, Vec2
from repro.robots import Robot
from repro.simulation.events import DetectionEvent, SimulationOutcome
from repro.simulation.horizon import resolve_horizon as _resolve_horizon
from repro.simulation.kernel import (
    _CACHED_CHUNK_SEGMENTS,
    _ChunkSource,
    _process_search_chunk,
)


def reference_simulate_search_batch(
    algorithm,
    instances: Sequence,
    horizons: Sequence,
    time_tolerance: float = TIME_TOLERANCE,
    chunk_segments: int = _CACHED_CHUNK_SEGMENTS,
) -> list[SimulationOutcome]:
    """Run one search algorithm against a whole batch, chunk by whole chunk."""
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
