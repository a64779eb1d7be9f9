"""Seeded inputs of the three workloads.

Every spec the benchmark sends is generated here from ``--seed``; the
program under test only ever sees the generated specs.  Each stream of
randomness (one sweep, the warm-up, one connection's Zipf draws) gets
its own ``numpy`` generator keyed by ``(seed, stream tag, index)``, so a
stream's values do not depend on how many values another stream drew.
"""

from __future__ import annotations

import bisect
import math
import zlib
from typing import Any

import numpy as np

TWO_PI = 2.0 * math.pi

#: Specs per ``sweep`` request of ``sweep-fleet``.
SWEEP_SPECS = 500

#: Working set of ``serve-warm``: twice the daemon's 4,096-entry LRU and
#: 32 times its 256-entry hot response cache.
WARM_WORKING_SET = 8192


def rng_for(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """The generator of one named stream (stable across Python runs)."""
    tag = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng([int(seed), tag, int(index)])


def search_spec(rng: np.random.Generator) -> dict[str, Any]:
    """One ``SearchProblem`` dict: distance ~U[0.5, 4], visibility
    ~U[0.08, 0.45], bearing ~U[0, 2 pi)."""
    distance, visibility, bearing = rng.uniform((0.5, 0.08, 0.0), (4.0, 0.45, TWO_PI))
    return {
        "schema_version": 1,
        "kind": "search",
        "distance": float(distance),
        "visibility": float(visibility),
        "bearing": float(bearing),
    }


def rendezvous_spec(rng: np.random.Generator) -> dict[str, Any]:
    """One feasible ``RendezvousProblem`` dict.

    The speed avoids 1 (speed ~U[0.3, 0.85] or ~U[1.15, 2.0], each branch
    picked in proportion to its width), which Theorem 4 makes feasible
    whatever the orientation; distance ~U[0.8, 2.0] and visibility
    ~U[0.30, 0.45] keep the robots out of sight at the start.
    """
    slow_width, fast_width = 0.85 - 0.3, 2.0 - 1.15
    if rng.random() < slow_width / (slow_width + fast_width):
        speed = rng.uniform(0.3, 0.85)
    else:
        speed = rng.uniform(1.15, 2.0)
    orientation, bearing, distance, visibility = rng.uniform(
        (0.0, 0.0, 0.8, 0.30), (TWO_PI, TWO_PI, 2.0, 0.45)
    )
    return {
        "schema_version": 1,
        "kind": "rendezvous",
        "speed": float(speed),
        "orientation": float(orientation),
        "bearing": float(bearing),
        "distance": float(distance),
        "visibility": float(visibility),
    }


def sweep_specs(seed: int, index: int, stream: str = "sweep") -> list[dict[str, Any]]:
    """The ``SWEEP_SPECS`` never-seen search specs of sweep ``index``."""
    rng = rng_for(seed, stream, index)
    return [search_spec(rng) for _ in range(SWEEP_SPECS)]


def cold_specs(seed: int, count: int, stream: str = "cold") -> list[dict[str, Any]]:
    """``count`` never-seen rendezvous specs, one per ``solve`` request."""
    rng = rng_for(seed, stream)
    return [rendezvous_spec(rng) for _ in range(count)]


def warm_specs(seed: int) -> list[dict[str, Any]]:
    """The ``serve-warm`` working set."""
    rng = rng_for(seed, "warm")
    return [search_spec(rng) for _ in range(WARM_WORKING_SET)]


class ZipfSampler:
    """Draws indices ``0..n-1`` with P(rank r) proportional to ``1 / r**s``.

    Ranks are mapped to indices through a seeded permutation, so the
    popular specs are spread over the working set rather than being its
    first entries.  Each connection draws from its own stream.
    """

    def __init__(self, n: int, seed: int, connection: int, s: float = 1.0) -> None:
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
        self._cdf = np.cumsum(weights / weights.sum()).tolist()
        self._cdf[-1] = 1.0
        self._order = rng_for(seed, "zipf-permutation").permutation(n).tolist()
        self._rng = rng_for(seed, "zipf-draws", connection)

    def draw(self, count: int) -> list[int]:
        """The next ``count`` indices of this connection's stream."""
        cdf, order = self._cdf, self._order
        return [order[bisect.bisect_left(cdf, u)] for u in self._rng.random(count).tolist()]
