"""Percentiles under the ten-samples-beyond rule, windowed rates, spreads."""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time
from typing import Any, NamedTuple, Optional, Sequence

import proctree

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise its value rests on a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct``-th percentile of ``count``."""
    return count - math.ceil(pct / 100.0 * count)


def percentile(samples: Sequence[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct``-th percentile and the sample count.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    count = len(samples)
    if count == 0 or samples_beyond(count, pct) < MIN_BEYOND:
        needed = math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9) if pct < 100 else math.inf
        raise TooFewSamples(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it (about {needed} samples), "
            f"got {count}"
        )
    ordered = sorted(samples)
    return float(ordered[max(math.ceil(pct / 100.0 * count) - 1, 0)]), count


#: How often the servers' CPU and the host's steal are read in the timed
#: phase; windows are whole multiples of it.
SAMPLE_S = 0.5


class Sample(NamedTuple):
    time_ns: int
    cpu: dict[int, float]
    steal: int


class WindowSampler:
    """Reads the servers' CPU and the host's steal every ``SAMPLE_S``."""

    def __init__(self, pids: list[int]) -> None:
        self._pids = pids
        self._done = threading.Event()
        self.samples = [self._sample()]
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, time_ns: Optional[int] = None) -> Sample:
        return Sample(
            time_ns if time_ns is not None else time.monotonic_ns(),
            proctree.cpu_by_pid(self._pids),
            proctree.steal_ticks(),
        )

    def _run(self) -> None:
        start = self.samples[0].time_ns
        k = 1
        while True:
            wait = (start + k * SAMPLE_S * 1e9 - time.monotonic_ns()) / 1e9
            if self._done.wait(max(wait, 0.0)):
                return
            self.samples.append(self._sample())
            k += 1

    def start(self) -> None:
        self._thread.start()

    def finish(self, end_ns: int) -> list[Sample]:
        """Stop sampling; the last sample is labelled with the last op's end."""
        self._done.set()
        self._thread.join()
        self.samples = [s for s in self.samples if s.time_ns < end_ns]
        self.samples.append(self._sample(max(end_ns, time.monotonic_ns())))
        return self.samples


def _steal_share(before: Sample, after: Sample) -> float:
    """The share of the host's CPU time stolen between two samples."""
    seconds = (after.time_ns - before.time_ns) / 1e9
    return (after.steal - before.steal) / proctree.CLOCK_TICKS / (seconds * proctree.CPUS)


def windows(samples: list[Sample], ops: Sequence[Any], window_s: float) -> list[dict[str, Any]]:
    """Throughput, CPU per spec, median latency and steal per window.

    Windows span whole multiples of the sampling step (the last one
    absorbs the remainder).  An op's correct specs are spread over its
    duration, so a window gets the share of each op that overlaps it,
    however long the ops are; an op's latency counts in the window where
    the op ended.
    """
    step = max(1, round(window_s / SAMPLE_S))
    cuts = samples[::step]
    if cuts[-1] is not samples[-1]:
        cuts.append(samples[-1])
    if len(cuts) > 2 and cuts[-1].time_ns - cuts[-2].time_ns < window_s * 0.5e9:
        del cuts[-2]  # a short remainder joins the last whole window
    rows = []
    for before, after in zip(cuts, cuts[1:]):
        start, end = before.time_ns, after.time_ns
        specs = 0.0
        latencies = []
        for op in ops:
            overlap = min(op.end_ns, end) - max(op.start_ns, start)
            if overlap > 0:
                specs += op.ok * overlap / max(op.end_ns - op.start_ns, 1)
            if start < op.end_ns <= end:
                latencies.append(op.latency_ms)
        cpu = sum(after.cpu.get(pid, 0.0) - before.cpu.get(pid, 0.0) for pid in after.cpu)
        rows.append(
            {
                "seconds": (end - start) / 1e9,
                "specs_per_s": specs * 1e9 / (end - start),
                "cpu_ms_per_spec": cpu * 1e3 / specs if specs else 0.0,
                "p50_ms": statistics.median(latencies) if latencies else None,
                "steal_share": _steal_share(before, after),
            }
        )
    return rows


def steal_slope(values: Sequence[float], steal: Sequence[float]) -> float:
    """Theil-Sen slope of (steal share, value): the median pairwise slope.

    Pairs with the same steal share have no slope; with no pair left
    the slope is 0.
    """
    slopes = [
        (values[j] - values[i]) / (steal[j] - steal[i])
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if abs(steal[j] - steal[i]) > 1e-9
    ]
    return statistics.median(slopes) if slopes else 0.0


def at_zero_steal(values: Sequence[float], steal: Sequence[float]) -> float:
    """Theil-Sen line through (steal share, value), read at zero steal.

    The intercept is the median of ``value - slope * steal``.  The slope
    is taken as fitted, whatever its sign, so noise moves the figure
    either way alike.
    """
    slope = steal_slope(values, steal)
    return statistics.median(v - slope * s for v, s in zip(values, steal))


def zero_steal(rows: list[dict[str, Any]], key: str) -> float:
    """:func:`at_zero_steal` over the windows that have a value for ``key``."""
    pairs = [(row[key], row["steal_share"]) for row in rows if row[key] is not None]
    return at_zero_steal([value for value, _ in pairs], [share for _, share in pairs])


def op_steal_shares(samples: list[Sample], ops: Sequence[Any]) -> list[float]:
    """Each op's steal share: that of the sampling steps it overlaps,
    weighted by the overlap."""
    times = [sample.time_ns for sample in samples]
    shares = [_steal_share(a, b) for a, b in zip(samples, samples[1:])]
    result = []
    for op in ops:
        i = min(max(bisect.bisect_right(times, op.start_ns) - 1, 0), len(shares) - 1)
        first = i
        weighted = covered = 0
        while i < len(shares) and times[i] < op.end_ns:
            overlap = min(op.end_ns, times[i + 1]) - max(op.start_ns, times[i])
            if overlap > 0:
                weighted += shares[i] * overlap
                covered += overlap
            i += 1
        result.append(weighted / covered if covered else shares[first])
    return result


def latency_at_zero_steal(
    samples: list[Sample], ops: Sequence[Any], rows: list[dict[str, Any]]
) -> tuple[float, int]:
    """Median op latency at zero steal, and the number of ops it rests on.

    The line is fitted to an op's speed, 1 / latency, which falls with
    steal about linearly, as throughput does; latency itself climbs
    ever faster, and a straight line through it, fitted where much CPU
    was stolen, overshoots at zero.  The slope comes from the windows'
    median latencies (``rows``, from :func:`windows`): one op's latency
    is too noisy to pair with another's.  The figure is read at the
    median, over every op, of its speed minus slope times the op's own
    steal share, so it rests on all the ops and, like any percentile
    here, needs ``MIN_BEYOND`` beyond it.
    """
    pairs = [(1.0 / row["p50_ms"], row["steal_share"]) for row in rows if row["p50_ms"]]
    slope = steal_slope([speed for speed, _ in pairs], [share for _, share in pairs])
    steal = op_steal_shares(samples, ops)
    speed, count = percentile([1.0 / op.latency_ms - slope * s for op, s in zip(ops, steal)], 50.0)
    return 1.0 / speed, count


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and IQR / median, as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }
