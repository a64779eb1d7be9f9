"""How fast the host runs at the moment, from a fixed piece of CPU work.

The host's speed drifts from minute to minute -- other tenants share its
cores' caches and clocks -- and every CPU-bound figure drifts with it:
two consecutive ``serve-cold`` runs, each with under 1% of the CPU
stolen, took 4.1 and 5.8 ms of CPU per spec.  So a child process does
a fixed pure-Python job every ``EVERY_S`` and reports how long it took
in its own CPU time (not wall time, so neither stolen time nor waiting
for a core counts).  The benchmark scales its time and rate figures to
the speed at which the job takes ``NOMINAL_MS``.

Run as a script, this module is that child: it prints
``<CLOCK_MONOTONIC ns> <job ms>`` lines until its standard input closes.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time

#: Job time that defines the nominal host speed (about the median on
#: the 2-core VM the benchmark was tuned on, under the benchmark's load).
NOMINAL_MS = 1.8
#: Pause between two jobs.
EVERY_S = 0.1
#: Iterations of the job's loop.
LOOPS = 20_000


def job_ms() -> float:
    """CPU milliseconds of one fixed job on this thread."""
    start = time.thread_time_ns()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return (time.thread_time_ns() - start) / 1e6


class HostSpeed:
    """The probe child, started at construction."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.readings: list[tuple[int, float]] = []

    def stop(self) -> list[tuple[int, float]]:
        """End the child and wait for it; its ``(time_ns, job_ms)`` readings."""
        if self.process.returncode is None:
            try:
                out, _ = self.process.communicate(input="", timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                out, _ = self.process.communicate()
            for line in out.splitlines():
                stamp, ms = line.split()
                self.readings.append((int(stamp), float(ms)))
        return self.readings


def job_ms_between(readings: list[tuple[int, float]], start_ns: int, end_ns: int) -> float:
    """Median job time between two instants (the nearest reading if none fell there)."""
    inside = [ms for stamp, ms in readings if start_ns <= stamp <= end_ns]
    if inside:
        return statistics.median(inside)
    middle = (start_ns + end_ns) / 2
    return min(readings, key=lambda reading: abs(reading[0] - middle))[1]


def main() -> None:
    # Standard input turns readable only when the parent closes it (or dies).
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        print(time.monotonic_ns(), f"{job_ms():.6f}", flush=True)


if __name__ == "__main__":
    main()
