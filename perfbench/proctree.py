"""CPU and memory of a server's process tree, read from ``/proc``.

The benchmark charges every server process -- the daemon, or the router
and its workers -- and nothing else, so it walks the tree below the
process it launched instead of trusting a pid list.
"""

from __future__ import annotations

import os
from pathlib import Path

PROC = Path("/proc")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
CPUS = os.cpu_count() or 1


def _stat_fields(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name.

    The name sits in parentheses and may itself hold spaces, so the
    fields are split after its closing parenthesis: index 0 is the
    state, 1 the parent pid, 11 and 12 the user and system ticks.
    """
    text = (PROC / str(pid) / "stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, ValueError, IndexError):
        return False


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, found by parent pid."""
    parents: dict[int, list[int]] = {}
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry.name))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry.name))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return sorted(found)


def tree(pid: int) -> list[int]:
    """``pid`` and its live descendants."""
    return ([pid] if alive(pid) else []) + descendants(pid)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process so far (0 once it is gone)."""
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of one process, in kB (0 once it is gone)."""
    try:
        for line in (PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def cpu_by_pid(pids: list[int]) -> dict[int, float]:
    return {pid: cpu_seconds(pid) for pid in pids}


def steal_ticks() -> int:
    """Host-wide steal ticks from the ``cpu`` line of ``/proc/stat``."""
    with open(PROC / "stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0
