#!/usr/bin/env python3
"""The serving-stack benchmark: ``sweep-fleet``, ``serve-cold``, ``serve-warm``.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload sweep-fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # all three, one report

Each run boots fresh ``repro serve --async --backend vectorized``
processes with a fresh store under ``.perfbench/``, sets them up
several times (set-up time is the median), drives the last set-up in
a closed loop for ``--seconds``, drains it, and checks every answer
against an in-process ``BatchRunner(backend="vectorized")`` solve of
the same generated specs.  Throughput, median latency and CPU per spec
are read at zero CPU steal from half-second windows of the timed phase
(``measure.zero_steal`` and ``measure.latency_at_zero_steal``), and
they and set-up time are scaled to a nominal host speed
(``hostspeed``); the figures as observed are reported too.
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer ones (from span wrappers
installed in every server process) with ``--trace 1``.  The full
result, with diagnostics, is also written to ``.perfbench/results/``;
``perfbench/summary.py`` summarises such files.

The exit code is non-zero when an answer is wrong or missing, when a
server process outlives its drain, or when shared memory leaks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import layers
import measure
import proctree
from hostspeed import NOMINAL_MS, HostSpeed, job_ms_between
from servers import BenchError, Server, shm_segments
from spans import load_tables

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sweep-fleet", "serve-cold", "serve-warm")

#: Window length of the steal-adjusted figures (see ``measure.at_zero_steal``).
WINDOW_S = 0.5

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: A run that has not finished within ``DEADLINE_BASE_S`` plus
#: ``DEADLINE_PER_S`` times ``--seconds`` is abandoned (servers killed,
#: non-zero exit), so a hung server cannot stall the caller.  Set-ups,
#: checks and the drain grow with the timed phase; at ``--seconds 20``
#: a run takes under a minute and the deadline is 170 s.
DEADLINE_BASE_S = 110
DEADLINE_PER_S = 3

END_TO_END = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_spec": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: Reported with the end-to-end metrics where the sample supports them
#: (see BENCHMARK.json: not every workload can carry them).
TAIL_PERCENTILES = {"op_p90_ms": 90.0, "op_p99_ms": 99.0}


def _source_identity() -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _cpu_split(server: Server, before: dict[int, float], after: dict[int, float]) -> dict[str, Any]:
    """Timed-phase CPU seconds per server process, by role."""
    per_pid = {pid: after.get(pid, 0.0) - before.get(pid, 0.0) for pid in after}
    top = server.pid
    workers = {pid: seconds for pid, seconds in per_pid.items() if pid != top}
    role = "router" if workers else "daemon"
    return {
        role: per_pid.get(top, 0.0),
        "workers": sum(workers.values()),
        "per_worker": {str(pid): seconds for pid, seconds in sorted(workers.items())},
        "total": sum(per_pid.values()),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    from traffic import WORKLOADS

    workload = WORKLOADS[name](seed)
    run_dir = WORK_DIR / f"run-{name}-s{seed}-t{int(traced)}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    shm_before = shm_segments()
    servers: list[Server] = []
    phases: dict[str, float] = {}
    speed: Optional[HostSpeed] = None
    mark = time.monotonic()
    try:
        workload.prepare()
        phases["prepare_s"] = time.monotonic() - mark
        speed = HostSpeed()
        setups = []
        for index in range(SETUPS):
            server = Server(SRC, run_dir / f"setup-{index}", workload.workers, traced)
            servers.append(server)
            server.wait_address()
            workload.setup(server)
            setups.append(time.monotonic() - server.launched)
            if index < SETUPS - 1:
                workload.close()
                server.shutdown()
        # -- timed phase ------------------------------------------------------
        gc.collect()
        gc.freeze()
        pids = server.pids()
        client_before = os.times()
        sampler = measure.WindowSampler(pids)
        sampler.start()
        ops = workload.timed(seconds)
        finished = max(op.end_ns for op in ops)
        client_after = os.times()
        samples = sampler.finish(finished)
        readings = speed.stop()
        pids = server.pids()
        peak_rss_kb = sum(proctree.peak_rss_kb(pid) for pid in pids)
        gc.unfreeze()
        phases["setups_and_timed_s"] = time.monotonic() - mark - phases["prepare_s"]
        # -- drain and audit --------------------------------------------------
        workload.close()
        drain_s = server.shutdown()
        survivors = [pid for s in servers for pid in s.survivors()]
        leaked_shm = sorted(shm_segments() - shm_before)
        if survivors:
            raise BenchError(f"server processes outlived their drain: {survivors}")
        if leaked_shm:
            raise BenchError(f"shared-memory segments left behind: {leaked_shm}")
        mark = time.monotonic()
        workload.check(ops, server)
        phases["check_s"] = time.monotonic() - mark
    except BaseException:
        if speed is not None:
            speed.stop()
        for server in servers:
            server.kill()
        for segment in shm_segments() - shm_before:
            (Path("/dev/shm") / segment).unlink(missing_ok=True)
        print(f"perfbench: run failed; server logs kept in {run_dir}", file=sys.stderr)
        raise

    started, finished = samples[0].time_ns, samples[-1].time_ns
    wall_s = (finished - started) / 1e9
    attempted = sum(op.specs for op in ops)
    correct = sum(op.ok for op in ops)
    cpu = _cpu_split(server, samples[0].cpu, samples[-1].cpu)
    latencies = [op.latency_ms for op in ops]
    windows = measure.windows(samples, ops, WINDOW_S)
    p50, count = measure.latency_at_zero_steal(samples, ops, windows)
    # Times scale by nominal / measured job time, rates by its inverse.
    setup_job_ms = job_ms_between(readings, int(servers[0].launched * 1e9), started)
    timed_job_ms = job_ms_between(readings, started, finished)
    setup_scale = NOMINAL_MS / setup_job_ms
    timed_scale = NOMINAL_MS / timed_job_ms
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "specs_per_s": measure.zero_steal(windows, "specs_per_s") / timed_scale,
        "op_p50_ms": p50 * timed_scale,
        "cpu_ms_per_spec": measure.zero_steal(windows, "cpu_ms_per_spec") * timed_scale,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_share": correct / attempted,
    }
    tails: dict[str, Any] = {"drain_s": drain_s}
    for metric, pct in TAIL_PERCENTILES.items():
        try:
            tails[metric] = measure.percentile(latencies, pct)[0]
        except measure.TooFewSamples as refused:
            tails[metric] = None
            tails[f"{metric}_refused"] = str(refused)
    store = _store_stats(server)
    result: dict[str, Any] = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct == attempted,
        "attempted": attempted,
        "failed": attempted - correct,
        "ops": len(ops),
        "op_samples": count,
        "metrics": metrics,
        "tails": tails,
        "checks": workload.notes,
        "diagnostics": {
            **_source_identity(),
            "cpu_count": os.cpu_count(),
            "setups_s": setups,
            "timed_wall_s": wall_s,
            "host_speed": {
                "nominal_job_ms": NOMINAL_MS,
                "setup_job_ms": setup_job_ms,
                "timed_job_ms": timed_job_ms,
                "readings": len(readings),
            },
            # The same figures as observed: steal included, not scaled.
            "observed": {
                "specs_per_s": correct / wall_s,
                "op_p50_ms": measure.percentile(latencies, 50.0)[0],
                "cpu_ms_per_spec": cpu["total"] * 1e3 / correct if correct else 0.0,
            },
            "windows": windows,
            "steal_s": (samples[-1].steal - samples[0].steal) / proctree.CLOCK_TICKS,
            "cpu_s": {
                "client": (client_after.user + client_after.system)
                - (client_before.user + client_before.system),
                **cpu,
            },
            "store": store,
            "phases": phases,
        },
    }
    if traced:
        tables = load_tables(str(server.spans))
        fleet = {**layers.fleet_spans(tables), "drain_s": drain_s}
        result["per_layer"] = {
            **layers.per_layer(name, ops, tables, cpu, correct, store, fleet),
            **{f"traced.{metric}": value for metric, value in metrics.items()},
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _store_stats(server: Server) -> dict[str, int]:
    from repro.api.store import ResultStore

    stats = ResultStore(server.store).stats()
    return {"records": stats.records, "unique": stats.unique, "bytes": stats.total_bytes}


def _report(result: dict[str, Any]) -> None:
    print(
        f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"({result['ops']} ops, {result['attempted']} specs, {result['failed']} failed)"
    )
    units = {**END_TO_END, "op_p90_ms": "ms", "op_p99_ms": "ms", "drain_s": "s"}
    rows = {**result["metrics"], **result["tails"]}
    for metric in (*END_TO_END, *TAIL_PERCENTILES, "drain_s"):
        value = rows.get(metric)
        note = ""
        if metric.startswith("op_p"):
            note = f"  (n={result['op_samples']} ops)"
            if value is None:
                print(f"  {metric:<18} refused: {rows[metric + '_refused']}")
                continue
        print(f"  {metric:<18} {value:>12.4f} {units[metric]}{note}")
    diagnostics = result["diagnostics"]
    observed = ", ".join(f"{k} {v:.4f}" for k, v in diagnostics["observed"].items())
    steal_share = diagnostics["steal_s"] / diagnostics["timed_wall_s"] / proctree.CPUS
    speed = diagnostics["host_speed"]
    print(
        f"  as observed: {observed}; CPU steal {steal_share:.1%}; probe job "
        f"{speed['setup_job_ms']:.3f} ms in set-up, {speed['timed_job_ms']:.3f} ms timed "
        f"(nominal {speed['nominal_job_ms']} ms)"
    )
    for metric, value in sorted(result.get("per_layer", {}).items()):
        print(f"  {metric:<34} {value:>12.4f}")


def _save(result: dict[str, Any]) -> Path:
    directory = WORK_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{result['workload']}-s{result['seed']}-t{result['trace']}-{time.time_ns()}.json"
    )
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def _line(result: dict[str, Any]) -> dict[str, Any]:
    if result["trace"]:
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _overdue(signum: int, frame: Any) -> None:
    raise BenchError("run did not finish before its deadline")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _overdue)
    deadline_s = DEADLINE_BASE_S + math.ceil(DEADLINE_PER_S * args.seconds)
    lines = []
    for name in names:
        signal.alarm(deadline_s)
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, measure.TooFewSamples) as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        path = _save(result)
        _report(result)
        print(f"  (full result: {path})")
        lines.append(_line(result))
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(entry["correct"] for entry in lines),
            "attempted": sum(entry["attempted"] for entry in lines),
            "failed": sum(entry["failed"] for entry in lines),
            "metrics": {f"{name}/{metric}": value for name, entry in zip(names, lines)
                        for metric, value in entry["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
