"""Throughput benchmark for the ``repro.api`` batch facade and the kernel.

Run with::

    PYTHONPATH=src python benchmarks/bench_api.py [--processes N] [--quick]
        [--output PATH] [--kernel-output PATH]

Measures batch solve throughput (specs/second) across the facade's levers
-- backend fidelity, the vectorized kernel, worker pool, result cache --
on the deterministic workload suites, and writes two snapshots next to
the other benchmark artefacts so future PRs can track the trajectory:

* ``BENCH_api.json``    -- the facade scenarios (analytic / simulation /
  vectorized, serial / warm / pooled) on the mixed workload;
* ``BENCH_kernel.json`` -- the kernel-focused snapshot: scalar-engine
  baseline vs the vectorized backend on the search-sweep suite, the
  speedup ratio, a per-spec event-time parity check against
  ``TIME_TOLERANCE``, and the large sweep that is only tractable through
  the kernel;
* ``BENCH_store.json``  -- the persistent-store snapshot: a cold run of
  the large search sweep recorded into a fresh ``ResultStore``, then a
  warm replay from a brand-new process-state (fresh runner, fresh store
  handle) that must solve **zero** specs and reproduce every result
  fingerprint bit-identically;
* ``BENCH_serve.json``  -- the serving-tier snapshot: a duplicate-heavy
  workload fired by concurrent socket clients against ``repro serve``
  (cold store, then a warm restart), reporting requests/s and p50/p99
  request latency next to the no-service baseline (one facade
  ``solve()`` per request), plus the daemon's own ``metrics`` document
  so LRU/store hits and in-flight coalescing are observable.  The warm
  store is measured through both wire formats (JSON lines and the
  negotiated binary frames, with bytes-on-wire), and the
  single-connection warm-hit latency of each format gates the binary
  hot path under 0.5 ms p50;
* ``BENCH_cluster.json`` -- the sharded-serving snapshot: the same
  duplicate-heavy workload against ``repro serve --workers N`` for
  N in {1, 2, 4} (plus the single-process daemon as the no-router
  baseline), reporting requests/s, p50/p99 latency, the shard spread,
  and a fingerprint-parity assertion against direct ``solve()`` for
  every fleet size;
* ``BENCH_async.json``  -- the asyncio-transport snapshot: warm-hit
  round trips over {8, 64, 256, 512} persistent connections against
  the daemon, with its measured thread-per-connection cost and the
  sustained connection count, and the ``subscribe`` streamed sweep of
  the large search suite -- cold digest bit-identical to
  ``BatchRunner.run()``, warm pass all cache hits, zero leaked
  event-loop tasks;
* ``BENCH_montecarlo.json`` -- the fault-ensemble snapshot: the
  ``montecarlo`` backend over the ``fault-crash-sweep`` and
  ``fault-byzantine`` suites, reporting trials/s serially and through
  the worker pool, with a bit-identical-envelope assertion across
  independent serial and pooled runs (the seeded determinism
  contract);
* ``BENCH_sweep.json`` -- the distributed-sweep snapshot: the large
  search sweep shipped to a 2-worker cluster as one partitioned
  ``sweep`` (each worker runs its partition as a single local batch
  plan) and as a ``subscribe`` on an identical fresh fleet (the same
  partitions, the subscribe record shapes), the warm replay, the
  ``fold`` pass (merged aggregate tables, gated >=10x fewer bytes on
  the wire than the streamed envelopes), and a mid-sweep worker kill
  -- every digest bit-identical to a local ``BatchRunner.run()``, the
  fleet batch tier engaged, and the killed worker respawned.

``solved`` counts only specs whose simulated event actually fired;
``bound_only`` counts analytic answers (``solved is None`` -- no
simulation was performed, which is *not* the same as unsolved) and
``unsolved`` counts simulations that hit their horizon.

``--quick`` is the CI smoke mode: small workloads, no pooled scenario,
and a non-zero exit code when the kernel's event times drift from the
scalar engine beyond ``TIME_TOLERANCE``, when the warm store replay
misses the store / drifts from the cold fingerprints, or when a served
response drifts from the direct facade answer (no timings are
asserted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro._version import __version__
from repro.api import BatchRunner, ResultStore
from repro.constants import TIME_TOLERANCE
from repro.simulation.kernel import clear_compiled_cache
from repro.workloads import spec_suite

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_api.json"
DEFAULT_KERNEL_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_kernel.json"
DEFAULT_STORE_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_store.json"
DEFAULT_SERVE_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_serve.json"
DEFAULT_CLUSTER_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_cluster.json"
DEFAULT_MONTECARLO_OUTPUT = (
    Path(__file__).resolve().parent / "results" / "BENCH_montecarlo.json"
)
DEFAULT_ASYNC_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_async.json"
DEFAULT_SWEEP_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_sweep.json"

KERNEL_SUITE = "search-sweep"
KERNEL_LARGE_SUITE = "search-sweep-large"
STORE_SUITE = KERNEL_LARGE_SUITE
SERVE_SUITE = KERNEL_SUITE
SERVE_DUPLICATION = 4
SERVE_CLIENTS = 8
MONTECARLO_SUITES = ("fault-crash-sweep", "fault-byzantine")
ASYNC_CONNECTION_STEPS = (8, 64, 256, 512)
ASYNC_SWEEP_SUITE = KERNEL_LARGE_SUITE
SWEEP_SUITE = KERNEL_LARGE_SUITE
SWEEP_WORKERS = 2


def _workload(quick: bool) -> list:
    """The facade workload: every small deterministic suite, concatenated."""
    names = ("search-sweep",) if quick else ("search-sweep", "symmetric-clock", "asymmetric-clock")
    specs = []
    for name in names:
        specs.extend(spec_suite(name))
    return specs


def _measure(runner: BatchRunner, specs: list) -> tuple[dict, list]:
    start = time.perf_counter()
    results, stats = runner.run(specs)
    wall = time.perf_counter() - start
    record = {
        "specs": stats.total,
        "unique": stats.unique,
        "cache_hits": stats.cache_hits,
        "processes": stats.processes,
        "solved_in_batch": stats.solved_in_batch,
        "solved_from_store": stats.solved_from_store,
        "wall_time_s": round(wall, 4),
        "specs_per_second": round(stats.total / wall, 2) if wall > 0 else None,
        # A backend that performed no simulation reports solved=None; that
        # is a bound-only answer, not an unsolved run.
        "solved": sum(1 for result in results if result.solved is True),
        "unsolved": sum(1 for result in results if result.solved is False),
        "bound_only": sum(1 for result in results if result.solved is None),
    }
    return record, results


def run_benchmark(processes: int, quick: bool) -> dict:
    specs = _workload(quick)

    analytic = BatchRunner(backend="analytic")
    simulation = BatchRunner(backend="simulation")
    vectorized = BatchRunner(backend="vectorized")

    scenarios = {}
    scenarios["analytic_serial"], _ = _measure(analytic, specs)
    scenarios["simulation_serial_cold"], _ = _measure(simulation, specs)
    scenarios["simulation_serial_warm"], _ = _measure(simulation, specs)
    clear_compiled_cache()
    scenarios["vectorized_serial_cold"], _ = _measure(vectorized, specs)
    scenarios["vectorized_serial_warm"], _ = _measure(vectorized, specs)
    if not quick:
        pooled = BatchRunner(backend="simulation", processes=processes)
        scenarios["simulation_pooled_cold"], _ = _measure(pooled, specs)
    return {
        "benchmark": "repro.api batch solve throughput",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_at_unix": int(time.time()),
        "workload": {
            "suites": ["search-sweep"]
            if quick
            else ["search-sweep", "symmetric-clock", "asymmetric-clock"],
            "total_specs": len(specs),
        },
        "scenarios": scenarios,
    }


def _measure_best_of(make_runner, specs: list, repeats: int, prepare=None) -> tuple[dict, list]:
    """Best-of-``repeats`` measurement (fresh runner each repeat).

    Wall-clock minima are the standard way to strip scheduler noise from
    short benchmark runs; the solved counts and results come from the
    fastest repeat (every repeat computes identical results -- the
    backends are deterministic).
    """
    best_record: dict | None = None
    best_results: list = []
    for _ in range(max(repeats, 1)):
        if prepare is not None:
            prepare()
        record, results = _measure(make_runner(), specs)
        if best_record is None or record["wall_time_s"] < best_record["wall_time_s"]:
            best_record, best_results = record, results
    best_record["repeats"] = max(repeats, 1)
    return best_record, best_results


def run_kernel_benchmark(quick: bool) -> dict:
    """The kernel snapshot: baseline vs vectorized plus the parity check."""
    specs = spec_suite(KERNEL_SUITE)
    repeats = 1 if quick else 3

    simulation_record, simulation_results = _measure_best_of(
        lambda: BatchRunner(backend="simulation"), specs, repeats
    )
    # Cold = compiled-trajectory cache emptied before every repeat.
    vectorized_record, vectorized_results = _measure_best_of(
        lambda: BatchRunner(backend="vectorized"), specs, repeats, prepare=clear_compiled_cache
    )
    # Same suite with fresh runners: the result cache starts cold but the
    # compiled trajectory is reused -- the steady-state sweep rate.
    warm_record, _ = _measure_best_of(lambda: BatchRunner(backend="vectorized"), specs, repeats)

    deltas = []
    for scalar, kernel in zip(simulation_results, vectorized_results):
        if scalar.solved and kernel.solved:
            deltas.append(abs(scalar.measured_time - kernel.measured_time))
    agreement = (
        len(deltas) == len(specs)
        and all(result.solved for result in simulation_results)
        and all(result.solved for result in vectorized_results)
    )
    max_delta = max(deltas) if deltas else None
    parity = {
        "specs": len(specs),
        "compared": len(deltas),
        "max_abs_time_delta": max_delta,
        "tolerance": TIME_TOLERANCE,
        "within_tolerance": agreement and max_delta is not None and max_delta <= TIME_TOLERANCE,
    }

    scenarios = {
        "simulation_serial_cold": simulation_record,
        "vectorized_cold": vectorized_record,
        "vectorized_warm_compiled": warm_record,
    }
    if not quick:
        large = spec_suite(KERNEL_LARGE_SUITE)
        scenarios["vectorized_large"], large_results = _measure(
            BatchRunner(backend="vectorized"), large
        )
        scenarios["vectorized_large"]["suite"] = KERNEL_LARGE_SUITE
        scenarios["vectorized_large"]["all_solved"] = all(r.solved for r in large_results)

    baseline = simulation_record["specs_per_second"] or 0.0
    vector_rate = vectorized_record["specs_per_second"] or 0.0
    return {
        "benchmark": "repro vectorized kernel throughput",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_at_unix": int(time.time()),
        "suite": KERNEL_SUITE,
        "scenarios": scenarios,
        "speedup_vectorized_vs_simulation": round(vector_rate / baseline, 2) if baseline else None,
        "parity": parity,
    }


def run_store_benchmark(quick: bool) -> dict:
    """The persistent-store snapshot: cold suite replay vs 100% warm hits.

    The cold pass records every envelope into a fresh store; the warm
    pass rebuilds the whole stack from disk (fresh :class:`BatchRunner`,
    fresh :class:`ResultStore` handle -- exactly what a new process or a
    CI machine with a shipped cache would see) and must answer all specs
    from the store with bit-identical fingerprints.
    """
    suite_name = KERNEL_SUITE if quick else STORE_SUITE
    specs = spec_suite(suite_name)
    suite_digest = hashlib.sha256(
        "\n".join(spec.canonical_hash() for spec in specs).encode("utf-8")
    ).hexdigest()

    store_dir = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        clear_compiled_cache()
        cold_runner = BatchRunner(backend="vectorized", store=ResultStore(store_dir))
        cold_record, cold_results = _measure(cold_runner, specs)

        # A brand-new runner *and* store handle: everything must come
        # back from the segments on disk, not from any in-memory state.
        warm_store = ResultStore(store_dir)
        warm_runner = BatchRunner(backend="vectorized", store=warm_store)
        warm_record, warm_results = _measure(warm_runner, specs)

        fingerprints_identical = [r.fingerprint() for r in cold_results] == [
            r.fingerprint() for r in warm_results
        ]
        store_stats = warm_store.stats()
        disk = {
            "segments": store_stats.segments,
            "records": store_stats.records,
            "unique": store_stats.unique,
            "total_bytes": store_stats.total_bytes,
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    cold_rate = cold_record["specs_per_second"] or 0.0
    warm_rate = warm_record["specs_per_second"] or 0.0
    return {
        "benchmark": "repro persistent result store replay",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_at_unix": int(time.time()),
        "suite": suite_name,
        "suite_spec_hash_digest": suite_digest,
        "scenarios": {
            "store_cold": cold_record,
            "store_warm_replay": warm_record,
        },
        "store_on_disk": disk,
        "speedup_warm_vs_cold": round(warm_rate / cold_rate, 2) if cold_rate else None,
        "warm_replay": {
            "specs": len(specs),
            "store_hits": warm_record["solved_from_store"],
            "solved_fresh": len(specs)
            - warm_record["cache_hits"]
            - warm_record["solved_from_store"],
            "all_from_store": warm_record["solved_from_store"] == len(specs),
            "fingerprints_identical_to_cold": fingerprints_identical,
        },
    }


def _percentiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies)

    def percentile(fraction: float) -> float:
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return round(ordered[index] * 1e3, 3)

    return {
        "p50": percentile(0.50),
        "p99": percentile(0.99),
        "max": round(ordered[-1] * 1e3, 3) if ordered else None,
    }


def _fire_workload(
    host: str, port: int, specs: list, binary: bool = False
) -> tuple[dict, dict, list]:
    """Stream one duplicate-heavy workload at a daemon or router address.

    ``SERVE_CLIENTS`` concurrent connections, one request in flight per
    connection (each latency is a true round trip); ``binary`` switches
    every client to the negotiated binary frames.  Returns the scenario
    record (including bytes-on-wire), the first-seen envelope per unique
    spec hash and the failure list.
    """
    import threading

    from repro.service import ServiceClient

    latencies: list[float] = []
    latency_lock = threading.Lock()
    first_seen: dict[str, dict] = {}
    failures: list[str] = []
    wire = {"sent": 0, "received": 0}

    def client(slot: int) -> None:
        indices = range(slot, len(specs), SERVE_CLIENTS)
        if not indices:
            return
        with ServiceClient(host, port, binary=binary, timeout=120) as connection:
            for i in indices:
                request = {"op": "solve", "spec": specs[i].to_dict(), "id": i}
                sent = time.perf_counter()
                response = connection.request(request)
                elapsed = time.perf_counter() - sent
                with latency_lock:
                    latencies.append(elapsed)
                    if not response.get("ok"):
                        failures.append(str(response.get("error")))
                    else:
                        spec_hash = response["result"]["provenance"]["spec_hash"]
                        first_seen.setdefault(spec_hash, response["result"])
            with latency_lock:
                wire["sent"] += connection.bytes_sent
                wire["received"] += connection.bytes_received

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    record = {
        "requests": len(specs),
        "unique": len(first_seen),
        "clients": SERVE_CLIENTS,
        "wire_format": "binary" if binary else "json",
        "failures": len(failures),
        "wall_time_s": round(wall, 4),
        "requests_per_second": round(len(specs) / wall, 2) if wall > 0 else None,
        "latency_ms": _percentiles(latencies),
        "bytes_sent": wire["sent"],
        "bytes_received": wire["received"],
        "bytes_per_request": round((wire["sent"] + wire["received"]) / len(specs), 1)
        if specs
        else None,
    }
    return record, first_seen, failures


def _hot_latency(host: str, port: int, spec, binary: bool, rounds: int) -> dict:
    """Warm-hit latency of one persistent connection requesting one spec.

    The first two requests populate the service LRU and (on the binary
    path) the daemon's hot response cache; the measured rounds are the
    steady-state repeat-request story the wire format is judged on.
    """
    from repro.service import ServiceClient

    request = {"op": "solve", "spec": spec.to_dict()}
    latencies: list[float] = []
    with ServiceClient(host, port, binary=binary, timeout=120) as connection:
        for _ in range(2):
            warmup = connection.request(request)
            assert warmup.get("ok"), warmup
        for _ in range(rounds):
            sent = time.perf_counter()
            response = connection.request(request)
            latencies.append(time.perf_counter() - sent)
        served_by = response.get("served_by")
        per_request = (connection.bytes_sent + connection.bytes_received) / (rounds + 2)
    return {
        "rounds": rounds,
        "wire_format": "binary" if binary else "json",
        "served_by": served_by,
        "latency_ms": _percentiles(latencies),
        "mean_latency_ms": round(sum(latencies) / len(latencies) * 1e3, 3),
        "bytes_per_request": round(per_request, 1),
    }


def _serve_round(
    specs: list, store_dir: Path, backend: str, binary: bool = False
) -> tuple[dict, dict, dict]:
    """Fire the duplicate-heavy workload at one fresh daemon.

    Returns the scenario record, the daemon's own metrics document and a
    mapping of first-seen response fingerprints per unique spec hash.
    """
    import json as json_module

    from repro.service import AsyncReproServer, request_lines

    with AsyncReproServer(
        backend=backend, store=store_dir, max_inflight=SERVE_CLIENTS
    ) as server:
        server.serve_background()
        record, first_seen, _ = _fire_workload(server.host, server.port, specs, binary=binary)
        (metrics_line,) = request_lines(
            server.host, server.port, [json_module.dumps({"op": "metrics"})]
        )
        metrics = json_module.loads(metrics_line)["metrics"]
    return record, metrics, first_seen


def run_serve_benchmark(quick: bool) -> dict:
    """The serving-tier snapshot: concurrent daemon vs per-request facade.

    The workload is duplicate-heavy (every suite spec requested
    ``SERVE_DUPLICATION`` times) -- exactly where a serving tier must
    beat the no-service baseline of one facade ``solve()`` per request,
    because the LRU, the store and in-flight coalescing answer the
    duplicates without solving.

    Two wire formats are measured on the same warm store -- JSON lines
    and the negotiated binary frames -- plus the single-connection
    warm-hit latency of each (the daemon's hot response cache is the
    binary path's reason to exist).
    """
    import os as os_module

    from repro.api import SolveResult, solve
    from repro.service import AsyncReproServer

    backend = "auto"
    suite = spec_suite(SERVE_SUITE)
    if quick:
        suite = suite[: max(8, len(suite) // 4)]
    # Duplicates sit *adjacent* in the workload, so round-robin clients
    # request the same spec at the same moment -- the in-flight
    # coalescing case, not just the warm-cache one.
    workload = [spec for spec in suite for _ in range(SERVE_DUPLICATION)]

    # Baseline: the pre-daemon serving story, one independent facade
    # call per request (no shared runner, no cache between requests).
    clear_compiled_cache()
    baseline_start = time.perf_counter()
    baseline_results = [solve(spec, backend=backend) for spec in workload]
    baseline_wall = time.perf_counter() - baseline_start
    facade_record = {
        "requests": len(workload),
        "unique": len(suite),
        "wall_time_s": round(baseline_wall, 4),
        "requests_per_second": round(len(workload) / baseline_wall, 2)
        if baseline_wall > 0
        else None,
    }
    expected = {
        result.provenance.spec_hash: result.fingerprint() for result in baseline_results
    }

    store_dir = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    try:
        clear_compiled_cache()
        cold_record, cold_metrics, cold_seen = _serve_round(workload, store_dir, backend)
        # Warm restart: a brand-new daemon over the published store --
        # the redeploy story, everything answered from disk.
        warm_record, warm_metrics, _ = _serve_round(workload, store_dir, backend)
        # The same warm store through binary frames: identical answers,
        # fewer bytes, and no JSON on the hot path.
        binary_record, binary_metrics, binary_seen = _serve_round(
            workload, store_dir, backend, binary=True
        )

        # Warm-hit latency tiers on one fresh daemon: a persistent
        # connection re-requesting one spec, JSON vs binary.
        hot_rounds = 50 if quick else 300
        with AsyncReproServer(backend=backend, max_inflight=SERVE_CLIENTS) as server:
            server.serve_background()
            hot_json = _hot_latency(server.host, server.port, suite[0], False, hot_rounds)
            hot_binary = _hot_latency(server.host, server.port, suite[0], True, hot_rounds)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    def parity_of(first_seen: dict) -> bool:
        return set(first_seen) == set(expected) and all(
            SolveResult.from_dict(envelope).fingerprint() == expected[spec_hash]
            for spec_hash, envelope in first_seen.items()
        )

    parity = parity_of(cold_seen) and parity_of(binary_seen)

    cold_rate = cold_record["requests_per_second"] or 0.0
    warm_rate = warm_record["requests_per_second"] or 0.0
    binary_rate = binary_record["requests_per_second"] or 0.0
    facade_rate = facade_record["requests_per_second"] or 0.0
    cold_totals = cold_metrics["totals"]
    json_wire = warm_record["bytes_sent"] + warm_record["bytes_received"]
    binary_wire = binary_record["bytes_sent"] + binary_record["bytes_received"]
    return {
        "benchmark": "repro serve concurrent throughput",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os_module.cpu_count(),
        "generated_at_unix": int(time.time()),
        "suite": SERVE_SUITE,
        "duplication": SERVE_DUPLICATION,
        "scenarios": {
            "facade_serial_per_request": facade_record,
            "serve_cold_store": cold_record,
            "serve_warm_store": warm_record,
            "serve_warm_store_binary": binary_record,
            "serve_hot_single_connection_json": hot_json,
            "serve_hot_single_connection_binary": hot_binary,
        },
        "serve_metrics_cold": cold_metrics,
        "serve_metrics_warm": warm_metrics,
        "serve_metrics_binary": binary_metrics,
        "speedup_serve_cold_vs_facade": round(cold_rate / facade_rate, 2)
        if facade_rate
        else None,
        "speedup_serve_warm_vs_facade": round(warm_rate / facade_rate, 2)
        if facade_rate
        else None,
        "speedup_binary_vs_json_warm": round(binary_rate / warm_rate, 2)
        if warm_rate
        else None,
        "wire_bytes_binary_vs_json": round(binary_wire / json_wire, 3)
        if json_wire
        else None,
        "warm_hit_p50_binary_ms": hot_binary["latency_ms"]["p50"],
        "warm_hit_p50_json_ms": hot_json["latency_ms"]["p50"],
        "coalescing_observed": cold_totals["coalesced"] > 0,
        "hits_observed": (
            cold_totals["cache_hits"] + cold_totals["store_hits"] + cold_totals["coalesced"]
        )
        > 0,
        "served_fingerprints_identical_to_facade": parity,
        "serve_failures": cold_record["failures"]
        + warm_record["failures"]
        + binary_record["failures"],
    }


def _cluster_round(specs: list, workers: int, store_dir: Path, backend: str) -> tuple[dict, dict, dict]:
    """Fire the duplicate-heavy workload at a fresh N-worker cluster.

    Returns the scenario record (with the shard spread folded in), the
    router's metrics document and the first-seen envelopes.
    """
    import json as json_module

    from repro.cluster import ClusterSupervisor, boot_router
    from repro.service import request_lines

    supervisor = ClusterSupervisor(workers=workers, backend=backend, store=store_dir)
    spawn_start = time.perf_counter()
    router = boot_router(supervisor, backend=backend)
    spawn_wall = time.perf_counter() - spawn_start
    with router:
        router.serve_background()
        record, first_seen, _ = _fire_workload(router.host, router.port, specs)
        (metrics_line,) = request_lines(
            router.host, router.port, [json_module.dumps({"op": "metrics"})]
        )
        metrics = json_module.loads(metrics_line)["metrics"]
    record["workers"] = workers
    record["spawn_wall_time_s"] = round(spawn_wall, 4)
    record["router_coalesced"] = metrics["cluster"]["router_coalesced"]
    record["worker_restarts"] = metrics["cluster"]["worker_restarts"]
    record["shard_spread"] = [row["forwarded"] for row in metrics["shards"]]
    record["worker_links"] = "binary"  # router->worker frames negotiate up
    kernel = [
        row["metrics"].get("kernel_cache")
        for row in metrics["shards"]
        if isinstance(row.get("metrics"), dict)
    ]
    if all(stats is not None for stats in kernel):
        record["worker_local_compiles"] = [stats["local_compiles"] for stats in kernel]
    return record, metrics, first_seen


def run_cluster_benchmark(quick: bool) -> dict:
    """The sharded-serving snapshot: one router over 1/2/4 worker processes.

    Same duplicate-heavy workload shape as the serve benchmark, fired at
    a cold-store cluster per fleet size, plus the single-process daemon
    as the no-router baseline.  The backend is ``simulation`` -- the
    measured-fidelity, CPU-bound path a cluster exists to scale -- so
    the scenario is solve-dominated rather than proxy-dominated; note
    ``cpu_count`` in the snapshot, because fleet scaling is bounded by
    the cores available to the worker processes.  Every unique envelope
    must be bit-identical to the direct facade ``solve()`` no matter
    which worker answered -- the fingerprint-parity assertion that
    makes the sharding safe.
    """
    import os as os_module

    from repro.api import SolveResult, solve

    backend = "simulation"
    suite = spec_suite(SERVE_SUITE)
    if quick:
        suite = suite[: max(8, len(suite) // 4)]
    workload = [spec for spec in suite for _ in range(SERVE_DUPLICATION)]
    worker_counts = (1, 2) if quick else (1, 2, 4)

    clear_compiled_cache()
    expected = {
        result.provenance.spec_hash: result.fingerprint()
        for result in (solve(spec, backend=backend) for spec in suite)
    }

    def parity_of(first_seen: dict) -> bool:
        return set(first_seen) == set(expected) and all(
            SolveResult.from_dict(envelope).fingerprint() == expected[spec_hash]
            for spec_hash, envelope in first_seen.items()
        )

    scenarios: dict[str, dict] = {}
    parity: dict[str, bool] = {}
    failures_total = 0

    # The no-router baseline: the single-process daemon on the same workload.
    store_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cluster-"))
    try:
        clear_compiled_cache()
        record, _, first_seen = _serve_round(workload, store_dir / "single", backend)
        scenarios["serve_single_daemon"] = record
        parity["serve_single_daemon"] = parity_of(first_seen)
        failures_total += record["failures"]

        for workers in worker_counts:
            clear_compiled_cache()
            name = f"cluster_workers_{workers}"
            record, _, first_seen = _cluster_round(
                workload, workers, store_dir / name, backend
            )
            scenarios[name] = record
            parity[name] = parity_of(first_seen)
            failures_total += record["failures"]
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    def rate(name: str) -> float:
        return scenarios[name]["requests_per_second"] or 0.0

    base_rate = rate("cluster_workers_1")
    single_rate = rate("serve_single_daemon")
    return {
        "benchmark": "repro sharded cluster serving throughput",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os_module.cpu_count(),
        "generated_at_unix": int(time.time()),
        "suite": SERVE_SUITE,
        "duplication": SERVE_DUPLICATION,
        "clients": SERVE_CLIENTS,
        "requests": len(workload),
        "scenarios": scenarios,
        "speedup_workers_2_vs_1": round(rate("cluster_workers_2") / base_rate, 2)
        if base_rate
        else None,
        "speedup_workers_4_vs_1": round(rate("cluster_workers_4") / base_rate, 2)
        if base_rate and "cluster_workers_4" in scenarios
        else None,
        "speedup_workers_2_vs_single_daemon": round(
            rate("cluster_workers_2") / single_rate, 2
        )
        if single_rate
        else None,
        "served_fingerprints_identical_to_facade": all(parity.values()),
        "parity_by_scenario": parity,
        "cluster_failures": failures_total,
    }


def _measure_montecarlo(runner: BatchRunner, specs: list) -> tuple[dict, list]:
    """One montecarlo pass: the facade record plus ensemble-level rates."""
    record, results = _measure(runner, specs)
    trials = sum(result.details.get("trials", 0) for result in results)
    wall = record["wall_time_s"]
    record["trials"] = trials
    record["trials_requested"] = sum(
        result.details.get("trials_requested", 0) for result in results
    )
    record["trials_per_second"] = round(trials / wall, 2) if wall > 0 else None
    record["mean_solve_rate"] = round(
        sum(result.details.get("solve_rate", 0.0) for result in results) / len(results), 4
    )
    return record, results


def run_montecarlo_benchmark(processes: int, quick: bool) -> dict:
    """Seeded trial ensembles through the montecarlo backend.

    Reports trials/s serially and through the worker pool, and asserts the
    determinism contract the faults subsystem is built on: independent
    runners -- serial repeat and pooled -- must produce bit-identical
    envelopes and result fingerprints for every spec.
    """
    specs = [spec for name in MONTECARLO_SUITES for spec in spec_suite(name)]

    scenarios = {}
    scenarios["montecarlo_serial_cold"], serial_results = _measure_montecarlo(
        BatchRunner(backend="montecarlo"), specs
    )
    scenarios["montecarlo_serial_repeat"], repeat_results = _measure_montecarlo(
        BatchRunner(backend="montecarlo"), specs
    )
    pool_size = min(processes, 2) if quick else processes
    scenarios["montecarlo_pooled_cold"], pooled_results = _measure_montecarlo(
        BatchRunner(backend="montecarlo", processes=pool_size), specs
    )

    reference = [result.fingerprint() for result in serial_results]
    envelopes = [result.details["envelope"] for result in serial_results]
    repeat_identical = (
        reference == [result.fingerprint() for result in repeat_results]
        and envelopes == [result.details["envelope"] for result in repeat_results]
    )
    pooled_identical = (
        reference == [result.fingerprint() for result in pooled_results]
        and envelopes == [result.details["envelope"] for result in pooled_results]
    )

    return {
        "benchmark": "repro.faults montecarlo trial-ensemble throughput",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_at_unix": int(time.time()),
        "workload": {
            "suites": list(MONTECARLO_SUITES),
            "total_specs": len(specs),
            "trials_requested": scenarios["montecarlo_serial_cold"]["trials_requested"],
        },
        "scenarios": scenarios,
        "envelopes_identical_serial_repeat": repeat_identical,
        "envelopes_identical_serial_pooled": pooled_identical,
    }


def _async_scaling_round(host: str, port: int, spec, connections: int, rounds: int) -> dict:
    """Hold ``connections`` persistent sockets open and measure warm hits.

    One asyncio event loop drives every connection (so the *load
    generator* costs one thread regardless of N and the measured thread
    growth is the server's alone).  All connections are opened first,
    one unrecorded probe round forces the server to stand up whatever
    per-connection state it uses, the peak thread count is sampled --
    the server runs in-process, so ``threading.active_count()`` sees
    any thread it spends per connection -- and then ``rounds`` warm-hit
    round trips run concurrently on every connection.
    """
    import asyncio
    import threading

    payload = (json.dumps({"op": "solve", "spec": spec.to_dict()}) + "\n").encode("utf-8")
    latencies: list[float] = []
    failures: list[str] = []
    state = {"connected": 0, "peak_threads": 0}

    async def drive() -> None:
        gate = asyncio.Semaphore(32)  # stay under the accept backlog
        conns: list[tuple] = []

        async def connect_one() -> None:
            async with gate:
                try:
                    conns.append(await asyncio.open_connection(host, port))
                except OSError as error:
                    failures.append(f"connect: {error}")

        await asyncio.gather(*(connect_one() for _ in range(connections)))
        state["connected"] = len(conns)

        async def round_trip(reader, writer, record: bool) -> None:
            start = time.perf_counter()
            try:
                writer.write(payload)
                await writer.drain()
                line = await reader.readline()
            except OSError as error:
                failures.append(str(error))
                return
            if not line:
                failures.append("connection closed mid-round")
                return
            if record:
                latencies.append(time.perf_counter() - start)
            response = json.loads(line)
            if not response.get("ok"):
                failures.append(str(response.get("error")))

        await asyncio.gather(*(round_trip(reader, writer, False) for reader, writer in conns))
        state["peak_threads"] = threading.active_count()
        for _ in range(rounds):
            await asyncio.gather(
                *(round_trip(reader, writer, True) for reader, writer in conns)
            )
        for _, writer in conns:
            writer.close()
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    asyncio.run(drive())
    return {
        "connections": connections,
        "connected": state["connected"],
        "requests": len(latencies),
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "threads_at_peak": state["peak_threads"],
        "latency_ms": _percentiles(latencies) if latencies else None,
    }


def _async_scaling_scenario(server, spec, steps, rounds: int) -> list[dict]:
    """Run every connection step against one warm in-process server."""
    import threading

    records = []
    for connections in steps:
        baseline = threading.active_count()
        record = _async_scaling_round(server.host, server.port, spec, connections, rounds)
        record["baseline_threads"] = baseline
        growth = max(0, record["threads_at_peak"] - baseline)
        record["threads_per_connection"] = (
            round(growth / record["connected"], 3) if record["connected"] else None
        )
        records.append(record)
        # Let any thread the previous step started retire so the next
        # baseline is clean.
        deadline = time.monotonic() + 10.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
    return records


def run_async_benchmark(quick: bool) -> dict:
    """The asyncio-transport snapshot: connection scaling + streamed sweep.

    Two stories, both against in-process daemons on the same workload:

    * **Connection scaling** -- {8, 64, 256, 512} persistent
      connections doing warm-hit round trips against the daemon, with
      its measured per-connection thread cost (the event loop spends
      none) and the largest step it sustained without a failure.
    * **Streamed sweep** -- the large search sweep pushed through the
      ``subscribe`` verb twice on one connection; the cold pass must
      reproduce ``BatchRunner.run()``'s order-independent fingerprint
      digest bit-for-bit and stream the exact completion set, the warm
      pass must be answered entirely from the hot response cache, and
      shutdown must leak zero event-loop tasks.
    """
    import os

    from repro.experiments.manifest import fingerprint_digest
    from repro.service import AsyncReproServer, ServiceClient

    steps = ASYNC_CONNECTION_STEPS
    rounds = 3 if quick else 10
    spec = spec_suite(SERVE_SUITE)[0]

    with AsyncReproServer(backend="auto") as server:
        server.serve_background()
        with ServiceClient(server.host, server.port) as warmup:
            for _ in range(2):
                response = warmup.request({"op": "solve", "spec": spec.to_dict()})
                assert response.get("ok"), response
        records = _async_scaling_scenario(server, spec, steps, rounds)
    costs = [
        record["threads_per_connection"]
        for record in records
        if record["threads_per_connection"] is not None
    ]
    scaling = {
        "steps": records,
        "threads_per_connection": max(costs) if costs else None,
        "sustained_connections": max(
            (
                record["connections"]
                for record in records
                if record["connected"] == record["connections"] and not record["failures"]
            ),
            default=0,
        ),
        "leaked_tasks": len(server.leaked_tasks),
    }

    # -- the streamed sweep -------------------------------------------------
    suite_name = SERVE_SUITE if quick else ASYNC_SWEEP_SUITE
    suite = spec_suite(suite_name)
    expected_results, _ = BatchRunner(backend="auto").run(suite)
    expected_digest = fingerprint_digest(expected_results)
    expected_hashes = {result.provenance.spec_hash for result in expected_results}

    passes = []
    with AsyncReproServer(backend="auto") as server:
        server.serve_background()
        with ServiceClient(server.host, server.port) as client:
            for _ in range(2):
                started = time.perf_counter()
                stream = client.subscribe(suite, backend="auto")
                streamed = list(stream)
                wall = time.perf_counter() - started
                summary = stream.summary
                passes.append(
                    {
                        "records": summary["records"],
                        "errors": summary["errors"],
                        "sources": summary["sources"],
                        "fingerprint_digest": summary["fingerprint_digest"],
                        "wall_time_ms": round(wall * 1e3, 1),
                        "records_per_second": round(summary["records"] / wall, 1)
                        if wall > 0
                        else None,
                        "completion_set": {
                            record["key"]["spec_hash"] for record in streamed
                        },
                    }
                )
    cold, warm = passes
    cold_hashes = cold.pop("completion_set")
    warm.pop("completion_set")
    unique = len(expected_hashes)

    gates = {
        "async_scaling_all_sustained": scaling["sustained_connections"] == max(steps),
        "digest_identical_to_batch_runner": cold["fingerprint_digest"] == expected_digest
        and warm["fingerprint_digest"] == expected_digest,
        "completion_set_identical_to_run": cold_hashes == expected_hashes,
        "warm_pass_all_cache_hits": warm["sources"] == {"cache": unique},
        "zero_leaked_tasks": scaling["leaked_tasks"] == 0 and not server.leaked_tasks,
    }

    return {
        "benchmark": "repro.service asyncio transport: connection scaling + subscribe",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "generated_at_unix": int(time.time()),
        "quick": quick,
        "connection_steps": list(steps),
        "warm_rounds_per_connection": rounds,
        "scaling": scaling,
        "subscribe_sweep": {
            "suite": suite_name,
            "specs": len(suite),
            "unique": unique,
            "batch_runner_digest": expected_digest,
            "cold": cold,
            "warm": warm,
        },
        "gates": gates,
    }


def _drive_sweep_stream(client, suite, backend: str, mode: str, on_record=None) -> dict:
    """One streamed pass (``subscribe`` or ``sweep``) with bytes-on-wire.

    ``on_record(count)`` fires after every yielded completion record --
    the kill pass uses it to take a worker down mid-stream.  Byte counts
    are deltas of the client's counters, so one connection can host
    several measured passes.
    """
    sent_before = client.bytes_sent
    received_before = client.bytes_received
    started = time.perf_counter()
    if mode == "subscribe":
        stream = client.subscribe(suite, backend=backend)
    else:
        stream = client.sweep(suite, backend=backend, mode=mode)
    records = 0
    fold_doc = None
    for record in stream:
        if record.get("op") == "partial":
            fold_doc = record.get("fold")
            continue
        records += 1
        if on_record is not None:
            on_record(records)
    wall = time.perf_counter() - started
    summary = stream.summary
    pass_record = {
        "verb": "subscribe" if mode == "subscribe" else f"sweep/{mode}",
        "records": records,
        "errors": summary["errors"],
        "unique": summary["unique"],
        "sources": summary["sources"],
        "wall_time_s": round(wall, 4),
        "specs_per_second": round(summary["unique"] / wall, 1) if wall > 0 else None,
        "bytes_sent": client.bytes_sent - sent_before,
        "bytes_received": client.bytes_received - received_before,
        "fanout": stream.ack.get("fanout"),
        "ack_partitions": stream.ack.get("partitions"),
        "partitions": summary.get("partitions"),
        "repartitioned": summary.get("repartitioned"),
        "fingerprint_digest": summary.get("fingerprint_digest"),
        "fold_digest": summary.get("fold_digest"),
    }
    if fold_doc is not None:
        pass_record["fold"] = fold_doc
    return pass_record


def _fold_tables_close(merged: dict, local: dict, tolerance: float = 1e-6) -> bool:
    """Router-merged fold vs local single-stream fold, wire-doc form.

    Counts must match exactly; the running moments merge in a different
    association order than a single stream pushes, so means and extrema
    compare within a relative tolerance instead of bit-for-bit.
    """
    if merged.get("total") != local.get("total"):
        return False
    merged_groups = {(g["kind"], g["backend"]): g for g in merged.get("groups", [])}
    local_groups = {(g["kind"], g["backend"]): g for g in local.get("groups", [])}
    if set(merged_groups) != set(local_groups):
        return False
    for key, mine in merged_groups.items():
        other = local_groups[key]
        for field in ("count", "solved", "unsolved", "bound_only", "infeasible"):
            if mine[field] != other[field]:
                return False
        for stat in ("measured_time", "bound_ratio"):
            a, b = mine[stat], other[stat]
            if a["count"] != b["count"]:
                return False
            for field in ("mean", "min", "max"):
                left, right = a.get(field), b.get(field)
                if left is None or right is None:
                    if left != right:
                        return False
                elif abs(left - right) > tolerance * max(1.0, abs(left), abs(right)):
                    return False
    return True


def run_sweep_benchmark(quick: bool) -> dict:
    """The distributed-sweep snapshot: partitioned batch plans over the fleet.

    Three fresh 2-worker fleets on the large search sweep:

    * **subscribe** -- the ``subscribe`` verb, cold: the router runs it
      through the sweep's partitions and answers with the subscribe
      ack, records and summary, whose digest must equal the local run's;
    * **sweep** -- the ``sweep`` verb ships each worker its whole
      partition as one request; the worker runs it as a single local
      batch plan (LRU / store / kernel batch / pool tiers all active)
      and streams completions back.  Cold, then warm (all cache), then
      a ``fold`` pass whose merged aggregate tables must match a local
      fold and ride >=10x fewer bytes than the streamed envelopes;
    * **kill** -- the same sweep on the ``simulation`` backend with
      worker 0 SIGKILLed mid-stream: the router re-partitions the dead
      worker's unfinished specs along the ring's failover order, the
      digest stays bit-identical to a local run, and the supervisor
      respawns the worker.
    """
    import json as json_module

    from repro.analysis.streaming import fold_envelopes
    from repro.cluster import ClusterSupervisor, boot_router
    from repro.experiments.manifest import fingerprint_digest, fold_digest
    from repro.service import ServiceClient, request_lines

    backend = "auto"
    suite = spec_suite(SWEEP_SUITE)

    # Local references: the digests and fold tables every distributed
    # pass must reproduce.
    clear_compiled_cache()
    local_results, local_stats = BatchRunner(backend=backend).run(suite)
    expected_digest = fingerprint_digest(local_results)
    expected_fold_digest = fold_digest(local_results)
    local_fold = fold_envelopes(result.to_dict() for result in local_results).to_wire()
    simulation_results, _ = BatchRunner(backend="simulation").run(suite)
    expected_simulation_digest = fingerprint_digest(simulation_results)

    def fleet(fleet_backend: str):
        supervisor = ClusterSupervisor(
            workers=SWEEP_WORKERS,
            backend=fleet_backend,
            store=None,
        )
        router = boot_router(supervisor, backend=fleet_backend)
        router.serve_background()
        return supervisor, router

    scenarios: dict[str, dict] = {}

    # Fleet A: the subscribe verb, cold.
    _, router = fleet(backend)
    with router:
        with ServiceClient(router.host, router.port, timeout=300) as client:
            scenarios["subscribe_cold"] = _drive_sweep_stream(
                client, suite, backend, "subscribe"
            )

    # Fleet B: the partitioned sweep -- cold, warm, fold -- plus the
    # router's per-shard sweep counters.
    _, router = fleet(backend)
    with router:
        with ServiceClient(router.host, router.port, timeout=300) as client:
            scenarios["sweep_cold"] = _drive_sweep_stream(client, suite, backend, "stream")
            scenarios["sweep_warm"] = _drive_sweep_stream(client, suite, backend, "stream")
            scenarios["sweep_fold"] = _drive_sweep_stream(client, suite, backend, "fold")
        (metrics_line,) = request_lines(
            router.host, router.port, [json_module.dumps({"op": "metrics"})]
        )
        sweep_counters = [
            {"worker": row["worker"], **row["sweeps"]}
            for row in json_module.loads(metrics_line)["metrics"]["shards"]
        ]

    # Fleet C: the mid-sweep worker kill, on the scalar simulation
    # backend so the stream is paced and the kill lands mid-partition.
    supervisor, router = fleet("simulation")
    with router:
        killed = {"done": False}

        def kill_worker(count: int) -> None:
            if count == 3 and not killed["done"]:
                killed["done"] = True
                supervisor.handles[0].process.kill()

        with ServiceClient(router.host, router.port, timeout=300) as client:
            scenarios["sweep_worker_kill"] = _drive_sweep_stream(
                client, suite, "simulation", "stream", on_record=kill_worker
            )
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and not supervisor.handles[0].alive:
            time.sleep(0.1)
        respawned = supervisor.handles[0].alive and supervisor.handles[0].restarts >= 1

    cold = scenarios["sweep_cold"]
    warm = scenarios["sweep_warm"]
    fold = scenarios["sweep_fold"]
    kill = scenarios["sweep_worker_kill"]
    unique = local_stats.unique
    stream_bytes = cold["bytes_received"]
    fold_bytes = fold["bytes_received"]

    gates = {
        "subscribe_digest_parity": scenarios["subscribe_cold"]["fingerprint_digest"]
        == expected_digest,
        "fleet_batch_tier_engaged": cold["sources"].get("batch", 0) > 0
        and all(row["completed"] > 0 for row in cold["partitions"]),
        "digest_parity_cold": cold["fingerprint_digest"] == expected_digest,
        "digest_parity_warm": warm["fingerprint_digest"] == expected_digest,
        "digest_parity_after_worker_kill": kill["fingerprint_digest"]
        == expected_simulation_digest,
        "fold_digest_parity": fold["fold_digest"] == expected_fold_digest,
        "fold_table_matches_local_fold": _fold_tables_close(fold["fold"], local_fold),
        "fold_bytes_reduction_at_least_10x": fold_bytes > 0
        and stream_bytes >= 10 * fold_bytes,
        "warm_pass_all_cached": warm["sources"] == {"cache": unique},
        "no_errors": all(record["errors"] == 0 for record in scenarios.values()),
        "worker_killed_and_respawned": killed["done"] and respawned,
    }

    return {
        "benchmark": "repro distributed sweep: partitioned batch plans over the fleet",
        "library_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_at_unix": int(time.time()),
        "quick": quick,
        "suite": SWEEP_SUITE,
        "specs": len(suite),
        "unique": unique,
        "workers": SWEEP_WORKERS,
        "batch_runner_digest": expected_digest,
        "batch_runner_fold_digest": expected_fold_digest,
        "scenarios": scenarios,
        "sweep_counters": sweep_counters,
        "fold_bytes_reduction": round(stream_bytes / fold_bytes, 1)
        if fold_bytes
        else None,
        "kill_repartitioned": kill["repartitioned"],
        "worker_respawned": respawned,
        "gates": gates,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes", type=int, default=2, help="pool size for the pooled scenario"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small workload, no pool, fail on kernel parity drift",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write BENCH_api.json"
    )
    parser.add_argument(
        "--kernel-output",
        type=Path,
        default=DEFAULT_KERNEL_OUTPUT,
        help="where to write BENCH_kernel.json",
    )
    parser.add_argument(
        "--store-output",
        type=Path,
        default=DEFAULT_STORE_OUTPUT,
        help="where to write BENCH_store.json",
    )
    parser.add_argument(
        "--serve-output",
        type=Path,
        default=DEFAULT_SERVE_OUTPUT,
        help="where to write BENCH_serve.json",
    )
    parser.add_argument(
        "--cluster-output",
        type=Path,
        default=DEFAULT_CLUSTER_OUTPUT,
        help="where to write BENCH_cluster.json",
    )
    parser.add_argument(
        "--montecarlo-output",
        type=Path,
        default=DEFAULT_MONTECARLO_OUTPUT,
        help="where to write BENCH_montecarlo.json",
    )
    parser.add_argument(
        "--async-output",
        type=Path,
        default=DEFAULT_ASYNC_OUTPUT,
        help="where to write BENCH_async.json",
    )
    parser.add_argument(
        "--sweep-output",
        type=Path,
        default=DEFAULT_SWEEP_OUTPUT,
        help="where to write BENCH_sweep.json",
    )
    namespace = parser.parse_args()

    snapshot = run_benchmark(namespace.processes, namespace.quick)
    namespace.output.parent.mkdir(parents=True, exist_ok=True)
    namespace.output.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")

    kernel_snapshot = run_kernel_benchmark(namespace.quick)
    namespace.kernel_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.kernel_output.write_text(
        json.dumps(kernel_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    store_snapshot = run_store_benchmark(namespace.quick)
    namespace.store_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.store_output.write_text(
        json.dumps(store_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    serve_snapshot = run_serve_benchmark(namespace.quick)
    namespace.serve_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.serve_output.write_text(
        json.dumps(serve_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    cluster_snapshot = run_cluster_benchmark(namespace.quick)
    namespace.cluster_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.cluster_output.write_text(
        json.dumps(cluster_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    montecarlo_snapshot = run_montecarlo_benchmark(namespace.processes, namespace.quick)
    namespace.montecarlo_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.montecarlo_output.write_text(
        json.dumps(montecarlo_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    async_snapshot = run_async_benchmark(namespace.quick)
    namespace.async_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.async_output.write_text(
        json.dumps(async_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    sweep_snapshot = run_sweep_benchmark(namespace.quick)
    namespace.sweep_output.parent.mkdir(parents=True, exist_ok=True)
    namespace.sweep_output.write_text(
        json.dumps(sweep_snapshot, indent=2) + "\n", encoding="utf-8"
    )

    print(json.dumps(snapshot, indent=2))
    print(json.dumps(kernel_snapshot, indent=2))
    print(json.dumps(store_snapshot, indent=2))
    print(json.dumps(serve_snapshot, indent=2))
    print(json.dumps(cluster_snapshot, indent=2))
    print(json.dumps(montecarlo_snapshot, indent=2))
    print(json.dumps(async_snapshot, indent=2))
    print(json.dumps(sweep_snapshot, indent=2))
    print(
        f"\nsnapshots written to {namespace.output}, {namespace.kernel_output}, "
        f"{namespace.store_output}, {namespace.serve_output}, "
        f"{namespace.cluster_output}, {namespace.montecarlo_output}, "
        f"{namespace.async_output} and {namespace.sweep_output}"
    )

    if not kernel_snapshot["parity"]["within_tolerance"]:
        print(
            "ERROR: vectorized kernel event times drifted from the scalar engine "
            f"beyond TIME_TOLERANCE ({kernel_snapshot['parity']})",
            file=sys.stderr,
        )
        return 1
    warm_replay = store_snapshot["warm_replay"]
    if not (
        warm_replay["all_from_store"] and warm_replay["fingerprints_identical_to_cold"]
    ):
        print(
            "ERROR: warm store replay missed the store or drifted from the cold "
            f"fingerprints ({warm_replay})",
            file=sys.stderr,
        )
        return 1
    if (
        serve_snapshot["serve_failures"]
        or not serve_snapshot["served_fingerprints_identical_to_facade"]
        or not serve_snapshot["hits_observed"]
    ):
        print(
            "ERROR: serve benchmark failed requests, drifted from the direct facade "
            "answers, or served a duplicate-heavy workload without any cache/store/"
            f"coalescing hits ({serve_snapshot['scenarios']})",
            file=sys.stderr,
        )
        return 1
    if (
        cluster_snapshot["cluster_failures"]
        or not cluster_snapshot["served_fingerprints_identical_to_facade"]
    ):
        print(
            "ERROR: cluster benchmark dropped requests or a sharded answer "
            f"drifted from the direct facade solve ({cluster_snapshot['parity_by_scenario']})",
            file=sys.stderr,
        )
        return 1
    if not namespace.quick and serve_snapshot["warm_hit_p50_binary_ms"] >= 0.5:
        print(
            "ERROR: binary warm-hit p50 "
            f"{serve_snapshot['warm_hit_p50_binary_ms']} ms missed the 0.5 ms budget",
            file=sys.stderr,
        )
        return 1
    if not (
        montecarlo_snapshot["envelopes_identical_serial_repeat"]
        and montecarlo_snapshot["envelopes_identical_serial_pooled"]
    ):
        print(
            "ERROR: montecarlo envelopes are not bit-identical across independent "
            "serial/pooled runs -- the seeded determinism contract is broken "
            f"({montecarlo_snapshot['scenarios']})",
            file=sys.stderr,
        )
        return 1
    failed_async_gates = [
        name for name, passed in async_snapshot["gates"].items() if not passed
    ]
    if failed_async_gates:
        print(
            f"ERROR: async benchmark gates failed: {', '.join(failed_async_gates)} "
            f"(sustained {async_snapshot['scaling']['sustained_connections']} "
            f"connections, subscribe {async_snapshot['subscribe_sweep']})",
            file=sys.stderr,
        )
        return 1
    failed_sweep_gates = [
        name for name, passed in sweep_snapshot["gates"].items() if not passed
    ]
    if failed_sweep_gates:
        print(
            f"ERROR: distributed sweep gates failed: {', '.join(failed_sweep_gates)} "
            f"(fold bytes reduction {sweep_snapshot['fold_bytes_reduction']}, "
            f"kill repartitioned {sweep_snapshot['kill_repartitioned']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
