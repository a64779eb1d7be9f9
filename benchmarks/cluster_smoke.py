"""CI smoke for the sharded cluster: 2 workers up, suite through the router twice.

Run with::

    PYTHONPATH=src python benchmarks/cluster_smoke.py [--suite NAME] [--workers N]

Boots a worker fleet plus a :class:`~repro.cluster.AsyncShardRouter` on
ephemeral ports with a fresh primary store, then pushes the quick suite
through the router **twice** and fails (non-zero exit) unless:

* every response on both passes is ``ok`` and bit-identical in
  fingerprint to a direct in-process ``solve()`` of the same spec;
* the second pass is answered entirely without fresh solves (worker
  LRU / store / coalescing hits) -- the warm-path gate;
* a third pass through the **binary wire frames** returns the same
  fingerprints again;
* the fleet creates no shared memory: after the cold pass, while the
  workers are up, ``/dev/shm`` holds no new ``psm_*`` segment;
* the router's shard counters show every worker took traffic and no
  worker was restarted (this is the happy-path smoke; failover has its
  own tests);
* after a drain the worker stores have merged into the primary store,
  which holds exactly one record per unique spec;
* nothing is left behind in ``/dev/shm`` after the fleet drains.

No timings are asserted -- the throughput story lives in
``BENCH_cluster.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from repro.api import BatchRunner, ResultStore, SolveResult
from repro.cluster import AsyncShardRouter, ClusterSupervisor, boot_router
from repro.service import ServiceClient, request_lines
from repro.workloads import spec_suite


def shm_entries() -> set:
    """Names currently in /dev/shm (empty off Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _push(router: AsyncShardRouter, specs: list) -> list[dict]:
    lines = [
        json.dumps({"op": "solve", "spec": spec.to_dict(), "id": index})
        for index, spec in enumerate(specs)
    ]
    return [json.loads(line) for line in request_lines(router.host, router.port, lines)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="search-sweep", help="workload suite to stream")
    parser.add_argument("--workers", type=int, default=2, help="shard worker processes")
    parser.add_argument("--backend", default="auto", help="cluster default backend")
    namespace = parser.parse_args()

    suite = spec_suite(namespace.suite)
    expected_results, _ = BatchRunner(backend=namespace.backend).run(suite)
    expected = {
        result.provenance.spec_hash: result.fingerprint() for result in expected_results
    }

    failures: list[str] = []
    shm_before = shm_entries()
    store_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-smoke-"))
    supervisor = ClusterSupervisor(
        workers=namespace.workers, backend=namespace.backend, store=store_dir
    )
    try:
        # boot_router kills the fleet if the boot fails; the inner
        # finally stops it on any failure after that -- either way the
        # detached workers never outlive the smoke run.
        router = boot_router(supervisor, backend=namespace.backend)
        try:
            router.serve_background()
            print(
                f"cluster smoke: router on {router.address}, {namespace.workers} worker(s) "
                f"({', '.join(handle.address or '?' for handle in supervisor.handles)}), "
                f"{len(suite)} specs x 2 passes"
            )

            cold = _push(router, suite)
            fleet_shm = sorted(
                name for name in shm_entries() - shm_before if name.startswith("psm_")
            )
            warm = _push(router, suite)
            binary: list[dict] = []
            with ServiceClient(router.host, router.port, binary=True) as client:
                if client.format != "binary":
                    binary.append({"ok": False, "error": "binary upgrade was declined"})
                else:
                    for index, spec in enumerate(suite):
                        binary.append(
                            client.request(
                                {"op": "solve", "spec": spec.to_dict(), "id": index}
                            )
                        )
            (metrics_line,) = request_lines(
                router.host, router.port, [json.dumps({"op": "metrics"})]
            )
            metrics = json.loads(metrics_line)["metrics"]
        finally:
            router.stop()

        for label, responses in (("cold", cold), ("warm", warm), ("binary", binary)):
            bad = [response for response in responses if not response.get("ok")]
            if bad:
                failures.append(
                    f"{label} pass: {len(bad)} request(s) failed, "
                    f"first: {bad[0].get('error')}"
                )
                continue
            for response in responses:
                served = SolveResult.from_dict(response["result"])
                fingerprint = expected.get(served.provenance.spec_hash)
                if fingerprint is None or served.fingerprint() != fingerprint:
                    failures.append(
                        f"{label} pass: response {response.get('id')} drifted "
                        "from the direct solve"
                    )
                    break

        warm_sources = {response.get("served_by") for response in warm if response.get("ok")}
        if "solve" in warm_sources:
            failures.append(
                f"warm pass re-solved specs instead of hitting the caches: {warm_sources}"
            )
        if fleet_shm:
            failures.append(f"the running fleet created /dev/shm segment(s): {fleet_shm}")
        shard_rows = metrics["shards"]
        if not all(row["forwarded"] > 0 for row in shard_rows):
            failures.append(
                f"shard spread degenerate: {[row['forwarded'] for row in shard_rows]}"
            )
        if metrics["cluster"]["worker_restarts"]:
            failures.append(
                f"{metrics['cluster']['worker_restarts']} unexpected worker restart(s)"
            )

        merged = ResultStore(store_dir)
        if len(merged) != len(suite):
            failures.append(
                f"primary store holds {len(merged)} record(s) after drain, "
                f"expected {len(suite)}"
            )
        if (store_dir / "workers").exists():
            failures.append("worker store directories were not merged away on drain")

        totals = metrics["totals"]
        print(
            f"cluster smoke: {totals['requests']} routed = {totals['solves']} solved + "
            f"{totals['cache_hits']} cache + {totals['store_hits']} store + "
            f"{totals['coalesced']} coalesced; shard spread "
            f"{[row['forwarded'] for row in shard_rows]}; "
            f"{len(merged)} record(s) merged into the primary store"
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    leaked = shm_entries() - shm_before
    if leaked:
        failures.append(f"leaked /dev/shm segment(s) after drain: {sorted(leaked)}")

    if failures:
        for failure in failures:
            print(f"ERROR: {failure}", file=sys.stderr)
        return 1
    print(
        "cluster smoke: fingerprint parity OK on all three passes "
        "(json cold/warm + binary), no shared memory while up, /dev/shm clean after drain"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
