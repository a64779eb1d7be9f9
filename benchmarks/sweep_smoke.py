"""CI smoke for distributed sweeps: partitioned batch plans over a 2-worker fleet.

Run with::

    PYTHONPATH=src python benchmarks/sweep_smoke.py [--suite NAME] [--workers N]

Boots a worker fleet behind an :class:`~repro.cluster.AsyncShardRouter`
(ephemeral ports, fresh primary store) and ships the quick suite through
the partitioned ``sweep`` verb **twice** -- cold, then warm -- plus one
``fold`` pass, and fails (non-zero exit) unless:

* the ack reports the fan-out and per-worker partition sizes, and the
  partition sizes sum to the unique spec count;
* the cold pass streams every unique spec exactly once, in contiguous
  sequence order, and its order-independent ``fingerprint_digest`` is
  bit-identical to a local ``BatchRunner.run()`` over the same suite;
* every wire line of the cold pass (read raw, ack through summary) is
  exactly ``encode_response(json.loads(line))`` plus a newline -- the
  router splices each worker's pre-encoded ``result`` into the records
  it relays, and this keeps the splice from drifting from the
  canonical encoder;
* the warm pass is answered entirely from the worker caches
  (``sources == {"cache": unique}``) with the identical digest;
* the ``fold`` pass carries no per-spec envelopes, its router-merged
  per-``(kind, backend)`` tables equal a local
  :func:`~repro.analysis.streaming.fold_envelopes` over the same results
  (counts exact, running stats within tolerance), and its ``fold_digest``
  matches the local blob-hash digest;
* after a drain the worker stores have merged into the primary store,
  which holds exactly one record per unique spec;
* shutdown is clean: zero leaked event-loop tasks, no stray
  ``/dev/shm`` segment left behind by the fleet.

No timings are asserted -- the throughput story lives in
``BENCH_sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import sys
import tempfile
from pathlib import Path

from repro.analysis.streaming import fold_envelopes
from repro.api import BatchRunner, ResultStore
from repro.cluster import ClusterSupervisor, boot_router
from repro.experiments.manifest import fingerprint_digest, fold_digest
from repro.service import ServiceClient
from repro.service.protocol import encode_response
from repro.workloads import spec_suite


def shm_entries() -> set:
    """Names currently in /dev/shm (empty off Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_sweep(client: ServiceClient, specs, backend: str, mode: str):
    """One sweep pass: (ack, completion records, fold doc, summary)."""
    stream = client.sweep(specs, backend=backend, mode=mode)
    records = []
    fold_doc = None
    for record in stream:
        if record.get("op") == "partial":
            fold_doc = record.get("fold")
            continue
        records.append(record)
    assert stream.summary is not None  # iterator stops only on the summary
    return stream.ack, records, fold_doc, stream.summary


def raw_sweep(host: str, port: int, specs, backend: str) -> list[bytes]:
    """One stream-mode sweep read as raw wire lines, ack through summary."""
    request = {
        "op": "sweep",
        "mode": "stream",
        "backend": backend,
        "specs": [spec.to_dict() for spec in specs],
        "id": "cold",
    }
    lines = []
    with socket.create_connection((host, port), timeout=120.0) as connection:
        with connection.makefile("rwb") as stream:
            stream.write((json.dumps(request) + "\n").encode("utf-8"))
            stream.flush()
            while True:
                raw = stream.readline()
                if not raw:
                    break
                lines.append(raw)
                record = json.loads(raw)
                if record.get("op") == "summary" or not record.get("ok"):
                    break
    return lines


def split_pass(lines: list[bytes]):
    """A raw pass as (ack, completion records, summary)."""
    decoded = [json.loads(raw) for raw in lines]
    ack, summary = decoded[0], decoded[-1]
    if not ack.get("ok") or summary.get("op") != "summary":
        raise SystemExit(f"sweep smoke: the cold pass failed: {decoded[-1]}")
    return ack, decoded[1:-1], summary


def fold_tables_equal(merged: dict, local: dict, tolerance: float = 1e-6) -> bool:
    """Counts exact, running stats within a relative tolerance.

    The router merges per-shard partials in a different association
    order than a single stream pushes, so the Chan-merged moments are
    not bit-identical -- but the counts are, and the means/extrema agree
    to within float noise.
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
            left, right = mine[stat], other[stat]
            if left["count"] != right["count"]:
                return False
            for field in ("mean", "min", "max"):
                a, b = left.get(field), right.get(field)
                if a is None or b is None:
                    if a != b:
                        return False
                elif abs(a - b) > tolerance * max(1.0, abs(a), abs(b)):
                    return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="search-sweep", help="workload suite to sweep")
    parser.add_argument("--workers", type=int, default=2, help="shard worker processes")
    parser.add_argument("--backend", default="auto", help="cluster default backend")
    namespace = parser.parse_args()

    suite = spec_suite(namespace.suite)
    # The reference answers, computed in-process through the facade.
    expected_results, _ = BatchRunner(backend=namespace.backend).run(suite)
    expected_digest = fingerprint_digest(expected_results)
    expected_fold_digest = fold_digest(expected_results)
    expected_fold = fold_envelopes(
        result.to_dict() for result in expected_results
    ).to_wire()
    expected_hashes = {result.provenance.spec_hash for result in expected_results}

    failures: list[str] = []
    shm_before = shm_entries()
    store_dir = Path(tempfile.mkdtemp(prefix="repro-sweep-smoke-"))
    supervisor = ClusterSupervisor(
        workers=namespace.workers,
        backend=namespace.backend,
        store=store_dir,
    )
    try:
        router = boot_router(supervisor, backend=namespace.backend)
        try:
            router.serve_background()
            print(
                f"sweep smoke: router on {router.address}, "
                f"{namespace.workers} worker(s) "
                f"({', '.join(handle.address or '?' for handle in supervisor.handles)}), "
                f"{len(suite)} specs x 2 passes + fold"
            )
            cold_lines = raw_sweep(router.host, router.port, suite, namespace.backend)
            ack, cold_records, cold = split_pass(cold_lines)
            with ServiceClient(router.host, router.port) as client:
                _, warm_records, _, warm = run_sweep(
                    client, suite, namespace.backend, "stream"
                )
                _, fold_records, fold_doc, fold_summary = run_sweep(
                    client, suite, namespace.backend, "fold"
                )
        finally:
            router.stop()

        # The ack must say how the suite fanned out, honestly.
        partitions = ack.get("partitions") or []
        if ack.get("fanout") != len(partitions) or not partitions:
            failures.append(f"ack fan-out dishonest or missing: {ack}")
        elif sum(row["specs"] for row in partitions) != cold["unique"]:
            failures.append(
                f"ack partition sizes {[row['specs'] for row in partitions]} "
                f"do not sum to {cold['unique']} unique specs"
            )

        # Cold pass, as raw bytes: every line is the canonical encoding.
        drifted = [
            raw
            for raw in cold_lines
            if raw != (encode_response(json.loads(raw)) + "\n").encode("utf-8")
        ]
        if drifted:
            failures.append(
                f"{len(drifted)} cold line(s) differ from encode_response of "
                f"their decoded record, first: {drifted[0][:200]!r}"
            )

        # Cold pass: every unique spec once, in sequence, digest parity.
        if [record["seq"] for record in cold_records] != list(range(len(cold_records))):
            failures.append("cold pass streamed out-of-sequence records")
        bad = [record for record in cold_records if not record.get("ok")]
        if bad:
            failures.append(
                f"{len(bad)} cold record(s) failed, first: {bad[0].get('error')}"
            )
        streamed_hashes = {record["key"]["spec_hash"] for record in cold_records}
        if streamed_hashes != expected_hashes:
            failures.append(
                f"completion set mismatch: streamed {len(streamed_hashes)} hashes, "
                f"batch run produced {len(expected_hashes)}"
            )
        if cold["fingerprint_digest"] != expected_digest:
            failures.append(
                f"cold digest {cold['fingerprint_digest'][:16]}... != "
                f"batch digest {expected_digest[:16]}..."
            )
        if cold["errors"]:
            failures.append(f"cold pass recorded {cold['errors']} error(s)")

        # Warm pass: all worker-cache hits, identical digest.
        if warm["fingerprint_digest"] != expected_digest:
            failures.append("warm digest drifted from the cold digest")
        if warm["sources"] != {"cache": cold["unique"]}:
            failures.append(
                f"warm pass was not all cache hits: sources={warm['sources']}"
            )
        if len(warm_records) != len(cold_records):
            failures.append(
                f"warm pass streamed {len(warm_records)} records, cold {len(cold_records)}"
            )

        # Fold pass: tables only, equal to the local fold, digest parity.
        if fold_records:
            failures.append(
                f"fold pass leaked {len(fold_records)} per-spec record(s)"
            )
        if fold_doc is None:
            failures.append("fold pass carried no merged aggregate tables")
        elif not fold_tables_equal(fold_doc, expected_fold):
            failures.append(
                f"router-merged fold tables drifted from the local fold: "
                f"{fold_doc} != {expected_fold}"
            )
        if fold_summary.get("fold_digest") != expected_fold_digest:
            failures.append(
                f"fold digest {str(fold_summary.get('fold_digest'))[:16]}... != "
                f"local {expected_fold_digest[:16]}..."
            )

        # After the drain: exactly one stored record per unique spec.
        merged = ResultStore(store_dir)
        if len(merged) != len(expected_hashes):
            failures.append(
                f"primary store holds {len(merged)} record(s) after drain, "
                f"expected {len(expected_hashes)}"
            )
        if (store_dir / "workers").exists():
            failures.append("worker store directories were not merged away on drain")

        if router.leaked_tasks:
            failures.append(f"leaked event-loop task(s): {router.leaked_tasks}")

        print(
            f"sweep smoke: cold {cold['records']} records in "
            f"{cold['wall_time_ms']:.0f} ms over {ack.get('fanout')} partition(s) "
            f"{[row['specs'] for row in partitions]} (sources {cold['sources']}), "
            f"warm {warm['records']} in {warm['wall_time_ms']:.0f} ms "
            f"(sources {warm['sources']}), fold total {fold_doc.get('total') if fold_doc else '?'}"
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
        "sweep smoke: digest parity with the batch runner cold and warm, "
        "cold lines canonically encoded, warm pass all cache hits, "
        "fold tables equal the local fold, "
        "store merged exactly once, shutdown clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
