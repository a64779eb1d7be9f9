"""Integration tests for the distributed ``sweep`` verb on the cluster.

Real worker subprocesses behind an :class:`AsyncShardRouter`.  The
parity/fold/counter tests share one analytic fleet; the failover test
boots its own ``simulation``-backend fleet with a persistent store,
freezes one worker so a mid-sweep SIGKILL always lands while it still
owns its whole partition, then checks the re-partitioned digest, the
exactly-once store merge and that the respawned worker takes traffic
again.
"""

from __future__ import annotations

import json
import signal
import time

import pytest

from repro.api import ResultStore, SearchProblem
from repro.api.batch import BatchRunner
from repro.cluster import AsyncShardRouter, ClusterSupervisor, shard_key
from repro.experiments.manifest import fingerprint_digest, fold_digest
from repro.analysis.streaming import fold_envelopes
from repro.service import ServiceClient, request_lines
from repro.workloads import spec_suite, spec_suite_names

BACKEND = "analytic"


def _specs(count: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.05 * i, visibility=0.3) for i in range(count)]


def _metrics(router) -> dict:
    (line,) = request_lines(router.host, router.port, [json.dumps({"op": "metrics"})])
    return json.loads(line)["metrics"]


@pytest.fixture(scope="module")
def async_cluster():
    supervisor = ClusterSupervisor(workers=2, backend=BACKEND)
    supervisor.start()
    router = AsyncShardRouter(supervisor, backend=BACKEND, route_timeout=60.0)
    router.serve_background()
    try:
        yield router
    finally:
        router.stop()
        assert router.leaked_tasks == []


class TestDistributedSweep:
    def test_stream_digest_parity_and_honest_ack(self, async_cluster):
        specs = _specs(16)
        expected_results, _ = BatchRunner(backend=BACKEND).run(specs)
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            stream = client.sweep(specs, backend=BACKEND)
            records = list(stream)

        ack = stream.ack
        partitions = ack["partitions"]
        # The ack reports the real fan-out and partition sizes -- no
        # silent ceiling: the sizes must sum to the unique spec count.
        assert ack["fanout"] == len(partitions) > 1
        assert sum(row["specs"] for row in partitions) == ack["unique"] == 16
        assert [record["seq"] for record in records] == list(range(16))
        assert {record["key"]["spec_hash"] for record in records} == {
            result.provenance.spec_hash for result in expected_results
        }
        summary = stream.summary
        assert summary["fingerprint_digest"] == fingerprint_digest(expected_results)
        assert summary["errors"] == 0
        assert summary["repartitioned"] == 0
        assert sum(summary["tiers"].values()) == 16
        # Per-shard accounting in the summary: every partition finished.
        assert all(row["completed"] == row["specs"] for row in summary["partitions"])

    def test_fold_mode_merges_to_the_local_fold(self, async_cluster):
        specs = _specs(12)
        expected_results, _ = BatchRunner(backend=BACKEND).run(specs)
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            stream = client.sweep(specs, backend=BACKEND, mode="fold")
            records = list(stream)
        partials = [record for record in records if record["op"] == "partial"]
        assert len(partials) == 1
        assert not [record for record in records if record["op"] == "completion"]
        local = fold_envelopes(result.to_dict() for result in expected_results)
        merged = partials[0]["fold"]
        # Analytic results carry no measured times, so the merged wire
        # doc is exact here (the float-tolerance story is the property
        # tests' job).
        assert merged == local.to_wire()
        assert stream.summary["fold_digest"] == fold_digest(expected_results)

    def test_sweep_counters_ride_metrics_and_cluster_status(self, async_cluster):
        specs = _specs(10)
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            list(client.sweep(specs, backend=BACKEND))
        metrics_line, status_line = request_lines(
            async_cluster.host,
            async_cluster.port,
            [json.dumps({"op": "metrics"}), json.dumps({"op": "cluster-status"})],
        )
        for document in (
            json.loads(metrics_line)["metrics"],
            json.loads(status_line)["cluster"],
        ):
            rows = document["shards"]
            assert all("sweeps" in row for row in rows)
            assert sum(row["sweeps"]["swept"] for row in rows) > 0
            assert all(
                row["sweeps"]["completed"] <= row["sweeps"]["swept"] for row in rows
            )

    def test_subscribe_ack_reports_its_fanout(self, async_cluster):
        specs = _specs(8)
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            stream = client.subscribe(specs, backend=BACKEND)
            list(stream)
        # A subscribe runs through the sweep's partitions: its fanout is
        # the number of shards that got specs.
        shards = {
            async_cluster.ring.lookup(shard_key(BACKEND, spec.canonical_hash()))
            for spec in specs
        }
        assert stream.ack["fanout"] == len(shards)

    def test_subscribe_runs_through_the_sweep_partitions(self, async_cluster):
        """A fleet subscribe is the sweep path with subscribe shapes: the
        same partitions (counted in the per-shard sweep counters), the
        same digest, no sweep-only keys in the ack or summary."""
        specs = _specs(14)
        swept_before = {
            row["worker"]: row["sweeps"]["swept"] for row in _metrics(async_cluster)["shards"]
        }
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            subscribed = client.subscribe(specs, backend=BACKEND)
            list(subscribed)
            swept = client.sweep(specs, backend=BACKEND)
            list(swept)
        assert subscribed.ack["op"] == "subscribe"
        assert "partitions" not in subscribed.ack
        assert subscribed.ack["fanout"] == swept.ack["fanout"]
        assert set(subscribed.summary) == {
            "ok", "op", "records", "errors", "total", "unique",
            "fingerprint_digest", "sources", "wall_time_ms",
        }
        assert (
            subscribed.summary["fingerprint_digest"]
            == swept.summary["fingerprint_digest"]
        )
        partition = {row["worker"]: row["specs"] for row in swept.ack["partitions"]}
        swept_after = {
            row["worker"]: row["sweeps"]["swept"] for row in _metrics(async_cluster)["shards"]
        }
        for worker, before in swept_before.items():
            # Once for the subscribe, once for the sweep.
            assert swept_after[worker] - before == 2 * partition.get(worker, 0)


    @pytest.mark.parametrize("backend", ["auto", BACKEND])
    def test_every_named_suite_digests_like_the_batch_runner(self, async_cluster, backend):
        """The relayed records digest exactly like a local run, for every
        named suite but the 100k-spec one, through sweep and subscribe.

        Under ``auto``, ``symmetric-clock-large`` is left out too: its 512
        simulated rendezvous take ~15 s to solve locally, and its specs
        have the shape of ``symmetric-clock``'s, which runs here.
        """
        skipped = ("-xl", "symmetric-clock-large") if backend == "auto" else ("-xl",)
        names = [name for name in spec_suite_names() if not name.endswith(skipped)]
        assert len(names) >= 9
        with ServiceClient(async_cluster.host, async_cluster.port) as client:
            for name in names:
                suite = spec_suite(name)
                expected_results, _ = BatchRunner(backend=backend).run(suite)
                expected = fingerprint_digest(expected_results)
                swept = client.sweep(suite, backend=backend)
                swept_records = list(swept)
                subscribed = client.subscribe(suite, backend=backend)
                list(subscribed)
                assert swept.summary["fingerprint_digest"] == expected, name
                assert subscribed.summary["fingerprint_digest"] == expected, name
                assert swept.summary["errors"] == 0, name
                assert len(swept_records) == swept.summary["records"], name


class TestWorkerKillMidSweep:
    def test_kill_repartitions_stores_once_and_respawns(self, tmp_path):
        suite = spec_suite("search-sweep")
        expected_results, _ = BatchRunner(backend="simulation").run(suite)
        expected_digest = fingerprint_digest(expected_results)

        store_dir = tmp_path / "store"
        supervisor = ClusterSupervisor(workers=2, backend="simulation", store=store_dir)
        supervisor.start()
        router = AsyncShardRouter(supervisor, backend="simulation", route_timeout=60.0)
        handle = supervisor.handles[0]
        victim = handle.process
        killed_generation = handle.generation
        try:
            router.serve_background()
            # Freeze worker 0 before the sweep: the kernel backlog still
            # accepts its partition, but it answers nothing, so the kill
            # below always lands while it owns every spec of it.
            victim.send_signal(signal.SIGSTOP)
            with ServiceClient(router.host, router.port, timeout=120) as client:
                stream = client.sweep(suite, backend="simulation")
                sizes = {row["worker"]: row["specs"] for row in stream.ack["partitions"]}
                assert set(sizes) == {0, 1}
                records = []
                for record in stream:
                    records.append(record)
                    if len(records) == sizes[1]:
                        # Worker 1's whole partition has streamed.
                        victim.kill()
                summary = stream.summary

            # The dead worker's unfinished specs re-partitioned along the
            # ring and the digest still matches the local run exactly.
            assert summary["errors"] == 0
            assert summary["repartitioned"] > 0
            assert summary["repartitioned"] == sizes[0]
            assert len(records) == len(suite)
            assert summary["fingerprint_digest"] == expected_digest
            spec_hashes = [record["key"]["spec_hash"] for record in records]
            assert len(spec_hashes) == len(set(spec_hashes))  # no double delivery

            # The supervisor respawns the victim in the background; the
            # generation moves only once the new worker published its port.
            deadline = time.monotonic() + 60.0
            while handle.generation == killed_generation:
                assert time.monotonic() < deadline, "victim never respawned"
                time.sleep(0.05)
            assert handle.alive and handle.restarts >= 1

            # ...and the respawned worker is reused: the next sweep
            # assigns it a partition and it completes every spec of it.
            with ServiceClient(router.host, router.port, timeout=120) as client:
                stream = client.sweep(suite, backend="simulation")
                list(stream)
            second = stream.summary
            assert second["errors"] == 0
            assert second["fingerprint_digest"] == expected_digest
            worker0 = next(
                row for row in second["partitions"] if row["worker"] == 0
            )
            assert worker0["specs"] > 0 and worker0["completed"] == worker0["specs"]
        finally:
            if victim.poll() is None:  # only when an assertion fired before the kill
                victim.send_signal(signal.SIGCONT)
            router.stop()
        assert router.leaked_tasks == []

        # Exactly-once persistence: after the drain-and-merge stop the
        # primary store holds one record per unique spec, no duplicates,
        # and the per-worker staging directories are gone.
        merged = ResultStore(store_dir)
        stats = merged.stats()
        assert stats.unique == len(suite)
        assert stats.records == stats.unique
        assert not (store_dir / "workers").exists()
