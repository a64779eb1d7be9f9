"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import gen
import hostspeed
import layers
import measure
import proctree
from spans import END, NAME, START, SpanRecorder, SpanTable, self_times


def _op(start_s: float, end_s: float, ok: int) -> SimpleNamespace:
    start_ns, end_ns = int(start_s * 1e9), int(end_s * 1e9)
    return SimpleNamespace(
        start_ns=start_ns, end_ns=end_ns, ok=ok, latency_ms=(end_ns - start_ns) / 1e6
    )


class TestPercentileRule:
    def test_refuses_fewer_than_ten_samples_beyond(self) -> None:
        with pytest.raises(measure.TooFewSamples):
            measure.percentile(list(range(999)), 99.0)
        with pytest.raises(measure.TooFewSamples):
            measure.percentile(list(range(99)), 90.0)
        with pytest.raises(measure.TooFewSamples):
            measure.percentile(list(range(19)), 50.0)
        with pytest.raises(measure.TooFewSamples):
            measure.percentile([], 50.0)

    def test_accepts_exactly_ten_beyond_and_reports_count(self) -> None:
        assert measure.percentile(list(range(1000)), 99.0) == (989.0, 1000)
        assert measure.percentile(list(range(100)), 90.0) == (89.0, 100)
        assert measure.percentile(list(reversed(range(20))), 50.0) == (9.0, 20)
        assert measure.samples_beyond(1000, 99.0) == 10

    def test_zero_steal_reads_the_line_at_zero(self) -> None:
        steal = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4]
        rates = [2000.0 - 2500.0 * share for share in steal]
        rates[3] = 5000.0  # one outlier window does not tilt the line
        assert measure.at_zero_steal(rates, steal) == pytest.approx(2000.0)
        times = [1.0 + 2.0 * share for share in steal]
        assert measure.at_zero_steal(times, steal) == pytest.approx(1.0)

    def test_zero_steal_keeps_the_slope_whatever_its_sign(self) -> None:
        steal = [0.0, 0.1, 0.2]
        assert measure.at_zero_steal([1.0, 2.0, 3.0], steal) == pytest.approx(1.0)
        assert measure.at_zero_steal([3.0, 2.0, 1.0], steal) == pytest.approx(3.0)
        # No spread in steal: no slope, the plain median.
        assert measure.at_zero_steal([4.0, 5.0, 9.0], [0.1] * 3) == 5.0

    def test_windows_share_each_op_by_overlap(self) -> None:
        ticks = proctree.CLOCK_TICKS
        samples = [
            measure.Sample(int(t * 1e9), {1: cpu}, steal)
            for t, cpu, steal in ((0.0, 0.0, 0), (0.5, 0.2, 0), (1.0, 0.5, ticks // 2))
        ]
        ops = [_op(0.0, 0.25, 10), _op(0.25, 0.75, 20), _op(0.75, 1.0, 10)]
        rows = measure.windows(samples, ops, 0.5)
        assert [row["specs_per_s"] for row in rows] == pytest.approx([40.0, 40.0])
        assert [row["cpu_ms_per_spec"] for row in rows] == pytest.approx([10.0, 15.0])
        assert [row["p50_ms"] for row in rows] == [250.0, 375.0]
        assert rows[1]["steal_share"] == pytest.approx(0.5 / (0.5 * proctree.CPUS), rel=0.05)
        shares = measure.op_steal_shares(samples, ops)
        assert shares == pytest.approx([0.0, rows[1]["steal_share"] / 2, rows[1]["steal_share"]])

    def test_latency_at_zero_steal_rests_on_every_op(self) -> None:
        # Four 0.5-s steps with steal shares 0, 0.1, 0.2 and 0.3 (of two
        # CPUs); in each, 20 ops whose speed, 1 / latency, is 0.1 per ms
        # less 0.2 per ms per unit of steal (10, 12.5, 16.7 and 25 ms).
        ticks = proctree.CLOCK_TICKS
        stolen = [0, 0.1, 0.2, 0.3]
        samples = [measure.Sample(0, {}, 0)]
        for step, share in enumerate(stolen, start=1):
            steal = samples[-1].steal + share * 0.5 * proctree.CPUS * ticks
            samples.append(measure.Sample(int(step * 0.5e9), {}, steal))
        ops = []
        for step, share in enumerate(stolen):
            latency = 1e-3 / (0.1 - 0.2 * share)
            for k in range(20):
                start = step * 0.5 + k * 0.02
                ops.append(_op(start, start + latency, 1))
        rows = measure.windows(samples, ops, 0.5)
        assert measure.latency_at_zero_steal(samples, ops, rows) == (pytest.approx(10.0), 80)
        with pytest.raises(measure.TooFewSamples):
            measure.latency_at_zero_steal(samples, ops[:19], rows)

    def test_spread_matches_statistics_quantiles(self) -> None:
        row = measure.spread([1.0, 2.0, 3.0, 4.0, 10.0])
        assert row["median"] == 3.0
        assert (row["q1"], row["q3"]) == (1.5, 7.0)
        assert row["iqr_share"] == pytest.approx(5.5 / 3.0)


class TestGenerators:
    def test_sweeps_repeat_per_seed_and_differ_across_seeds(self) -> None:
        first = gen.sweep_specs(7, 3)
        assert first == gen.sweep_specs(7, 3)
        assert first != gen.sweep_specs(8, 3)
        assert first != gen.sweep_specs(7, 4)
        assert len(first) == gen.SWEEP_SPECS
        for spec in first:
            assert 0.5 <= spec["distance"] < 4.0
            assert 0.08 <= spec["visibility"] < 0.45

    def test_cold_and_warm_specs_repeat_per_seed(self) -> None:
        assert gen.cold_specs(1, 50) == gen.cold_specs(1, 50)
        assert gen.cold_specs(1, 50) != gen.cold_specs(2, 50)
        assert gen.warm_specs(1) == gen.warm_specs(1)
        assert gen.warm_specs(1) != gen.warm_specs(2)
        for spec in gen.cold_specs(3, 200):
            assert 0.3 <= spec["speed"] < 0.85 or 1.15 <= spec["speed"] < 2.0
            assert 0.30 <= spec["visibility"] < 0.45

    def test_cold_specs_are_feasible_rendezvous(self) -> None:
        from repro.api import RendezvousProblem, solve
        from repro.api.spec import spec_from_dict

        for spec in gen.cold_specs(5, 3):
            problem = spec_from_dict(spec)
            assert isinstance(problem, RendezvousProblem)
            assert solve(problem, backend="analytic").feasible

    def test_zipf_sampler_repeats_per_seed_and_connection(self) -> None:
        draws = gen.ZipfSampler(8192, 1, 0).draw(2000)
        assert draws == gen.ZipfSampler(8192, 1, 0).draw(2000)
        assert draws != gen.ZipfSampler(8192, 2, 0).draw(2000)
        assert draws != gen.ZipfSampler(8192, 1, 1).draw(2000)
        assert all(0 <= index < 8192 for index in draws)

    def test_zipf_sampler_favours_the_top_rank(self) -> None:
        sampler = gen.ZipfSampler(8192, 4, 0)
        draws = sampler.draw(20000)
        top = max(set(draws), key=draws.count)
        # P(rank 1) = 1 / H(8192), about 10.4%.
        assert 0.08 < draws.count(top) / len(draws) < 0.13


CHILD = """
import subprocess, sys
grandchild = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                              stdin=subprocess.PIPE)
block = bytearray(64 * 1024 * 1024)
for i in range(0, len(block), 4096):
    block[i] = 1
total = 0
for i in range(3_000_000):
    total += i * i
print(grandchild.pid, flush=True)
sys.stdin.read()
grandchild.stdin.close()
grandchild.wait()
"""


class TestProcessTree:
    def test_tree_cpu_and_peak_rss(self) -> None:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            grandchild = int(child.stdout.readline())
            pids = proctree.tree(child.pid)
            assert pids[0] == child.pid
            assert grandchild in pids
            assert proctree.descendants(child.pid) == [grandchild]
            assert proctree.cpu_seconds(child.pid) > 0.05
            assert proctree.peak_rss_kb(child.pid) > 64 * 1024
            assert 0 < proctree.peak_rss_kb(grandchild) < 64 * 1024
            assert set(proctree.cpu_by_pid(pids)) == set(pids)
        finally:
            child.stdin.close()
            child.wait(timeout=30)
        assert not proctree.alive(child.pid)
        assert proctree.cpu_seconds(child.pid) == 0.0
        assert proctree.peak_rss_kb(child.pid) == 0

    def test_steal_ticks_reads_proc_stat(self) -> None:
        assert proctree.steal_ticks() >= 0


class TestSelfTime:
    def test_nested_spans_on_two_threads(self) -> None:
        # [name, start, end, thread, parent, rid, count]
        spans = [
            [0, 0, 100, 1, -1, None, 0],  # 0: thread 1 root
            [1, 10, 30, 1, 0, None, 0],  # 1: child of 0
            [2, 12, 20, 1, 1, None, 0],  # 2: grandchild of 0
            [1, 40, 50, 1, 0, None, 0],  # 3: second child of 0
            [0, 5, 95, 2, -1, None, 0],  # 4: thread 2 root, overlapping 0
            [1, 20, 60, 2, 4, None, 0],  # 5: child of 4
            [2, 70, 80, 2, 0, None, 0],  # 6: claims parent 0 across threads
        ]
        assert self_times(spans) == [70, 12, 8, 10, 50, 40, 10]

    def test_recorded_spans_nest_per_thread(self) -> None:
        recorder = SpanRecorder()
        inner = recorder.wrap("inner", lambda: sum(range(20000)), False)
        outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)], False)
        threads = [threading.Thread(target=outer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        rows = recorder.dump()["spans"]
        own = self_times(rows)
        names = recorder.names
        for i, row in enumerate(rows):
            children = [c for c in rows if rows.index(c) != i and c[4] == i]
            assert all(child[3] == row[3] for child in children)
            assert own[i] == row[END] - row[START] - sum(c[END] - c[START] for c in children)
            if names[row[NAME]] == "outer":
                assert len(children) == 3
        assert sorted(names[row[NAME]] for row in rows) == ["inner"] * 6 + ["outer"] * 2


class TestHostSpeed:
    def test_probe_child_reports_until_stopped(self) -> None:
        speed = hostspeed.HostSpeed()
        time.sleep(5 * hostspeed.EVERY_S)
        readings = speed.stop()
        assert speed.process.returncode == 0
        assert speed.stop() is readings
        assert len(readings) >= 2
        assert all(ms > 0 for _, ms in readings)
        stamps = [stamp for stamp, _ in readings]
        assert stamps == sorted(stamps)

    def test_job_time_is_the_median_inside_or_the_nearest(self) -> None:
        readings = [(0, 1.0), (10, 2.0), (20, 4.0), (30, 3.0)]
        assert hostspeed.job_ms_between(readings, 5, 25) == 3.0
        assert hostspeed.job_ms_between(readings, 0, 30) == 2.5
        assert hostspeed.job_ms_between(readings, 31, 33) == 3.0


class TestServerSpans:
    def test_a_reused_request_id_matches_the_span_inside_the_op(self) -> None:
        # [name, start, end, thread, parent, rid, count]
        table = SpanTable(
            {
                "names": ["tier.answer_fast", "transport.handle_request"],
                "spans": [
                    [0, 100, 110, 1, -1, 7, 1],  # an earlier request 7, a hot hit
                    [1, 200, 290, 2, -1, 7, 0],  # ... and its handle_request
                    [0, 1000, 1004, 1, -1, 7, 0],  # timed request 7 misses the hot cache
                    [1, 1005, 1050, 2, -1, 7, 0],  # ... and handle_request answers it
                    [0, 2000, 2003, 1, -1, 8, 1],  # timed request 8, a hot hit
                ],
            }
        )
        ops = [
            SimpleNamespace(rid=7, start_ns=990, end_ns=1060),
            SimpleNamespace(rid=8, start_ns=1990, end_ns=2010),
            SimpleNamespace(rid=9, start_ns=3000, end_ns=3100),  # no span at all
        ]
        matched = layers.server_spans([table], ops)
        assert [(op.rid, span_ns) for op, span_ns in matched] == [(7, 45), (8, 3)]


class TestInstall:
    def test_catches_a_batch_kernel_call_made_through_vectorized(self) -> None:
        import repro.api.vectorized as vectorized
        import repro.simulation.kernel as kernel
        from repro.api import SearchProblem

        original = kernel.simulate_search_batch
        recorder = SpanRecorder()
        recorder.install()
        try:
            assert vectorized.simulate_search_batch is not original
            specs = [SearchProblem(visibility=0.3, distance=d) for d in (1.0, 1.5, 2.0)]
            results = vectorized.VectorizedBackend().solve_specs(specs)
        finally:
            recorder.uninstall()
        assert vectorized.simulate_search_batch is original
        assert kernel.simulate_search_batch is original
        assert len(results) == 3
        names = recorder.names
        batch = [row for row in recorder.spans if names[row[NAME]] == "kernel.search_batch"]
        assert len(batch) == 1 and batch[0][6] == 3
        hashes = [row for row in recorder.spans if names[row[NAME]] == "spec.hash"]
        assert hashes and all(row[END] >= row[START] for row in hashes)
