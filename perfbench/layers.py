"""Per-layer metrics of a traced run.

Counts and self times come from the span files of the last set-up's
server processes, restricted to a window: from the start of the timed
phase to the end of its first ``PREFIX_OPS`` ops.  Cutting the window
after a fixed number of ops (rather than at the clock) makes the
"exact" counts repeat run to run for one seed.  ``/proc`` figures
(router and worker CPU) cover the whole timed phase.
"""

from __future__ import annotations

from typing import Any

from spans import COUNT, END, RID, START, LayerTotals, SpanTable

#: Ops whose spans the per-layer counts cover, per workload.
PREFIX_OPS = {"sweep-fleet": 8, "serve-cold": 200, "serve-warm": 3000}

SOLVED_TIERS = ("solve", "coalesced", "batch", "pool", "serial")

UNITS = {
    "spec.hash_calls_per_spec": "count",
    "spec.hash_us": "us",
    "spec.decode_us": "us",
    "plan.us_per_spec": "us",
    "tier.hot_share": "ratio",
    "tier.lru_share": "ratio",
    "tier.store_share": "ratio",
    "tier.solved_share": "ratio",
    "compile.ms_per_spec": "ms",
    "compile.segments_per_spec": "count",
    "kernel.search_ms_per_spec": "ms",
    "kernel.pair_ms_per_spec": "ms",
    "kernel.specs_per_batch_call": "count",
    "envelope.to_dict_per_result": "count",
    "envelope.to_dict_us": "us",
    "envelope.digest_us_per_result": "us",
    "store.put_us": "us",
    "store.flush_ms": "ms",
    "store.flushes_per_kresult": "count",
    "store.bytes_per_result": "bytes",
    "store.get_us_per_key": "us",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "wire.bytes_per_spec": "bytes",
    "transport.server_us_per_op": "us",
    "transport.outside_us_per_op": "us",
    "router.cpu_ms_per_kspec": "ms",
    "router.hop_ms_per_sweep": "ms",
    "router.partition_ms_per_sweep": "ms",
    "router.partition_skew": "ratio",
    "router.repartitioned_specs": "count",
    "fleet.boot_s": "s",
    "fleet.merge_s": "s",
    "fleet.drain_s": "s",
    "fleet.worker_cpu_ms_per_kspec": "ms",
    # The traced run's own end-to-end figures, so tracing overhead shows.
    "traced.setup_s": "s",
    "traced.specs_per_s": "1/s",
    "traced.op_p50_ms": "ms",
    "traced.cpu_ms_per_spec": "ms",
    "traced.peak_rss_mb": "MB",
    "traced.ok_share": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window(ops: list[Any], workload: str) -> tuple[list[Any], int, int]:
    """The first ops by completion and the time span they cover."""
    chosen = sorted(ops, key=lambda op: op.end_ns)[: PREFIX_OPS[workload]]
    return chosen, min(op.start_ns for op in chosen), max(op.end_ns for op in chosen)


def per_layer(
    workload: str,
    ops: list[Any],
    tables: list[SpanTable],
    cpu: dict[str, float],
    timed_specs: int,
    store_stats: dict[str, int],
    fleet: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload bypasses the layer.

    ``cpu`` holds the timed phase's CPU seconds per role (``router``,
    ``workers``), ``timed_specs`` the specs answered in the whole timed
    phase, ``fleet`` the boot, merge and drain seconds.
    """
    chosen, start, end = window(ops, workload)
    totals = LayerTotals(tables, start, end)
    specs = sum(op.ok for op in chosen)
    served: dict[str, int] = {}
    for op in chosen:
        for tier, count in op.served_by.items():
            served[tier] = served.get(tier, 0) + count
    answers = sum(served.values())
    hot = totals.work.get("tier.answer_fast", 0)
    solved = sum(served.get(tier, 0) for tier in SOLVED_TIERS)
    results = specs

    def self_ms(name: str) -> float:
        return totals.self_ns.get(name, 0) / 1e6

    server_us: list[float] = []
    outside_us: list[float] = []
    hops_ms: list[float] = []
    if workload == "sweep-fleet":
        pumps = [
            table.spans[i]
            for table in tables
            for i in table.named("worker.subscribe_pump")
        ]
        for op in chosen:
            inside = [
                span[END] - span[START]
                for span in pumps
                if op.start_ns <= span[START] <= op.end_ns
            ]
            if inside:
                hops_ms.append((op.end_ns - op.start_ns - max(inside)) / 1e6)
    else:
        for op, span_ns in server_spans(tables, chosen):
            server_us.append(span_ns / 1e3)
            outside_us.append((op.end_ns - op.start_ns - span_ns) / 1e3)

    sweeps = [op for op in chosen if op.skew] if workload == "sweep-fleet" else []
    return {
        "spec.hash_calls_per_spec": _ratio(totals.calls.get("spec.hash", 0), specs),
        "spec.hash_us": totals.per_call_us("spec.hash"),
        "spec.decode_us": totals.per_call_us("spec.decode"),
        "plan.us_per_spec": _ratio(self_ms("plan.plan") * 1e3, totals.work.get("plan.plan", 0)),
        "tier.hot_share": _ratio(hot, answers),
        "tier.lru_share": _ratio(served.get("cache", 0) - hot, answers),
        "tier.store_share": _ratio(served.get("store", 0), answers),
        "tier.solved_share": _ratio(solved, answers),
        "compile.ms_per_spec": _ratio(self_ms("compile.next_chunk"), solved),
        "compile.segments_per_spec": _ratio(totals.work.get("compile.next_chunk", 0), solved),
        "kernel.search_ms_per_spec": _ratio(self_ms("kernel.search_batch"), specs),
        "kernel.pair_ms_per_spec": _ratio(self_ms("kernel.pair"), specs),
        "kernel.specs_per_batch_call": _ratio(
            totals.work.get("kernel.search_batch", 0), totals.calls.get("kernel.search_batch", 0)
        ),
        "envelope.to_dict_per_result": _ratio(totals.calls.get("envelope.to_dict", 0), results),
        "envelope.to_dict_us": totals.per_call_us("envelope.to_dict"),
        "envelope.digest_us_per_result": _ratio(self_ms("envelope.digest") * 1e3, results),
        "store.put_us": totals.per_call_us("store.put"),
        "store.flush_ms": _ratio(self_ms("store.flush"), totals.work.get("store.flush", 0)),
        "store.flushes_per_kresult": _ratio(
            totals.work.get("store.flush", 0) * 1e3, totals.calls.get("store.put", 0)
        ),
        "store.bytes_per_result": _ratio(store_stats["bytes"], store_stats["records"]),
        "store.get_us_per_key": _ratio(
            self_ms("store.get_many") * 1e3, totals.work.get("store.get_many", 0)
        ),
        "codec.encode_us": totals.per_call_us("codec.encode"),
        "codec.decode_us": totals.per_call_us("codec.decode"),
        "wire.bytes_per_spec": _ratio(sum(op.wire_bytes for op in chosen), specs),
        "transport.server_us_per_op": _ratio(sum(server_us), len(server_us)),
        "transport.outside_us_per_op": _ratio(sum(outside_us), len(outside_us)),
        "router.cpu_ms_per_kspec": _ratio(cpu.get("router", 0.0) * 1e6, timed_specs),
        "router.hop_ms_per_sweep": _ratio(sum(hops_ms), len(hops_ms)),
        "router.partition_ms_per_sweep": _ratio(self_ms("router.partition"), len(sweeps)),
        "router.partition_skew": _ratio(sum(op.skew for op in sweeps), len(sweeps)),
        "router.repartitioned_specs": float(sum(op.repartitioned for op in chosen)),
        "fleet.boot_s": fleet.get("boot_s", 0.0),
        "fleet.merge_s": fleet.get("merge_s", 0.0),
        "fleet.drain_s": fleet.get("drain_s", 0.0),
        "fleet.worker_cpu_ms_per_kspec": _ratio(cpu.get("workers", 0.0) * 1e6, timed_specs),
    }


def server_spans(tables: list[SpanTable], ops: list[Any]) -> list[tuple[Any, int]]:
    """Each op with the nanoseconds its request spent in the server.

    That is the span of ``answer_fast`` when the hot cache answered the
    request, of ``handle_request`` otherwise.  A span belongs to an op
    when it carries the op's request id and starts while the op is in
    flight, so an earlier request that used the same id is not matched.
    Ops without a matching span are left out.
    """
    by_rid: dict[Any, list[tuple[str, list[Any]]]] = {}
    for table in tables:
        for name in ("tier.answer_fast", "transport.handle_request"):
            for i in table.named(name):
                span = table.spans[i]
                by_rid.setdefault(span[RID], []).append((name, span))
    matched = []
    for op in ops:
        inside = {
            name: span
            for name, span in by_rid.get(op.rid, ())
            if op.start_ns <= span[START] <= op.end_ns
        }
        span = inside.get("tier.answer_fast")
        if span is None or not span[COUNT]:
            span = inside.get("transport.handle_request")
        if span is not None:
            matched.append((op, span[END] - span[START]))
    return matched


def fleet_spans(tables: list[SpanTable]) -> dict[str, float]:
    """Durations of the supervisor's boot and store merge (0 without a fleet)."""
    found = {}
    for key, name in (("boot_s", "fleet.start"), ("merge_s", "fleet.merge")):
        spans = [table.spans[i] for table in tables for i in table.named(name)]
        found[key] = sum(span[END] - span[START] for span in spans) / 1e9
    return found
