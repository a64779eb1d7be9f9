"""Tests for the persistent content-addressed result store.

Durability contract: concurrent multiprocess writers land all envelopes
exactly once; truncated/corrupt trailing records are skipped with a
warning on reopen, never a crash; warm replays through the store are
fingerprint-identical to cold solves.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import pytest

from repro import __version__
from repro.api import (
    BatchRunner,
    ResultStore,
    SearchProblem,
    solve,
)
from repro.api.spec import SCHEMA_VERSION
from repro.errors import InvalidParameterError


def _spec(index: int) -> SearchProblem:
    return SearchProblem(distance=0.8 + 0.1 * index, visibility=0.25, bearing=0.3)


def _solved(index: int):
    return solve(_spec(index), backend="analytic")


class TestPutGet:
    def test_round_trip_marks_from_store(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _solved(0)
        assert store.put("analytic", result) is True
        fetched = store.get("analytic", _spec(0))
        assert fetched is not None
        assert fetched.provenance.from_store is True
        assert result.provenance.from_store is False
        # from_store is fingerprint-neutral: stored == solved.
        assert fetched.fingerprint() == result.fingerprint()

    def test_duplicate_put_is_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _solved(0)
        assert store.put("analytic", result) is True
        assert store.put("analytic", result) is False
        assert len(store) == 1

    def test_a_duplicate_envelope_is_not_encoded(self, tmp_path, monkeypatch):
        # A fleet merges every worker's store, seeded copies included,
        # back into the primary: each duplicate must cost no encoding.
        from repro.api import store as store_module

        store = ResultStore(tmp_path)
        envelope = _solved(0).to_dict()
        assert store.put_envelope("analytic", envelope) is True
        encoded = []
        monkeypatch.setattr(store_module, "canonical_dumps", encoded.append)
        assert store.put_envelope("analytic", envelope) is False
        assert store.put("analytic", _solved(0)) is False
        assert encoded == []

    def test_get_respects_backend_namespace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("analytic", _solved(0))
        assert store.get("analytic", _spec(0)) is not None
        assert store.get("simulation", _spec(0)) is None
        assert store.contains("analytic", _spec(0).canonical_hash())
        assert not store.contains("simulation", _spec(0).canonical_hash())

    def test_pending_records_are_readable_before_flush(self, tmp_path):
        store = ResultStore(tmp_path, flush_every=1000)
        store.put("analytic", _solved(0))
        assert store.stats().pending == 1
        assert store.get("analytic", _spec(0)) is not None
        assert sum(1 for _ in store.scan()) == 1

    def test_flush_publishes_one_segment(self, tmp_path):
        store = ResultStore(tmp_path, flush_every=1000)
        for index in range(3):
            store.put("analytic", _solved(index))
        segment = store.flush()
        assert segment is not None and segment.exists()
        assert store.flush() is None  # idle flush is a no-op
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 3

    def test_auto_flush_at_threshold(self, tmp_path):
        store = ResultStore(tmp_path, flush_every=2)
        store.put("analytic", _solved(0))
        store.put("analytic", _solved(1))
        assert store.stats().pending == 0
        assert len(list(tmp_path.glob("segment-*.jsonl"))) == 1

    def test_context_manager_flushes(self, tmp_path):
        with ResultStore(tmp_path, flush_every=1000) as store:
            store.put("analytic", _solved(0))
        assert len(ResultStore(tmp_path)) == 1

    def test_invalid_flush_every_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ResultStore(tmp_path, flush_every=0)


class TestTolerantReads:
    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        with ResultStore(tmp_path) as store:
            for index in range(3):
                store.put("analytic", _solved(index))
        (segment,) = tmp_path.glob("segment-*.jsonl")
        # Simulate a writer killed mid-append: a half-written last line.
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "backend": "analytic", "spec_')
        with pytest.warns(UserWarning, match="corrupt/truncated"):
            reopened = ResultStore(tmp_path)
        assert len(reopened) == 3
        assert reopened.stats().skipped_lines == 1

    def test_corrupt_middle_line_skipped_others_survive(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put("analytic", _solved(0))
        (segment,) = tmp_path.glob("segment-*.jsonl")
        good_line = segment.read_text(encoding="utf-8").strip()
        segment.write_text(
            "not json at all\n" + good_line + "\n", encoding="utf-8"
        )
        with pytest.warns(UserWarning):
            reopened = ResultStore(tmp_path)
        assert reopened.get("analytic", _spec(0)) is not None

    def test_foreign_schema_version_skipped(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put("analytic", _solved(0))
        (segment,) = tmp_path.glob("segment-*.jsonl")
        record = json.loads(segment.read_text(encoding="utf-8"))
        record["schema_version"] = SCHEMA_VERSION + 99
        foreign = json.dumps(record, separators=(",", ":"))
        segment.write_text(
            segment.read_text(encoding="utf-8") + foreign + "\n", encoding="utf-8"
        )
        with pytest.warns(UserWarning):
            reopened = ResultStore(tmp_path)
        assert len(reopened) == 1

    def test_malformed_stored_envelope_returns_none(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put("analytic", _solved(0))
        (segment,) = tmp_path.glob("segment-*.jsonl")
        record = json.loads(segment.read_text(encoding="utf-8"))
        record["result"]["spec"] = {"schema_version": 1, "kind": "search"}  # invalid
        segment.write_text(
            json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        store = ResultStore(tmp_path)
        with pytest.warns(UserWarning, match="malformed"):
            assert store.get("analytic", _spec(0)) is None

    def test_malformed_envelope_heals_after_a_fresh_solve(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put("analytic", _solved(0))
        (segment,) = tmp_path.glob("segment-*.jsonl")
        record = json.loads(segment.read_text(encoding="utf-8"))
        record["result"]["spec"] = {"schema_version": 1, "kind": "search"}  # invalid
        segment.write_text(
            json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        # The damaged record is evicted on read, the key accepts a
        # fresh solve, and last-record-wins (publication-ordered segment
        # sequence numbers) makes the replacement stick across reopen.
        with ResultStore(tmp_path) as store:
            with pytest.warns(UserWarning, match="malformed"):
                assert store.get("analytic", _spec(0)) is None
            assert store.put("analytic", _solved(0)) is True
        healed = ResultStore(tmp_path).get("analytic", _spec(0))
        assert healed is not None and healed.provenance.from_store is True


class TestScanStatsGc:
    def test_scan_streams_and_filters_by_backend(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put("analytic", _solved(0))
            store.put("simulation", solve(_spec(0), backend="simulation"))
        store = ResultStore(tmp_path)
        assert sum(1 for _ in store.scan()) == 2
        keys = [key for key, _ in store.scan(backend="analytic")]
        assert len(keys) == 1 and keys[0].backend == "analytic"

    def test_stats_counts_duplicates_across_segments(self, tmp_path):
        with ResultStore(tmp_path) as first:
            first.put("analytic", _solved(0))
        # A second writer process recording the same key lands it in its
        # own segment; simulate by cloning the published one.
        (segment,) = tmp_path.glob("segment-*.jsonl")
        clone = segment.with_name(segment.name.replace("segment-", "segment-9"))
        clone.write_bytes(segment.read_bytes())
        reopened = ResultStore(tmp_path)
        stats = reopened.stats()
        assert stats.records == 2 and stats.unique == 1 and stats.duplicates == 1
        assert "1 unique" in stats.describe()

    def test_gc_compacts_to_one_segment(self, tmp_path):
        for index in range(3):
            with ResultStore(tmp_path) as store:
                store.put("analytic", _solved(index))
        store = ResultStore(tmp_path)
        assert store.stats().segments == 3
        kept, removed = store.gc()
        assert kept == 3 and removed == 3
        assert store.stats().segments == 1
        assert len(ResultStore(tmp_path)) == 3

    def test_gc_keeps_records_published_by_other_handles(self, tmp_path):
        handle_a = ResultStore(tmp_path)
        handle_a.put("analytic", _solved(0))
        handle_a.flush()
        # Another process/handle publishes after A's last scan.
        with ResultStore(tmp_path) as handle_b:
            handle_b.put("analytic", _solved(1))
        kept, _ = handle_a.gc()
        assert kept == 2
        reopened = ResultStore(tmp_path)
        assert reopened.get("analytic", _spec(0)) is not None
        assert reopened.get("analytic", _spec(1)) is not None

    def test_export_includes_records_from_other_handles(self, tmp_path):
        handle_a = ResultStore(tmp_path)
        handle_a.put("analytic", _solved(0))
        handle_a.flush()
        with ResultStore(tmp_path) as handle_b:
            handle_b.put("analytic", _solved(1))
        assert handle_a.export(tmp_path / "warm.jsonl") == 2

    def test_refresh_picks_up_new_segments(self, tmp_path):
        store = ResultStore(tmp_path)
        with ResultStore(tmp_path) as other:
            other.put("analytic", _solved(0))
        assert len(store) == 0
        assert store.refresh() == 1
        assert store.get("analytic", _spec(0)) is not None


class TestExportImport:
    def test_round_trip_and_idempotent_merge(self, tmp_path):
        source_dir = tmp_path / "source"
        target_dir = tmp_path / "target"
        with ResultStore(source_dir) as store:
            for index in range(4):
                store.put("analytic", _solved(index))
        export_file = tmp_path / "warm.jsonl"
        assert ResultStore(source_dir).export(export_file) == 4

        target = ResultStore(target_dir)
        assert target.import_file(export_file) == 4
        assert target.import_file(export_file) == 0  # merge is idempotent
        assert len(ResultStore(target_dir)) == 4

    def test_import_skips_corrupt_lines_with_warning(self, tmp_path):
        with ResultStore(tmp_path / "src") as store:
            store.put("analytic", _solved(0))
        export_file = tmp_path / "warm.jsonl"
        ResultStore(tmp_path / "src").export(export_file)
        export_file.write_text(
            export_file.read_text(encoding="utf-8") + "garbage\n", encoding="utf-8"
        )
        target = ResultStore(tmp_path / "dst")
        with pytest.warns(UserWarning, match="importing"):
            assert target.import_file(export_file) == 1

    def test_import_skips_parseable_record_with_unusable_envelope(self, tmp_path):
        # The record passes the outer-format check but its envelope has
        # no provenance; the import must skip it, keep the good lines,
        # and still flush what it accepted.
        export_file = tmp_path / "warm.jsonl"
        bad = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "backend": "analytic",
                "spec_hash": "abc",
                "result": {},
            }
        )
        good_store = ResultStore(tmp_path / "src")
        good_store.put("analytic", _solved(0))
        good_store.export(export_file)
        export_file.write_text(
            bad + "\n" + export_file.read_text(encoding="utf-8"), encoding="utf-8"
        )
        target = ResultStore(tmp_path / "dst")
        with pytest.warns(UserWarning, match="importing"):
            assert target.import_file(export_file) == 1
        assert len(ResultStore(tmp_path / "dst")) == 1

    def test_import_missing_file_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(InvalidParameterError):
            store.import_file(tmp_path / "nope.jsonl")

    def test_put_envelope_without_provenance_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(InvalidParameterError):
            store.put_envelope("analytic", {"solved": True})


#: The exact bytes of one stored segment line: the record of ``_spec(0)``
#: solved by ``analytic`` with its wall time set to 0.0, keys sorted,
#: compact separators, a newline after the record.  A segment written by
#: ``flush``, ``gc`` or ``export`` must stay byte-identical to it, or
#: stores written by different library versions stop deduplicating.
GOLDEN_SEGMENT_LINE = (
    '{"backend":"analytic","result":{"algorithm":null,"bound":99.39822368615503,'
    '"bound_ratio":null,"details":{"difficulty":2.5600000000000005,"guaranteed_round":1},'
    '"feasible":true,"measured_time":null,"provenance":{"backend":"analytic",'
    '"fidelity":"bound","from_store":false,"library_version":"' + __version__ + '",'
    '"schema_version":1,"seed":6930390053233312093,'
    '"spec_hash":"e02db108dddf415ddf349b500e1bde74728d22eae706cbd03a9199e0b4b9de65",'
    '"wall_time":0.0},"schema_version":1,"solved":null,"spec":{"bearing":0.3,'
    '"distance":0.8,"kind":"search","schema_version":1,"target_x":null,"target_y":null,'
    '"visibility":0.25}},"schema_version":1,'
    '"spec_hash":"e02db108dddf415ddf349b500e1bde74728d22eae706cbd03a9199e0b4b9de65"}\n'
).encode("utf-8")


class TestGoldenSegmentLine:
    def _store_with_one_record(self, path):
        result = _solved(0)
        result = dataclasses.replace(
            result, provenance=dataclasses.replace(result.provenance, wall_time=0.0)
        )
        store = ResultStore(path, flush_every=1000)
        store.put("analytic", result)
        return store

    def test_flushed_segment_line_is_byte_identical(self, tmp_path):
        segment = self._store_with_one_record(tmp_path).flush()
        assert segment is not None
        assert segment.read_bytes() == GOLDEN_SEGMENT_LINE

    def test_gc_and_export_write_the_same_bytes(self, tmp_path):
        store = self._store_with_one_record(tmp_path / "store")
        store.flush()
        assert store.gc() == (1, 1)
        (compacted,) = (tmp_path / "store").glob("segment-*.jsonl")
        assert compacted.read_bytes() == GOLDEN_SEGMENT_LINE
        assert store.export(tmp_path / "export.jsonl") == 1
        assert (tmp_path / "export.jsonl").read_bytes() == GOLDEN_SEGMENT_LINE


def _write_after_all_opened(directory: str, offset: int, opened) -> None:
    """One writer process: open the store, wait for every writer, then write."""
    with ResultStore(directory) as store:
        opened.wait(timeout=60)
        for index in range(offset, offset + 4):
            store.put("analytic", _solved(index))


def _worker_write(payload: tuple[str, int]) -> int:
    """One writer process: solve its own slice and record it."""
    directory, offset = payload
    with ResultStore(directory) as store:
        for index in range(offset, offset + 4):
            store.put("analytic", _solved(index))
    return offset


class TestConcurrentWriters:
    def test_multiprocess_writers_land_all_envelopes_exactly_once(self, tmp_path):
        workers = 3
        with multiprocessing.Pool(workers) as pool:
            pool.map(_worker_write, [(str(tmp_path), 4 * w) for w in range(workers)])
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats.unique == 4 * workers
        assert stats.records == 4 * workers  # disjoint slices: no duplicates
        assert stats.duplicates == 0 and stats.skipped_lines == 0
        for index in range(4 * workers):
            assert store.get("analytic", _spec(index)) is not None

    def test_overlapping_writers_deduplicate_on_read(self, tmp_path):
        workers = 3
        # Every worker writes the SAME slice; determinism makes the
        # duplicates byte-identical, and indexing keeps exactly one.
        # One process per writer, each opening its store before any of
        # them writes: a store opened after another's flush would index
        # that segment and skip its own puts.
        context = multiprocessing.get_context("spawn")
        opened = context.Barrier(workers)
        writers = [
            context.Process(target=_write_after_all_opened, args=(str(tmp_path), 0, opened))
            for _ in range(workers)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats.unique == 4
        assert stats.records == 4 * workers
        assert stats.duplicates == 4 * (workers - 1)


class TestWarmReplayThroughRunner:
    def test_warm_replay_fingerprints_bit_identical_to_cold(self, tmp_path):
        specs = [_spec(index) for index in range(5)]
        cold_runner = BatchRunner(backend="simulation", store=tmp_path)
        cold, cold_stats = cold_runner.run(specs)
        assert cold_stats.solved_from_store == 0

        warm_runner = BatchRunner(backend="simulation", store=tmp_path)
        warm, warm_stats = warm_runner.run(specs)
        assert warm_stats.solved_from_store == len(specs)
        assert warm_stats.solved_fresh == 0
        assert warm_stats.hit_rate == 1.0
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]
        assert all(r.provenance.from_store for r in warm)
        assert not any(r.provenance.from_store for r in cold)
