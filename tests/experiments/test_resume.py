"""Tests for the resumable experiment pipeline (shared runner + store)."""

from __future__ import annotations

import json

from repro.api import BatchRunner, ResultStore
from repro.experiments import RunManifest, shared_runner, solve_specs
from repro.experiments.manifest import MANIFEST_NAME
from repro.experiments.runall import run_all_resumable
from repro.workloads import as_specs, search_random_suite


class TestSharedRunner:
    def test_solve_specs_reuses_the_ambient_runner_lru(self):
        specs = as_specs(search_random_suite(count=4, seed=11))
        with shared_runner(BatchRunner()) as runner:
            solve_specs(specs, backend="analytic")
            solve_specs(specs, backend="analytic")
            assert runner.cache_len == len(specs)
        # Second call hit the LRU: cache holds exactly one entry per spec.

    def test_explicit_runner_wins_over_ambient(self):
        specs = as_specs(search_random_suite(count=3, seed=11))
        explicit = BatchRunner()
        with shared_runner(BatchRunner()) as ambient:
            solve_specs(specs, backend="analytic", runner=explicit)
            assert explicit.cache_len == len(specs)
            assert ambient.cache_len == 0

    def test_solve_specs_without_context_builds_a_throwaway_runner(self):
        specs = as_specs(search_random_suite(count=2, seed=11))
        results = solve_specs(specs, backend="analytic")
        assert len(results) == len(specs)


class TestResumableRunAll:
    def test_second_pass_is_fully_warm_with_matching_fingerprints(self, tmp_path):
        store = tmp_path / "store"
        ids = ["E01", "E03"]
        _, first = run_all_resumable(quick=True, ids=ids, store=store)
        assert first.fresh_solves > 0
        assert first.store_hits == 0

        _, second = run_all_resumable(quick=True, ids=ids, store=store)
        assert second.fully_warm
        assert second.fresh_solves == 0
        assert second.store_hits == first.fresh_solves
        assert not second.fingerprint_mismatches
        for entry in second.entries:
            assert entry.fingerprint_match is True
            assert entry.missing_before == 0
        assert "fingerprints match previous run" in second.describe()

    def test_manifest_records_spec_hashes_per_experiment(self, tmp_path):
        store = tmp_path / "store"
        run_all_resumable(quick=True, ids=["E01"], store=store)
        manifest_path = store / MANIFEST_NAME
        assert manifest_path.exists()
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
        entry = data["experiments"]["E01:quick"]
        assert entry["quick"] is True
        assert entry["spec_hashes"] and entry["fingerprint_digest"]
        # Every recorded hash is present in the store.
        opened = ResultStore(store)
        assert all(opened.contains(b, h) for b, h in entry["spec_hashes"])

    def test_quick_and_full_modes_do_not_answer_for_each_other(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.json")
        manifest.record(
            "E01", quick=True, pairs=[("vectorized", "abc")], fingerprint="d1"
        )
        assert manifest.entry("E01", quick=True) is not None
        assert manifest.entry("E01", quick=False) is None

    def test_manifest_load_tolerates_corrupt_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        manifest = RunManifest.load(path)
        assert manifest.entries == {}

    def test_interrupted_sweep_resumes_incrementally(self, tmp_path):
        store = tmp_path / "store"
        # "Interrupted" run: only E01 completed.
        run_all_resumable(quick=True, ids=["E01"], store=store)
        # The repeated full selection re-solves only what is missing.
        _, summary = run_all_resumable(quick=True, ids=["E01", "E03"], store=store)
        by_id = {entry.experiment_id: entry for entry in summary.entries}
        assert by_id["E01"].fresh_solves == 0
        assert by_id["E01"].store_hits > 0
        assert by_id["E03"].fresh_solves > 0

    def test_run_all_without_store_still_shares_one_runner(self):
        reports, summary = run_all_resumable(quick=True, ids=["E02", "F01"])
        assert [report.experiment_id for report in reports] == ["E02", "F01"]
        assert summary.store_path is None
