"""Tests of the experiment registry and quick runs of every experiment.

The full experiments are exercised by the benchmark harness; the tests here
run each experiment in ``quick`` mode (reduced workloads) and assert that
every check it reports passes -- this is the "the paper's claims hold on the
reproduction" safety net that runs with the ordinary test suite.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentReport
from repro.errors import ExperimentError
from repro.experiments.registry import experiment_ids, get_experiment, run_experiment
from repro.experiments.runall import run_all, write_summary


class TestRegistry:
    def test_all_expected_ids_are_registered(self):
        ids = experiment_ids()
        for expected in ("E01", "E02", "E06", "E09", "E11", "E14", "F01", "F03"):
            assert expected in ids
        assert len(ids) == 17

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("e01").experiment_id == "E01"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_entries_carry_metadata(self):
        entry = get_experiment("E04")
        assert "Theorem 2" in entry.paper_reference


@pytest.mark.parametrize("experiment_id", [eid for eid in experiment_ids()])
def test_quick_run_passes_all_checks(experiment_id):
    report = run_experiment(experiment_id, quick=True)
    assert isinstance(report, ExperimentReport)
    assert report.tables, f"{experiment_id} produced no tables"
    assert report.checks, f"{experiment_id} recorded no checks"
    failing = [check.describe() for check in report.failed_checks()]
    assert not failing, f"{experiment_id} failed: {failing}"


class TestRunAll:
    def test_selected_subset(self):
        reports = run_all(quick=True, ids=["E02", "F01"])
        assert [report.experiment_id for report in reports] == ["E02", "F01"]

    def test_summary_writing(self, tmp_path):
        reports = run_all(quick=True, ids=["E02"])
        path = write_summary(reports, tmp_path / "summary.md")
        assert path.exists()
        assert "E02" in path.read_text()

    def test_artifacts_directory(self, tmp_path):
        run_all(quick=True, ids=["F01"], output_dir=tmp_path)
        assert (tmp_path / "f01.md").exists()
        assert (tmp_path / "figure1.svg").exists()
