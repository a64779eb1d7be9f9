"""Shared helpers for the benchmark harness.

Every benchmark wraps one experiment of the evaluation harness: it runs the
experiment exactly once under ``pytest-benchmark`` (the experiments are
deterministic, so repeated rounds would only re-measure the same work),
asserts that every claim check extracted from the paper passes, and attaches
the key reproduced numbers to ``benchmark.extra_info`` so they appear in the
benchmark report next to the timing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import ExperimentReport
from repro.experiments.registry import run_experiment

#: Where benchmark artefacts (markdown tables, CSVs, SVG figures) are written.
ARTIFACT_DIRECTORY = Path(__file__).resolve().parent / "results"


@pytest.fixture
def experiment_runner(benchmark):
    """Run one experiment under the benchmark timer and verify its checks."""

    def run(experiment_id: str, quick: bool = False) -> ExperimentReport:
        report = benchmark.pedantic(
            run_experiment,
            kwargs={
                "experiment_id": experiment_id,
                "output_dir": ARTIFACT_DIRECTORY,
                "quick": quick,
            },
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["experiment"] = experiment_id
        benchmark.extra_info["checks"] = len(report.checks)
        benchmark.extra_info["checks_passed"] = sum(check.passed for check in report.checks)
        benchmark.extra_info["notes"] = report.notes[:2]
        report.require_success()
        return report

    return run
