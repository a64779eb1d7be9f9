"""The shipped tree must satisfy its own linter.

This is the ISSUE's self-check: the committed baseline matches reality,
so ``repro lint --strict`` exits 0 on the real ``src/repro`` -- and the
CI gate cannot silently drift from what a contributor sees locally.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.cli import main
from repro.lint import Baseline, run_lint

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


class TestWholeTree:
    def test_shipped_baseline_matches_reality(self):
        report = run_lint(PACKAGE_ROOT, baseline=Baseline.load(BASELINE))
        assert report.new == [], "\n".join(
            finding.render() for finding in report.new
        )

    def test_baseline_carries_no_stale_entries(self):
        """Every baselined key still corresponds to a real finding."""
        baseline = Baseline.load(BASELINE)
        report = run_lint(PACKAGE_ROOT, baseline=baseline)
        live_keys = {finding.key for finding in report.baselined}
        stale = set(baseline.counts) - live_keys
        assert stale == set(), f"stale baseline entries: {sorted(stale)}"

    def test_hot_paths_are_fixed_not_baselined(self):
        """Serving/cluster findings must be fixed, never baselined."""
        baseline = Baseline.load(BASELINE)
        hot = [
            entry
            for entry in baseline.meta.values()
            if entry["path"].startswith(("repro/service/", "repro/cluster/"))
        ]
        assert hot == []


class TestCli:
    def test_strict_run_exits_zero(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_json_report_schema(self, capsys):
        assert main(["lint", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert set(document) == {
            "version",
            "strict",
            "counts",
            "total",
            "new",
            "baselined",
            "suppressed",
            "findings",
        }
        assert document["new"] == 0

    def test_path_filter_restricts_reporting(self, capsys):
        assert main(["lint", "--strict", "api"]) == 0
        assert main(["lint", "--strict", "src/repro/service"]) == 0

    def test_strict_fails_on_a_regression(self, tmp_path, capsys, monkeypatch):
        """A synthetic regression in a copy of the CLI flow: non-zero exit."""
        from repro.lint import LintConfig

        root = tmp_path / "repro"
        (root / "api").mkdir(parents=True)
        (root / "__init__.py").touch()
        (root / "api" / "__init__.py").touch()
        (root / "api" / "out.py").write_text(
            "import json\n\ndef f(payload):\n    return json.dumps(payload)\n"
        )
        config = LintConfig(
            taint_roots=(),
            protocol_module="repro.nope",
            wire_modules=(),
            dispatchers=(),
        )
        report = run_lint(root, config=config, baseline=Baseline())
        assert report.exit_code(strict=True) == 1
        assert report.exit_code(strict=False) == 0
