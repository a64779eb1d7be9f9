"""Inline suppressions, the baseline format, and their interaction."""

from __future__ import annotations

import json

from repro.lint import Baseline, Finding, LintConfig, run_lint

CONFIG = LintConfig(
    taint_roots=(),
    protocol_module="repro.nope",
    wire_modules=(),
    dispatchers=(),
)

DIRTY = """\
import json

def a(payload):
    return json.dumps(payload)

def b(payload):
    return json.dumps(payload)
"""


class TestSuppressions:
    def test_same_line_suppression(self, make_tree):
        root = make_tree(
            {
                "api/out.py": (
                    "import json\n"
                    "def f(payload):\n"
                    "    return json.dumps(payload)  # repro-lint: disable=R004\n"
                )
            },
        )
        report = run_lint(root, config=CONFIG)
        assert report.new == []
        assert report.suppressed == 1

    def test_line_above_suppression(self, make_tree):
        """A multi-line call carries the comment on its opening line."""
        root = make_tree(
            {
                "api/out.py": (
                    "import json\n"
                    "def f(payload):\n"
                    "    # repro-lint: disable=R004 -- legacy consumer\n"
                    "    return json.dumps(\n"
                    "        payload,\n"
                    "    )\n"
                )
            },
        )
        report = run_lint(root, config=CONFIG)
        assert report.new == []
        assert report.suppressed == 1

    def test_file_level_suppression(self, make_tree):
        root = make_tree(
            {"api/out.py": "# repro-lint: disable-file=R004\n" + DIRTY},
        )
        report = run_lint(root, config=CONFIG)
        assert report.new == []
        assert report.suppressed == 2

    def test_suppressing_one_rule_leaves_others(self, make_tree):
        root = make_tree(
            {
                "api/out.py": (
                    "import json\n"
                    "def f(payload):\n"
                    "    return json.dumps(payload)  # repro-lint: disable=R001\n"
                )
            },
        )
        report = run_lint(root, config=CONFIG)
        assert len(report.new) == 1
        assert report.new[0].rule == "R004"


class TestBaseline:
    def test_partition_marks_known_findings(self, make_tree):
        root = make_tree({"api/out.py": DIRTY})
        first = run_lint(root, config=CONFIG)
        assert len(first.new) == 2
        baseline = Baseline.from_findings(first.new)
        second = run_lint(root, config=CONFIG, baseline=baseline)
        assert second.new == []
        assert len(second.baselined) == 2
        assert all(finding.baselined for finding in second.baselined)

    def test_extra_occurrence_beyond_count_is_new(self):
        finding = Finding(
            rule="R004", path="repro/api/out.py", line=3, col=11, message="m", hint=""
        )
        twin = Finding(
            rule="R004", path="repro/api/out.py", line=9, col=11, message="m", hint=""
        )
        baseline = Baseline.from_findings([finding])
        new, baselined = baseline.partition([finding, twin])
        assert len(baselined) == 1
        assert len(new) == 1

    def test_keys_are_line_independent(self):
        """Edits above a finding must not churn the baseline."""
        at_line_3 = Finding(
            rule="R004", path="repro/api/out.py", line=3, col=0, message="m", hint=""
        )
        at_line_40 = Finding(
            rule="R004", path="repro/api/out.py", line=40, col=8, message="m", hint=""
        )
        assert at_line_3.key == at_line_40.key

    def test_roundtrip_through_disk(self, tmp_path):
        finding = Finding(
            rule="R001", path="repro/api/spec.py", line=5, col=0, message="msg", hint="h"
        )
        baseline = Baseline.from_findings([finding, finding])
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.counts == baseline.counts
        document = json.loads(path.read_text())
        assert document["version"] == 1
        (entry,) = document["entries"].values()
        assert entry["rule"] == "R001"
        assert entry["count"] == 2

    def test_missing_file_loads_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0
