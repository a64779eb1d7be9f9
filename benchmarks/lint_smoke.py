"""CI smoke for the invariant checker: the tree must lint clean.

Run with::

    PYTHONPATH=src python benchmarks/lint_smoke.py

Runs ``repro lint --json --strict`` in a subprocess (the same command
the CI gate and a contributor's shell run -- exercising argument
parsing, baseline discovery and exit semantics, not just the library),
validates the machine-readable report against the documented schema,
and fails (non-zero exit) unless:

* the subprocess exits 0 (strict mode: no finding outside the
  committed baseline);
* the report parses as RFC-clean JSON from stdout alone;
* the schema carries exactly the documented keys with sane types;
* ``new`` is 0 and every ``counts`` bucket is a known rule id;
* a deliberately planted nondeterminism regression in a scratch tree
  IS caught (the gate must be proven live, not just quiet).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

REPORT_KEYS = {
    "version",
    "strict",
    "counts",
    "total",
    "new",
    "baselined",
    "suppressed",
    "findings",
}


def run_lint(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def check_clean_tree() -> None:
    proc = run_lint("--json", "--strict")
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"repro lint --strict failed (exit {proc.returncode})")
    report = json.loads(proc.stdout)  # stdout must be one pure JSON document
    if set(report) != REPORT_KEYS:
        raise SystemExit(f"unexpected report keys: {sorted(report)}")
    if report["version"] != 1 or report["strict"] is not True:
        raise SystemExit("report version/strict flag drifted")
    if report["new"] != 0:
        raise SystemExit(f"{report['new']} non-baselined finding(s)")
    if report["total"] != report["new"] + report["baselined"]:
        raise SystemExit("total != new + baselined")
    known_rules = {"R001", "R002", "R003", "R004", "R005"}
    if not set(report["counts"]) <= known_rules:
        raise SystemExit(f"unknown rule ids in counts: {report['counts']}")
    if len(report["findings"]) != report["total"]:
        raise SystemExit("findings array disagrees with total")
    print(
        f"lint smoke: clean tree ({report['baselined']} baselined, "
        f"{report['suppressed']} suppressed)"
    )


def check_gate_is_live() -> None:
    """Plant a determinism regression and insist the linter sees it."""
    from repro.lint import Baseline, LintConfig, run_lint as lint

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "repro"
        (root / "api").mkdir(parents=True)
        (root / "__init__.py").touch()
        (root / "api" / "__init__.py").touch()
        (root / "api" / "spec.py").write_text(
            textwrap.dedent(
                """\
                import time

                def canonical_hash():
                    return str(time.time())
                """
            )
        )
        config = LintConfig(
            taint_roots=("repro.api.spec",),
            protocol_module="repro.none",
            wire_modules=(),
            dispatchers=(),
        )
        report = lint(root, config=config, baseline=Baseline())
        if report.exit_code(strict=True) != 1 or len(report.new) != 1:
            raise SystemExit("planted regression was NOT caught -- gate is dead")
    print("lint smoke: planted regression caught (gate is live)")


def main() -> int:
    sys.path.insert(0, str(SRC))
    check_clean_tree()
    check_gate_is_live()
    return 0


if __name__ == "__main__":
    sys.exit(main())
