"""Fixture-tree plumbing for the ``repro.lint`` rule tests.

Each test builds a tiny package named ``repro`` under ``tmp_path`` (the
analyzer derives the package prefix from the directory name, so fixture
module names line up with the default ``repro.*`` config), runs the
real linter over it, and asserts on the findings of one rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, LintConfig, run_lint


def build_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (relative paths -> source) as a ``repro`` package."""
    root = tmp_path / "repro"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").touch()
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.touch()
            parent = parent.parent
    return root


@pytest.fixture
def make_tree(tmp_path):
    """Write a fixture ``repro`` package and return its root path."""

    def make(files: dict[str, str]) -> Path:
        return build_tree(tmp_path, files)

    return make


@pytest.fixture
def lint_tree(tmp_path):
    """Build a fixture package and return its findings for one rule."""

    def run(files: dict[str, str], config: LintConfig, rule: str | None = None):
        root = build_tree(tmp_path, files)
        report = run_lint(root, config=config, baseline=Baseline())
        if rule is None:
            return report
        return [finding for finding in report.new if finding.rule == rule]

    return run


#: A config with no wire schema, so fixture trees for the other rules
#: never trip R003 on their scaffolding.
NO_WIRE = dict(
    protocol_module="repro.no_such_protocol",
    wire_modules=(),
    dispatchers=(),
)


@pytest.fixture
def taint_config():
    """Taint rooted at ``repro.api.spec``; wire schema disabled."""
    return LintConfig(taint_roots=("repro.api.spec",), **NO_WIRE)


@pytest.fixture
def no_taint_config():
    """No taint roots and no wire schema: only R002/R004/R005 can fire."""
    return LintConfig(taint_roots=(), **NO_WIRE)
