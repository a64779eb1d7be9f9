"""``repro lint`` -- AST-based invariant checking for the repro tree.

The repo's three load-bearing contracts are dynamic-test-expensive and
cheap to break silently:

* **determinism** -- fingerprints must be bit-identical across the
  serial, pooled, batched, served and clustered tiers, so nothing on a
  fingerprint-feeding path may consult a clock, an unseeded RNG, the
  process identity or set iteration order;
* **lock discipline** -- shared mutable state published to other
  threads must only be written under the lock that readers take (the
  PR-4 kernel compiled-chunk cache shipped without this and returned
  corrupted trajectories under concurrency);
* **wire schema** -- the protocol module, the daemon and the cluster
  front speak one verb table and one response shape per verb.

This package encodes those contracts once as static rules and checks
every change against them mechanically:

========  ====================================================
 R001     nondeterminism inside the fingerprint-tainted set
 R002     unlocked writes to lock-guarded attributes
 R003     wire-schema drift between transports
 R004     ``json.dumps`` without ``allow_nan=False``
 R005     frozen-dataclass mutation outside ``__post_init__``
========  ====================================================

Entry points: the CLI (``repro lint [--json] [--strict] [paths ...]``),
:func:`run_lint` for programmatic use, and the rule registry
:data:`~repro.lint.rules.RULES` for extension.  Findings are
suppressed inline with ``# repro-lint: disable=RXXX`` on (or directly
above) the offending line, or absorbed into a checked-in baseline file
so adoption is incremental; ``--strict`` fails on any non-baselined
finding.
"""

from __future__ import annotations

from .analyzer import LintConfig, ModuleInfo, Project
from .baseline import Baseline
from .findings import Finding
from .rules import RULES, Rule
from .runner import LintReport, run_lint

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintReport",
    "ModuleInfo",
    "Project",
    "RULES",
    "Rule",
    "run_lint",
]
