"""R001: nondeterminism inside the fingerprint-tainted set."""

from __future__ import annotations

from repro.lint import LintConfig


class TestTruePositives:
    def test_clock_in_taint_root(self, lint_tree, taint_config):
        findings = lint_tree(
            {
                "api/spec.py": """\
                import time

                def canonical_hash():
                    return str(time.time())
                """
            },
            taint_config,
            rule="R001",
        )
        assert len(findings) == 1
        assert "time.time" in findings[0].message
        assert findings[0].path == "repro/api/spec.py"

    def test_taint_propagates_along_imports(self, lint_tree, taint_config):
        """A helper the root imports is tainted even two hops out."""
        findings = lint_tree(
            {
                "api/spec.py": "from ..geometry import helpers\n",
                "geometry/helpers.py": "from . import deep\n",
                "geometry/deep.py": """\
                import random

                def jitter():
                    return random.random()
                """,
            },
            taint_config,
            rule="R001",
        )
        assert len(findings) == 1
        assert findings[0].path == "repro/geometry/deep.py"
        assert "process-global RNG" in findings[0].message

    def test_builtin_hash_and_unseeded_default_rng(self, lint_tree, taint_config):
        findings = lint_tree(
            {
                "api/spec.py": """\
                import numpy as np

                def fingerprint(spec):
                    rng = np.random.default_rng()
                    return hash(spec) + rng.integers(10)
                """
            },
            taint_config,
            rule="R001",
        )
        messages = sorted(finding.message for finding in findings)
        assert len(findings) == 2
        assert any("hash()" in message for message in messages)
        assert any("without a seed" in message for message in messages)

    def test_set_iteration_feeding_serialization(self, lint_tree, taint_config):
        findings = lint_tree(
            {
                "api/spec.py": """\
                def serialize(items):
                    out = []
                    for item in set(items):
                        out.append(item)
                    return out
                """
            },
            taint_config,
            rule="R001",
        )
        assert len(findings) == 1
        assert "hash-salt ordered" in findings[0].message


class TestFalsePositiveGuards:
    def test_untainted_module_is_never_flagged(self, lint_tree, taint_config):
        """The same clock call outside the tainted set: no finding.

        Transport code timing request latency must stay lint-clean --
        fingerprints neutralise wall_time.
        """
        findings = lint_tree(
            {
                "api/spec.py": "VALUE = 1\n",
                "service/metrics.py": """\
                import time

                def observe():
                    return time.time()
                """,
            },
            taint_config,
            rule="R001",
        )
        assert findings == []

    def test_seeded_rng_construction_is_clean(self, lint_tree, taint_config):
        findings = lint_tree(
            {
                "api/spec.py": """\
                import random
                import numpy as np

                def trial_rng(seed):
                    return random.Random(seed), np.random.default_rng(seed)
                """
            },
            taint_config,
            rule="R001",
        )
        assert findings == []

    def test_sorted_set_iteration_is_clean(self, lint_tree, taint_config):
        findings = lint_tree(
            {
                "api/spec.py": """\
                def serialize(items):
                    return [item for item in sorted(set(items))] + [len(set(items))]
                """
            },
            taint_config,
            rule="R001",
        )
        assert findings == []


class TestSyntheticRegression:
    def test_reintroducing_wall_clock_into_result_fails_strict(self, lint_tree):
        """The guard the rule exists for: a clock sneaking into results."""
        config = LintConfig(
            taint_roots=("repro.api.result",),
            protocol_module="repro.nope",
            wire_modules=(),
            dispatchers=(),
        )
        findings = lint_tree(
            {
                "api/result.py": """\
                import time

                def fingerprint(result):
                    return {"stamp": time.time_ns()}
                """
            },
            config,
            rule="R001",
        )
        assert len(findings) == 1
