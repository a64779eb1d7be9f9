"""R003: the wire schema must agree across transports."""

from __future__ import annotations

from repro.lint import LintConfig

WIRE_CONFIG = LintConfig(
    taint_roots=(),
    protocol_module="repro.service.protocol",
    wire_modules=(
        "repro.service.protocol",
        "repro.service.daemon",
    ),
    dispatchers=(
        ("repro.service.protocol", "handle_request"),
        ("repro.service.daemon", "_dispatch"),
    ),
)

PROTOCOL = """\
SOLVE_OP = "solve"

def handle_request(data):
    op = data.get("op")
    if op == SOLVE_OP:
        return {"ok": True, "op": SOLVE_OP, "result": 1}
    return {"ok": False, "op": "error"}
"""


class TestVerbTable:
    def test_handled_but_undeclared(self, lint_tree):
        """A dispatcher answering a verb the protocol never declared."""
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL,
                "service/daemon.py": """\
                STATUS_OP = "status"

                def _dispatch(op, data):
                    if op == STATUS_OP:
                        return {"ok": True, "op": STATUS_OP}
                    return None
                """,
            },
            WIRE_CONFIG,
            rule="R003",
        )
        assert any(
            "'status'" in finding.message and "not declared" in finding.message
            for finding in findings
        )

    def test_declared_but_unhandled(self, lint_tree):
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL + 'DEAD_OP = "dead"\n',
                "service/daemon.py": "def _dispatch(op, data):\n    return None\n",
            },
            WIRE_CONFIG,
            rule="R003",
        )
        assert any(
            "'dead'" in finding.message and "declared but" in finding.message
            for finding in findings
        )

    def test_agreeing_transports_are_clean(self, lint_tree):
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL,
                "service/daemon.py": """\
                from .protocol import SOLVE_OP

                def _dispatch(op, data):
                    if op == SOLVE_OP:
                        return {"ok": True, "op": SOLVE_OP, "result": 2}
                    return None
                """,
            },
            WIRE_CONFIG,
            rule="R003",
        )
        assert findings == []


class TestStaleConfig:
    """A configured module or dispatcher that is gone must not be
    skipped silently: the rule would check nothing and stay quiet."""

    STALE_CONFIG = LintConfig(
        taint_roots=(),
        protocol_module="repro.service.protocol",
        wire_modules=("repro.service.protocol", "repro.service.gone"),
        dispatchers=(
            ("repro.service.protocol", "handle_request"),
            ("repro.service.daemon", "_no_such_dispatch"),
            ("repro.service.gone", "_dispatch"),
        ),
    )

    def test_missing_module_and_dispatchers_are_findings(self, lint_tree):
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL,
                "service/daemon.py": "def _dispatch(op, data):\n    return None\n",
            },
            self.STALE_CONFIG,
            rule="R003",
        )
        messages = sorted(finding.message for finding in findings)
        assert messages == [
            "configured dispatcher repro.service.daemon._no_such_dispatch() does not exist",
            "configured dispatcher repro.service.gone._dispatch() does not exist",
            "configured wire module 'repro.service.gone' does not exist",
        ]
        assert all(finding.path == "repro/service/protocol.py" for finding in findings)

    def test_tree_without_a_protocol_module_stays_clean(self, lint_tree):
        """Fixture trees of the other rules carry no wire schema at all."""
        findings = lint_tree(
            {"api/spec.py": "def canonical_hash():\n    return 0\n"},
            self.STALE_CONFIG,
            rule="R003",
        )
        assert findings == []


class TestResponseDivergence:
    def test_missing_key_across_transports(self, lint_tree):
        """A transport answering 'solve' without the declared result key."""
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL,
                "service/daemon.py": """\
                from .protocol import SOLVE_OP

                def _dispatch(op, data):
                    if op == SOLVE_OP:
                        return {"ok": True, "op": SOLVE_OP}
                    return None
                """,
            },
            WIRE_CONFIG,
            rule="R003",
        )
        divergences = [f for f in findings if "diverges" in f.message]
        assert len(divergences) == 1
        assert "missing ['result']" in divergences[0].message
        assert divergences[0].path == "repro/service/daemon.py"

    def test_conditionally_added_keys_are_optional(self, lint_tree):
        """``response["id"] = ...`` in a branch must not count as drift."""
        findings = lint_tree(
            {
                "service/protocol.py": PROTOCOL,
                "service/daemon.py": """\
                from .protocol import SOLVE_OP

                def _dispatch(op, data):
                    if op == SOLVE_OP:
                        response = {"ok": True, "op": SOLVE_OP, "result": 2}
                        if data.get("id") is not None:
                            response["id"] = data["id"]
                        return response
                    return None
                """,
            },
            WIRE_CONFIG,
            rule="R003",
        )
        assert findings == []
