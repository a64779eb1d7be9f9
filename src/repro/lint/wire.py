"""R003 -- wire-schema drift between the serving fronts.

Three places answer the same verbs: the protocol module itself (which
``repro solve --stdin-jsonl`` drives in-process), the asyncio daemon
and the cluster front -- plus the client consuming the stream records.
The schema they must agree on is extracted mechanically -- nothing
here is a hardcoded list of today's verbs:

* the **verb table**: every module-level ``*_OP = "literal"`` constant
  in the protocol module (plus the literal core verbs
  ``handle_request`` compares), is the single declaration point;
* **handled sets**: the verbs each dispatcher function actually
  compares against the request ``op``;
* **response shapes**: for each verb, every ``{"ok": ..., "op": VERB,
  ...}`` dict literal built anywhere in the wire modules, with keys
  added later via ``response["key"] = ...`` in the same function
  counted as optional.

Findings: a configured wire module or dispatcher that does not exist
(a stale config would otherwise check nothing and stay silent), a
dispatcher handling a verb that is not declared in the protocol module
(verbs must be declared once, next to the wire documentation), a
declared verb nothing handles or consumes anywhere (dead schema), and
two transports answering the same verb with different required
response keys.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .analyzer import ModuleInfo, Project
from .findings import Finding
from .rules import Rule, register_rule

__all__ = ["WireSchemaRule"]


@dataclass
class _ResponseShape:
    """One ``{"ok": ..., "op": VERB}`` dict literal and its keys."""

    module: ModuleInfo
    node: ast.Dict
    function: str
    required: frozenset[str]
    optional: frozenset[str] = frozenset()


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _collect_op_constants(module: ModuleInfo) -> dict[str, str]:
    """Module-level ``NAME_OP = "verb"`` constants: name -> value."""
    constants: dict[str, str] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = _const_str(node.value)
            if (
                isinstance(target, ast.Name)
                and target.id.endswith("_OP")
                and value is not None
            ):
                constants[target.id] = value
    return constants


class _VerbResolver:
    """Resolve an expression to a verb string through the constant table."""

    def __init__(self, constants: dict[str, str]) -> None:
        self.constants = constants

    def resolve(self, node: ast.AST) -> Optional[str]:
        literal = _const_str(node)
        if literal is not None:
            return literal
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        if isinstance(node, ast.Attribute):  # protocol.SWEEP_OP
            return self.constants.get(node.attr)
        return None


def _compared_verbs(
    function: ast.AST, resolver: _VerbResolver, subject: str = "op"
) -> dict[str, ast.AST]:
    """Verbs compared against the name ``subject`` inside ``function``."""
    verbs: dict[str, ast.AST] = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Compare):
            continue
        involves_subject = (
            isinstance(node.left, ast.Name) and node.left.id == subject
        ) or any(
            isinstance(cmp, ast.Name) and cmp.id == subject for cmp in node.comparators
        )
        if not involves_subject:
            continue
        candidates: list[ast.AST] = [node.left, *node.comparators]
        for candidate in candidates:
            if isinstance(candidate, (ast.Tuple, ast.List, ast.Set)):
                candidates.extend(candidate.elts)
                continue
            verb = resolver.resolve(candidate)
            if verb is not None:
                verbs.setdefault(verb, node)
    return verbs


def _functions(module: ModuleInfo) -> dict[str, ast.AST]:
    found: dict[str, ast.AST] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.setdefault(node.name, node)
    return found


def _response_shapes(
    module: ModuleInfo, resolver: _VerbResolver
) -> dict[str, list[_ResponseShape]]:
    """Every ``{"ok": ..., "op": VERB, ...}`` literal, by verb.

    A dict assigned to a variable collects the keys later added with
    ``var["key"] = ...`` in the same function as *optional* keys; a
    dict built inline (in a ``return``) has none.
    """
    shapes: dict[str, list[_ResponseShape]] = {}
    seen: set[int] = set()
    for function in ast.walk(module.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # var name -> keys added with ``var["key"] = ...`` in this function
        added: dict[str, set[str]] = {}
        var_of: dict[int, str] = {}
        literals: list[ast.Dict] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Dict):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            var_of[id(node.value)] = target.id
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        key = _const_str(target.slice)
                        if key is not None:
                            added.setdefault(target.value.id, set()).add(key)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.value, ast.Dict)
                and isinstance(node.target, ast.Name)
            ):
                var_of[id(node.value)] = node.target.id
            if isinstance(node, ast.Dict) and id(node) not in seen:
                seen.add(id(node))
                literals.append(node)
        for literal in literals:
            keys: dict[str, ast.AST] = {}
            for key_node, value_node in zip(literal.keys, literal.values):
                key = _const_str(key_node) if key_node is not None else None
                if key is not None:
                    keys[key] = value_node
            if "ok" not in keys or "op" not in keys:
                continue
            verb = resolver.resolve(keys["op"])
            if verb is None:
                continue
            var = var_of.get(id(literal))
            shapes.setdefault(verb, []).append(
                _ResponseShape(
                    module=module,
                    node=literal,
                    function=function.name,
                    required=frozenset(keys),
                    optional=frozenset(added.get(var, set())) if var else frozenset(),
                )
            )
    return shapes


def _compatible(shape: _ResponseShape, reference: _ResponseShape) -> bool:
    """True when two shapes of one verb can answer interchangeably."""
    missing = reference.required - shape.required - shape.optional
    extra = shape.required - reference.required - reference.optional
    return not missing and not extra


@register_rule
class WireSchemaRule(Rule):
    id = "R003"
    title = "wire-schema drift between transports"
    stale_hint = "point LintConfig.wire_modules / dispatchers at code that exists"
    hint = "declare the verb once in service/protocol.py and reuse the shared builder"

    def check(self, project: Project) -> Iterator[Finding]:
        config = project.config
        protocol = project.get(config.protocol_module)
        if protocol is None:
            return  # a tree without a protocol module has no wire schema
        constants = _collect_op_constants(protocol)
        declared_in_protocol = set(constants.values())
        # Constants defined elsewhere still resolve comparisons/builders,
        # but do NOT count as declared -- that is exactly the drift this
        # rule exists to catch.
        foreign_constants: dict[str, str] = {}
        for module in project.iter_modules():
            if module is protocol:
                continue
            foreign_constants.update(_collect_op_constants(module))
        resolver = _VerbResolver({**foreign_constants, **constants})

        # -- stale config: every configured module and dispatcher exists ------
        for module_name in config.wire_modules:
            if project.get(module_name) is None:
                yield self.finding(
                    protocol,
                    protocol.tree,
                    f"configured wire module {module_name!r} does not exist",
                    hint=self.stale_hint,
                )

        # The literal core verbs of the protocol's own dispatcher are
        # declarations too (the protocol module IS the declaration site).
        handled: dict[str, dict[str, ast.AST]] = {}
        for module_name, function_name in config.dispatchers:
            module = project.get(module_name)
            function = _functions(module).get(function_name) if module is not None else None
            if function is None:
                yield self.finding(
                    protocol,
                    protocol.tree,
                    f"configured dispatcher {module_name}.{function_name}() does not exist",
                    hint=self.stale_hint,
                )
                continue
            handled[module_name] = _compared_verbs(function, resolver)
        protocol_handled = handled.get(config.protocol_module, {})
        declared = declared_in_protocol | set(protocol_handled)

        # -- handled-but-undeclared --------------------------------------------
        for module_name, verbs in handled.items():
            module = project.get(module_name)
            assert module is not None
            for verb, node in sorted(verbs.items()):
                if verb not in declared:
                    yield self.finding(
                        module,
                        node,
                        f"verb {verb!r} is handled by {module_name} but not "
                        f"declared in {config.protocol_module}",
                    )

        # -- collect response shapes + consumers across the wire modules -------
        shapes: dict[str, list[_ResponseShape]] = {}
        consumed: set[str] = set()
        for module_name in config.wire_modules:
            module = project.get(module_name)
            if module is None:
                continue
            for verb, module_shapes in _response_shapes(module, resolver).items():
                shapes.setdefault(verb, []).extend(module_shapes)
            for function in ast.walk(module.tree):
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    consumed.update(_compared_verbs(function, resolver))

        # -- declared-but-unhandled --------------------------------------------
        handled_anywhere = consumed | {
            verb for verbs in handled.values() for verb in verbs
        }
        emitted = set(shapes)
        for verb in sorted(declared):
            if verb not in handled_anywhere and verb not in emitted:
                yield self.finding(
                    protocol,
                    protocol.tree,
                    f"verb {verb!r} is declared but no transport handles, "
                    "emits or consumes it",
                    hint="remove the dead verb or wire it into a dispatcher",
                )

        # -- divergent response keys across transports -------------------------
        # The protocol module's builders are canonical; a verb may have
        # several legitimate canonical variants (a subscribe summary and
        # a sweep summary differ by design).  Drift is a shape in
        # *another* module incompatible with every canonical variant --
        # different transports answering one verb with different keys.
        for verb, verb_shapes in sorted(shapes.items()):
            canonical = [s for s in verb_shapes if s.module is protocol]
            others = [s for s in verb_shapes if s.module is not protocol]
            if not canonical:
                # No protocol builder: the first emitting module's
                # variants become the reference for cross-module checks.
                modules_in_order: list[ModuleInfo] = []
                for shape in others:
                    if shape.module not in modules_in_order:
                        modules_in_order.append(shape.module)
                if len(modules_in_order) < 2:
                    continue
                canonical = [s for s in others if s.module is modules_in_order[0]]
                others = [s for s in others if s.module is not modules_in_order[0]]
            for other in others:
                if any(_compatible(other, reference) for reference in canonical):
                    continue
                reference = canonical[0]
                missing = reference.required - other.required - other.optional
                extra = other.required - reference.required - reference.optional
                detail = []
                if missing:
                    detail.append(f"missing {sorted(missing)}")
                if extra:
                    detail.append(f"extra {sorted(extra)}")
                yield self.finding(
                    other.module,
                    other.node,
                    f"response for verb {verb!r} in "
                    f"{other.module.name}.{other.function}() diverges from "
                    f"{reference.module.name}.{reference.function}(): "
                    f"{', '.join(detail) or 'incompatible key sets'}",
                    hint="answer every transport with the shared protocol builder",
                )
