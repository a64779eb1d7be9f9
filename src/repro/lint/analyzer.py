"""Project analysis: module discovery, import graph, tainted set.

The analyzer parses every module under one package root into an AST
once, resolves the intra-package import graph (top-level *and*
deferred function-local imports -- the serving tier defers heavily),
and computes the **fingerprint-tainted set**: every module reachable
along import edges from the determinism roots (canonical spec hashing,
result fingerprints, Monte-Carlo trial seeding, manifest digests).
Rules fire on reachability, not on a hardcoded file list, so a new
module that starts feeding fingerprints is covered the moment anything
on the tainted path imports it.

Suppressions are source comments, parsed here once for all rules::

    something_noisy()  # repro-lint: disable=R001 -- justification

applies to its own line and the line directly below (so a multi-line
call can carry the comment on its opening line), and::

    # repro-lint: disable-file=R004

within the first ten lines of a file suppresses a rule file-wide.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["LintConfig", "ModuleInfo", "Project"]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class LintConfig:
    """What the rules treat as roots and wire modules.

    Everything is a dotted module name with the package prefix
    (``repro.api.spec``); tests point these at fixture trees.
    """

    #: Modules whose import closure is the fingerprint-tainted set:
    #: canonical spec hashing, result fingerprints, Monte-Carlo trial
    #: seeding and manifest digests.
    taint_roots: tuple[str, ...] = (
        "repro.api.spec",
        "repro.api.result",
        "repro.faults.montecarlo",
        "repro.experiments.manifest",
    )
    #: Where the verb table lives (``*_OP`` constants + the literal core
    #: verbs of ``handle_request``).
    protocol_module: str = "repro.service.protocol"
    #: Modules that build wire responses; R003 cross-checks the response
    #: key set of each verb across all of them.
    wire_modules: tuple[str, ...] = (
        "repro.service.protocol",
        "repro.service.aio",
        "repro.service.client",
        "repro.cluster.router",
    )
    #: ``module -> dispatcher function names``: where request verbs are
    #: compared against the ``op`` of an incoming request.
    dispatchers: tuple[tuple[str, str], ...] = (
        ("repro.service.protocol", "handle_request"),
        ("repro.cluster.router", "_dispatch"),
    )


@dataclass
class ModuleInfo:
    """One parsed module: source, AST, aliases and suppressions."""

    name: str  #: dotted, package-prefixed ("repro.api.spec")
    path: Path  #: absolute path on disk
    rel_path: str  #: display/baseline path ("repro/api/spec.py")
    source: str
    tree: ast.Module
    #: imported-name -> dotted target ("np" -> "numpy",
    #: "perf_counter" -> "time.perf_counter") for call resolution.
    aliases: dict[str, str] = field(default_factory=dict)
    #: intra-package modules this module imports (dotted names).
    imports: set[str] = field(default_factory=set)
    #: line -> rule ids suppressed on that line ("*" = all).
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file.
    file_suppressions: set[str] = field(default_factory=set)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "*" in self.file_suppressions:
            return True
        for at in (line, line - 1):
            rules = self.suppressions.get(at)
            if rules and (rule in rules or "*" in rules):
                return True
        return False

    def resolve_call(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a call target, through the module's aliases.

        ``time.time()`` -> ``"time.time"``; with ``import numpy as np``,
        ``np.random.rand()`` -> ``"numpy.random.rand"``; with
        ``from time import perf_counter``, ``perf_counter()`` ->
        ``"time.perf_counter"``.  Returns None for dynamic targets.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], set[str]]:
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {item.strip() for item in match.group(1).split(",") if item.strip()}
            per_line.setdefault(lineno, set()).update(rules)
        match = _SUPPRESS_FILE_RE.search(line)
        if match and lineno <= 10:
            per_file.update(
                item.strip() for item in match.group(1).split(",") if item.strip()
            )
    return per_line, per_file


class Project:
    """Every module under one package root, parsed and cross-linked.

    Args:
        package_root: the directory of the package itself (the one
            containing the top-level ``__init__.py``) -- ``src/repro``
            in this repo, a fixture tree in the rule tests.
        config: root/wire-module names; defaults match this repo.
    """

    def __init__(self, package_root: Path, config: Optional[LintConfig] = None) -> None:
        self.package_root = Path(package_root).resolve()
        self.package = self.package_root.name
        self.config = config if config is not None else LintConfig()
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[tuple[str, str]] = []
        self._discover()
        for module in self.modules.values():
            self._link(module)
        self.tainted: frozenset[str] = self._taint_closure()

    # -- discovery -------------------------------------------------------------
    def _module_name(self, path: Path) -> str:
        rel = path.relative_to(self.package_root)
        parts = [self.package, *rel.parts[:-1]]
        if rel.name != "__init__.py":
            parts.append(rel.stem)
        return ".".join(parts)

    def _discover(self) -> None:
        for path in sorted(self.package_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            source = path.read_text(encoding="utf-8")
            name = self._module_name(path)
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                self.parse_errors.append((name, str(error)))
                continue
            per_line, per_file = _parse_suppressions(source)
            rel_path = str(Path(self.package, *path.relative_to(self.package_root).parts))
            self.modules[name] = ModuleInfo(
                name=name,
                path=path,
                rel_path=rel_path,
                source=source,
                tree=tree,
                suppressions=per_line,
                file_suppressions=per_file,
            )

    # -- import resolution -----------------------------------------------------
    def _resolve_relative(self, module: ModuleInfo, level: int) -> list[str]:
        """The package parts a level-``level`` relative import is rooted at."""
        parts = module.name.split(".")
        # For "repro.api.spec", the containing package is ["repro", "api"];
        # for a package __init__ ("repro.api"), it is the package itself.
        if module.path.name == "__init__.py":
            package_parts = parts
        else:
            package_parts = parts[:-1]
        cut = len(package_parts) - (level - 1)
        return package_parts[: max(cut, 0)]

    def _note_import(self, module: ModuleInfo, target: str) -> None:
        """Record an intra-package import edge if the target exists."""
        if target in self.modules:
            module.imports.add(target)

    def _link(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        module.aliases[head] = head
                    self._note_import(module, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._resolve_relative(module, node.level)
                else:
                    base = []
                target_parts = list(base)
                if node.module:
                    target_parts += node.module.split(".")
                target = ".".join(target_parts)
                self._note_import(module, target)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    full = f"{target}.{alias.name}" if target else alias.name
                    module.aliases[bound] = full
                    # "from . import submodule" / "from .pkg import submodule"
                    self._note_import(module, full)

    # -- taint -----------------------------------------------------------------
    def _taint_closure(self) -> frozenset[str]:
        roots = [name for name in self.config.taint_roots if name in self.modules]
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.modules[name].imports - seen)
        return frozenset(seen)

    def is_tainted(self, module: ModuleInfo) -> bool:
        return module.name in self.tainted

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def module_for_path(self, rel_path: str) -> Optional[ModuleInfo]:
        """Look a module up by its display path ("repro/api/spec.py")."""
        for module in self.modules.values():
            if module.rel_path == rel_path:
                return module
        return None

    def iter_modules(self) -> Iterable[ModuleInfo]:
        return self.modules.values()
