"""Checker base class, per-file context and the rule registry.

A checker is an :class:`ast.NodeVisitor` bound to one rule id.  The runner
parses each file once into a :class:`FileContext` (source, AST, import map,
suppression sheet) and runs every enabled checker over that shared context;
checkers call :meth:`Checker.report` and the context routes the finding
through the suppression sheet.

The :class:`ImportMap` gives checkers *canonical dotted names* for call
targets — ``from time import perf_counter as pc; pc()`` resolves to
``time.perf_counter`` — so rules match what is called, not how the import
happened to be spelled.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Type

from repro.analysis.config import package_relative
from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionSheet


class ImportMap:
    """Local-name → canonical dotted-path resolution for one module."""

    def __init__(self, tree: ast.AST) -> None:
        self._modules: Dict[str, str] = {}
        self._names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self._modules[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a ``Name``/``Attribute`` chain, or None.

        Only chains rooted at an imported name resolve; attribute access on
        local objects (``self.rng.random``) deliberately resolves to None —
        instance-owned RNGs and clocks are exactly the seeded/injected kind
        the determinism rules approve of.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._names.get(node.id) or self._modules.get(node.id)
        if root is None:
            return None
        return ".".join([root] + parts[::-1])


class FileContext:
    """Everything the checkers need to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 enabled_rules: Optional[List[str]] = None) -> None:
        self.path = path
        self.relative_path = package_relative(path)
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        self.suppressions = SuppressionSheet.from_source(source)
        self.enabled_rules = list(enabled_rules or [])
        self.findings: List[Finding] = []

    @classmethod
    def parse(cls, path: str, source: str,
              enabled_rules: Optional[List[str]] = None) -> "FileContext":
        """Parse ``source`` (raises ``SyntaxError`` on unparsable input)."""
        return cls(path, source, ast.parse(source, filename=path), enabled_rules)

    def add(self, rule: str, node: ast.AST, message: str) -> None:
        """Record a finding unless a suppression comment waives it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.suppresses(rule, line):
            return
        self.findings.append(Finding(rule=rule, path=self.path, line=line,
                                     col=col, message=message))


class Checker(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set :attr:`rule` (the id findings carry) and :attr:`title`
    (the one-line catalogue description) and implement ``visit_*`` methods,
    reporting via :meth:`report`.  One checker instance is created per file.
    """

    rule: str = ""
    title: str = ""

    def __init__(self, context: FileContext) -> None:
        self.context = context

    def run(self) -> None:
        """Visit the file's AST (override for non-visitor checkers)."""
        self.visit(self.context.tree)

    def report(self, node: ast.AST, message: str) -> None:
        """Emit one finding for this checker's rule."""
        self.context.add(self.rule, node, message)


#: The registry the runner and the CLI rule catalogue are built from.
CHECKER_REGISTRY: Dict[str, Type[Checker]] = {}


def register(checker_class: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to :data:`CHECKER_REGISTRY`."""
    if not checker_class.rule:
        raise ValueError(f"{checker_class.__name__} has no rule id")
    if checker_class.rule in CHECKER_REGISTRY:
        raise ValueError(f"duplicate checker for rule {checker_class.rule}")
    CHECKER_REGISTRY[checker_class.rule] = checker_class
    return checker_class
