"""Structural invariant checkers: STM01 and SLT01.

These two rules pin class-shape contracts that runtime tests only catch
by luck: a ``state_dict`` that silently misses a newly added field (the
PR-3/PR-4 digest-stability hazard) and a hot-path dataclass that regresses
to ``__dict__`` storage.  (Who implements which seam is not a lint rule:
each seam is a ``typing.Protocol`` — see :mod:`repro.core.handles` —
checked by mypy and ``tests/test_seams.py``.)
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.base import Checker, register


def _decorator_callable(decorator: ast.AST) -> Optional[ast.AST]:
    """The underlying callable of a decorator (unwrapping a Call)."""
    return decorator.func if isinstance(decorator, ast.Call) else decorator


def _is_dataclass_decorator(decorator: ast.AST) -> bool:
    target = _decorator_callable(decorator)
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


def _string_elements(node: ast.AST) -> List[str]:
    """String constants inside a tuple/list literal (``__slots__`` values)."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [element.value for element in node.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _declared_fields(class_node: ast.ClassDef) -> List[str]:
    """The state-carrying fields of a class, best-effort and in source order.

    Precedence: an explicit ``__slots__`` wins; else a ``@dataclass`` body's
    annotated fields (``ClassVar`` excluded); else the ``self.X = ...``
    assignments in ``__init__``.  Dunder names are never state.
    """
    for statement in class_node.body:
        if (isinstance(statement, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in statement.targets)):
            return [n for n in _string_elements(statement.value)
                    if not n.startswith("__")]
    if any(_is_dataclass_decorator(d) for d in class_node.decorator_list):
        fields = []
        for statement in class_node.body:
            if (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.dump(statement.annotation)):
                fields.append(statement.target.id)
        return [n for n in fields if not n.startswith("__")]
    for statement in class_node.body:
        if (isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"):
            fields = []
            for node in ast.walk(statement):
                target = None
                if isinstance(node, ast.Assign) and node.targets:
                    target = node.targets[0]
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and not target.attr.startswith("__")
                        and target.attr not in fields):
                    fields.append(target.attr)
            return fields
    return []


def _captured_keys(function: ast.FunctionDef) -> Set[str]:
    """Every string constant in a ``state_dict`` body (the captured keys)."""
    captured: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            captured.add(node.value)
    return captured


@register
class StateDictCoverageChecker(Checker):
    """STM01 — ``state_dict()`` that does not cover the class's fields.

    Warm restarts and the sharded save/load path reconstruct objects from
    ``state_dict`` output and assert digest equality; a field added to the
    class but not to the snapshot silently diverges on the first resume.
    The check is key-name based: a field counts as captured when its name
    (leading underscores stripped) appears as a string constant anywhere in
    the ``state_dict`` body.  Deliberately excluded fields — derived
    aggregates rebuilt on load, config injected by the constructor —
    carry a ``# repro: allow[STM01]`` waiver naming them.
    """

    rule = "STM01"
    title = "state_dict() misses __slots__/dataclass/__init__ fields"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        state_dict = next(
            (item for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "state_dict"),
            None)
        builds_dict = state_dict is not None and any(
            isinstance(inner, ast.Dict) for inner in ast.walk(state_dict))
        if builds_dict:
            captured = _captured_keys(state_dict)
            if captured:  # a stub that raises captures nothing: skip
                missing = [field for field in _declared_fields(node)
                           if field not in captured
                           and field.lstrip("_") not in captured]
                if missing:
                    self.report(state_dict,
                                f"state_dict() of {node.name} does not capture "
                                f"field(s) {', '.join(missing)}; snapshot them "
                                "or waive with the reason they are excluded")
        self.generic_visit(node)


@register
class SlotsChecker(Checker):
    """SLT01 — hot-path dataclass without ``slots=True``.

    The PR-2 profiles showed ``__dict__`` attribute access dominating the
    geometry and eviction loops; dataclasses in the hot packages therefore
    opt into ``__slots__`` with a literal ``slots=True``.  A class that
    must keep ``__dict__`` (e.g. it is monkeypatched in tests or
    subclassed with ad-hoc attributes) carries a waiver saying so.
    """

    rule = "SLT01"
    title = "hot-path dataclass missing slots=True"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            if not _is_dataclass_decorator(decorator):
                continue
            if isinstance(decorator, ast.Call) and self._has_slots(decorator):
                continue
            self.report(decorator, f"dataclass {node.name} in a hot-path "
                                   "package should pass slots=True")
        self.generic_visit(node)

    @staticmethod
    def _has_slots(decorator: ast.Call) -> bool:
        return any(keyword.arg == "slots"
                   and isinstance(keyword.value, ast.Constant)
                   and keyword.value.value is True
                   for keyword in decorator.keywords)
