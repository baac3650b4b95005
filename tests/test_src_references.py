"""``src/`` keeps only what the program runs.

Every ``def`` and ``class`` under ``src/`` must be referenced somewhere in
``src/``, ``bench/`` or ``examples/`` — by a name, an attribute, an import
or an ``__all__`` string.  A definition only the tests call belongs in
``tests/`` (as an oracle next to the tests that need it) or nowhere.  The
scan is by name, so it cannot prove a definition is used; it catches the
ones nothing mentions at all.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Definitions no code names on purpose, each with the reason.
ALLOWED = {
    # The test suite's small configuration; the package docstring shows it.
    ("src/repro/sim/config.py", "SimulationConfig.tiny"),
}


def _trees(top: str) -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted((ROOT / top).rglob("*.py")):
        yield (path.relative_to(ROOT).as_posix(),
               ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _references() -> Set[str]:
    names: Set[str] = set()
    for top in ("src", "bench", "examples"):
        for _, tree in _trees(top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name.split(".")[-1])
                elif (isinstance(node, ast.Assign)
                      and any(isinstance(target, ast.Name)
                              and target.id == "__all__"
                              for target in node.targets)):
                    names.update(element.value
                                 for element in ast.walk(node.value)
                                 if isinstance(element, ast.Constant)
                                 and isinstance(element.value, str))
    return names


def _is_registered_checker(node: ast.AST) -> bool:
    # @register adds a lint checker to CHECKER_REGISTRY, and ast.NodeVisitor
    # dispatches its visit_* methods by getattr: neither is called by name.
    return isinstance(node, ast.ClassDef) and any(
        isinstance(decorator, ast.Name) and decorator.id == "register"
        for decorator in node.decorator_list)


def _definitions(node: ast.AST, owner: str = ""
                 ) -> Iterator[Tuple[str, str, int]]:
    for child in ast.iter_child_nodes(node):
        if _is_registered_checker(child):
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualified = f"{owner}.{child.name}" if owner else child.name
            yield child.name, qualified, child.lineno
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, owner)


def test_every_src_definition_is_referenced():
    references = _references()
    unreferenced: List[str] = []
    for path, tree in _trees("src"):
        for name, qualified, line in _definitions(tree):
            # Dunder methods are called by the language, not by name.
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in references or (path, qualified) in ALLOWED:
                continue
            unreferenced.append(f"{path}:{line}: {qualified}")
    assert not unreferenced, (
        "definitions nothing in src/, bench/ or examples/ references (move "
        "a test-only one into tests/, or delete it):\n"
        + "\n".join(unreferenced))


def test_allowed_definitions_still_exist():
    found = {(path, qualified) for path, tree in _trees("src")
             for _, qualified, _ in _definitions(tree)}
    assert ALLOWED <= found, sorted(ALLOWED - found)
