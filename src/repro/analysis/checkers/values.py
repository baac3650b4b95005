"""Value-comparison checkers: FLT01 (float equality) and TYP01 (annotations).

FLT01 guards the digest contracts: a float ``==`` that holds on one
platform's FMA/rounding behaviour and not another's silently breaks
byte-identical replay.  TYP01 is the locally-runnable core of the mypy
strict gate — CI runs full mypy, but missing annotations are caught at
``repro lint`` speed without the dependency.
"""

from __future__ import annotations

import ast
from typing import Union

from repro.analysis.base import Checker, register

#: Attribute chains that are float constants for FLT01 purposes.
_FLOAT_ATTRIBUTES = frozenset({"math.inf", "math.nan", "math.pi", "math.e",
                               "math.tau"})


def _is_float_expression(checker: Checker, node: ast.AST) -> bool:
    """Syntactically float-valued: float literals, float(), true division."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_expression(checker, node.operand)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"):
        return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return (_is_float_expression(checker, node.left)
                or _is_float_expression(checker, node.right))
    resolved = checker.context.imports.resolve(node)
    return resolved in _FLOAT_ATTRIBUTES


@register
class FloatEqualityChecker(Checker):
    """FLT01 — ``==`` / ``!=`` against a float-valued expression.

    Exact float comparison is only sound when both sides are *exact by
    construction* (copied, never recomputed through arithmetic).  Such
    sites carry a ``# repro: allow[FLT01]`` waiver stating why exactness
    holds; everything else compares with an epsilon or an order predicate
    (``<=``), which is also how the two sites this rule originally flagged
    were rewritten (``Rect.difference``, the RD dataset's degenerate-MBR
    guard).
    """

    rule = "FLT01"
    title = "float ==/!= comparison outside exact-by-construction sites"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, operator in enumerate(node.ops):
            if not isinstance(operator, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if (_is_float_expression(self, left)
                    or _is_float_expression(self, right)):
                self.report(node, "exact float ==/!= is rounding-fragile; "
                                  "compare with an epsilon/<= form or waive "
                                  "with a why-exactness-holds comment")
        self.generic_visit(node)


@register
class AnnotationChecker(Checker):
    """TYP01 — unannotated function signatures in the strict-typing packages.

    The packages mypy checks strictly (``STRICT_TYPING_PACKAGES`` in
    :mod:`repro.analysis.config`) must annotate every parameter and
    return type; this is the subset of the gate that runs
    without mypy installed, so a fresh checkout still enforces it via
    ``repro lint``.  Lambdas and ``self``/``cls`` are exempt.
    """

    rule = "TYP01"
    title = "missing parameter/return annotations in strict-typing packages"

    def _check_function(self, node: Union[ast.FunctionDef,
                                          ast.AsyncFunctionDef]) -> None:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        missing = []
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(arg.arg for arg in args.kwonlyargs if arg.annotation is None)
        for variadic in (args.vararg, args.kwarg):
            if variadic is not None and variadic.annotation is None:
                missing.append(variadic.arg)
        if missing:
            self.report(node, f"unannotated parameter(s) "
                              f"{', '.join(sorted(missing))} in a "
                              "strict-typing package")
        if node.returns is None:
            self.report(node, f"missing return annotation on {node.name}() "
                              "in a strict-typing package")
        self.generic_visit(node)

    visit_FunctionDef = _check_function
    visit_AsyncFunctionDef = _check_function
