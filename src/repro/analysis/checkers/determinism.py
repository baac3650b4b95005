"""Determinism checkers DET01–DET04.

Every reproducibility contract this project ships — byte-identical
``--shards 1`` runs, digest-equal warm restarts, oracle-exact versioned
consistency — dies the moment hidden global state leaks into a decision
path.  These rules pin the four leak classes we have actually been bitten
by (or nearly): the process-global RNG, wall clocks, set iteration order
and ``id()``-based tie-breaks.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from repro.analysis.base import Checker, register

#: Module-level `random` attributes that are legitimate even under DET01:
#: constructing an explicitly seeded generator is the approved pattern.
_RANDOM_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})

#: numpy RNG constructors that take an explicit seed argument.
_NUMPY_CONSTRUCTORS = frozenset({"numpy.random.default_rng",
                                 "numpy.random.RandomState",
                                 "numpy.random.Generator"})

#: Wall-clock reads (canonical dotted names after import resolution).
_WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Builtins whose call argument is iterated eagerly (DET03 contexts).
_ITERATING_BUILTINS = frozenset({"list", "tuple", "iter", "enumerate"})

#: Callables whose ``key=`` argument orders or tie-breaks elements (DET04).
_ORDERING_CALLABLES = frozenset({"sorted", "min", "max"})


@register
class UnseededRandomChecker(Checker):
    """DET01 — calls into the process-global RNG.

    ``random.random()``, ``random.shuffle(...)``, ``from random import
    choice; choice(...)`` and the ``numpy.random`` module-level equivalents
    all read hidden global state: two fleets constructed in a different
    order draw different numbers and the run is no longer a pure function
    of its seeds.  RNGs must flow from an explicitly seeded
    ``random.Random`` handed down by the caller.  Constructing such a
    generator (``random.Random(seed)``) is the approved pattern and is not
    flagged.
    """

    rule = "DET01"
    title = "module-level random.* / numpy.random call (unseeded global RNG)"

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.imports.resolve(node.func)
        if resolved is not None:
            if (resolved.startswith("random.")
                    and resolved not in _RANDOM_CONSTRUCTORS):
                self.report(node, f"call to the global RNG ({resolved}); "
                                  "thread an explicitly seeded random.Random "
                                  "through instead")
            elif (resolved.startswith("numpy.random.")
                    and resolved not in _NUMPY_CONSTRUCTORS):
                self.report(node, f"call to the global numpy RNG ({resolved}); "
                                  "use numpy.random.default_rng(seed)")
        self.generic_visit(node)


@register
class WallClockChecker(Checker):
    """DET02 — wall-clock reads outside the CLI.

    Simulated time is the only clock the models may consult; a
    ``time.time()`` or ``perf_counter()`` in a cost or decision path makes
    results depend on host load.  Measurement-only uses (CPU accounting
    that feeds *reported* metrics but never a decision) carry a
    ``# repro: allow[DET02]`` waiver stating exactly that.
    """

    rule = "DET02"
    title = "wall-clock read outside cli.py"

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.imports.resolve(node.func)
        if resolved in _WALL_CLOCKS:
            self.report(node, f"wall-clock read ({resolved}); simulation "
                              "logic must use simulated time")
        self.generic_visit(node)


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactic set producers: literals, comprehensions, set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                                            ast.BitXor, ast.Sub)):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


@register
class SetIterationChecker(Checker):
    """DET03 — iteration over a set expression in decision-affecting code.

    Set iteration order is salted per process; a ``for`` loop (or
    comprehension, or ``list(...)`` materialisation) over a set literal,
    set comprehension or ``set()``/``frozenset()`` call in ``core/``,
    ``rtree/``, ``sharding/`` or ``updates/`` leaks that order into
    decisions unless wrapped in ``sorted(...)``.  Only syntactic set
    expressions are detected — iterating a variable that merely *holds*
    a set needs type inference — so the rule is a tripwire, not a proof.
    """

    rule = "DET03"
    title = "iteration over a set expression without sorted(...)"

    _MESSAGE = ("set iteration order is nondeterministic; wrap the set in "
                "sorted(...) before iterating")

    def _check_iterable(self, iterable: ast.AST) -> None:
        if _is_set_expression(iterable):
            self.report(iterable, self._MESSAGE)

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: Union[ast.ListComp, ast.SetComp,
                                               ast.GeneratorExp,
                                               ast.DictComp]) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ITERATING_BUILTINS and node.args):
            self._check_iterable(node.args[0])
        self.generic_visit(node)


def _uses_identity(node: ast.AST) -> Optional[ast.AST]:
    """The first ``id(...)``/``hash(...)`` call (or bare reference) inside ``node``."""
    if isinstance(node, ast.Name) and node.id in ("id", "hash"):
        return node
    for child in ast.walk(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in ("id", "hash")):
            return child
    return None


@register
class IdentityOrderingChecker(Checker):
    """DET04 — ``id()`` / default ``hash()`` as an ordering or tie-break key.

    ``id()`` is an address and the default ``hash()`` inherits it (or is
    salted for strings): both differ across runs, so a
    ``sorted(..., key=id)`` or a lambda key touching either turns a stable
    ordering into an allocation-order lottery.  Order by a domain key
    (object id, page id, coordinates) instead.
    """

    rule = "DET04"
    title = "id()/hash() used as an ordering or tie-break key"

    def visit_Call(self, node: ast.Call) -> None:
        is_ordering = (isinstance(node.func, ast.Name)
                       and node.func.id in _ORDERING_CALLABLES)
        is_sort_method = (isinstance(node.func, ast.Attribute)
                          and node.func.attr == "sort")
        if is_ordering or is_sort_method:
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                culprit = _uses_identity(keyword.value)
                if culprit is not None:
                    self.report(keyword.value,
                                "ordering key built on id()/hash() varies "
                                "across runs; order by a domain key instead")
        self.generic_visit(node)
