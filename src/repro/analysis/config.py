"""Path-scoped rule configuration for the determinism linter.

Each rule applies to a set of files described by shell-style patterns over
the *package-relative* path (the part of the file path starting at the
``repro/`` package directory; files outside the package match their posix
path as given).  Patterns use :mod:`fnmatch` semantics, where ``*`` crosses
``/`` — ``repro/core/*`` therefore covers the whole subtree.

The project defaults below encode the determinism contracts: wall-clock
reads are legal only in the CLI, set-iteration order only matters in the
decision-affecting packages, slots are enforced where the PR-2 profiles
showed attribute-access heat, and the strict-typing companion rule mirrors
the mypy strict packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, Iterable, Tuple


@dataclass(frozen=True, slots=True)
class RuleScope:
    """Which package-relative paths one rule applies to."""

    include: Tuple[str, ...] = ("*",)
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relative_path: str) -> bool:
        """True when the rule is enabled for ``relative_path``."""
        if not any(fnmatch(relative_path, pattern) for pattern in self.include):
            return False
        return not any(fnmatch(relative_path, pattern) for pattern in self.exclude)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Rule-id → :class:`RuleScope` table (rules absent here never run)."""

    scopes: Tuple[Tuple[str, RuleScope], ...]

    @classmethod
    def make(cls, scopes: Dict[str, RuleScope]) -> "LintConfig":
        """Build a config from a dict (stored sorted for determinism)."""
        return cls(scopes=tuple(sorted(scopes.items())))

    def rules(self) -> Tuple[str, ...]:
        """All configured rule ids, sorted."""
        return tuple(rule for rule, _ in self.scopes)

    def rules_for(self, relative_path: str,
                  only: Iterable[str] = ()) -> Tuple[str, ...]:
        """Rule ids enabled for one file (optionally restricted to ``only``)."""
        wanted = {rule.upper() for rule in only}
        return tuple(rule for rule, scope in self.scopes
                     if (not wanted or rule in wanted)
                     and scope.applies_to(relative_path))


#: Packages whose object layout is hot enough that ``__slots__`` is required
#: (the PR-2 geometry/eviction profiles) — SLT01's scope.
HOT_PATH_PACKAGES = ("repro/geometry/*", "repro/rtree/*", "repro/core/*")

#: Packages held to the strict end of the typing gate — TYP01's scope and
#: the per-module strict sections in ``mypy.ini`` must name the same set.
STRICT_TYPING_PACKAGES = ("repro/geometry/*", "repro/rtree/*",
                          "repro/storage/*", "repro/updates/*",
                          "repro/analysis/*", "repro/net/*",
                          "repro/obs/*", "repro/core/*",
                          "repro/sharding/*", "repro/sim/*")

#: Packages wired for instrumentation, where every wall-clock read must go
#: through ``repro.obs.instrument.perf_clock`` — OBS01's scope.
INSTRUMENTED_PACKAGES = ("repro/sim/*", "repro/core/*", "repro/sharding/*",
                         "repro/net/*", "repro/storage/*", "repro/updates/*")

#: Packages where iteration order feeds query results, eviction choices or
#: digests — DET03's scope.
DECISION_AFFECTING_PACKAGES = ("repro/core/*", "repro/rtree/*",
                               "repro/sharding/*", "repro/updates/*")

#: The crash-safety write paths: everything here must write through
#: :mod:`repro.storage.atomic` or the WAL — DUR01's scope.
DURABLE_WRITE_PACKAGES = ("repro/storage/*", "repro/sim/restart.py")

DEFAULT_CONFIG = LintConfig.make({
    "DET01": RuleScope(),
    "DET02": RuleScope(exclude=("repro/cli.py",)),
    "DET03": RuleScope(include=DECISION_AFFECTING_PACKAGES),
    "DET04": RuleScope(),
    "DUR01": RuleScope(include=DURABLE_WRITE_PACKAGES),
    "FLT01": RuleScope(),
    "OBS01": RuleScope(include=INSTRUMENTED_PACKAGES),
    "STM01": RuleScope(),
    "SLT01": RuleScope(include=HOT_PATH_PACKAGES),
    "TYP01": RuleScope(include=STRICT_TYPING_PACKAGES),
})


def package_relative(path: str) -> str:
    """The scope-matching form of ``path``.

    The posix path from the last ``repro`` directory component onward when
    one exists (``src/repro/core/cache.py`` → ``repro/core/cache.py``), so
    scoping is stable no matter where the tree is checked out or which
    prefix the user passed on the command line.  Paths without a ``repro``
    component are matched as given — the fixture trees under
    ``tests/analysis/fixtures/`` exploit this by mirroring the package
    layout to opt fixtures into path-scoped rules.
    """
    posix = path.replace("\\", "/")
    parts = posix.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return posix
