"""Finding records produced by the determinism/invariant linter.

A :class:`Finding` pins one rule violation to a file position.  Findings are
plain frozen dataclasses so checkers can emit them cheaply, the runner can
sort and deduplicate them deterministically, and the CLI can render them as
``path:line:col RULE message`` text or as the JSON schema the CI lint job
uploads as an artifact (see ``docs/static-analysis.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

#: Version stamp of the JSON findings document (bump on schema changes).
JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Deterministic report order: position first, then rule id."""
        return (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self) -> Dict[str, object]:
        """The finding as JSON-serialisable primitives."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def render(self) -> str:
        """``path:line:col: RULE message`` (the text output format)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Findings in deterministic report order."""
    return sorted(findings, key=Finding.sort_key)


def findings_document(findings: Iterable[Finding], *, rules: Iterable[str],
                      checked_files: int) -> Dict[str, object]:
    """The JSON findings document (schema version :data:`JSON_SCHEMA_VERSION`).

    Keys: ``version``, ``tool``, ``rules`` (the rule ids that were enabled),
    ``checked_files``, ``findings`` (sorted), and ``counts`` (per-rule totals
    for the rules that fired).
    """
    ordered = sort_findings(findings)
    counts: Dict[str, int] = {}
    for finding in ordered:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro lint",
        "rules": sorted(rules),
        "checked_files": checked_files,
        "findings": [finding.as_dict() for finding in ordered],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
    }
