"""Documentation checks: required guides exist, internal links resolve.

This is the test half of the CI ``docs`` job (the other half is the
docstring sweep in ``test_docstrings.py``).  It keeps ``docs/`` honest
without any third-party tooling: every relative markdown link in ``docs/``
and ``README.md`` must point at a file (and, for ``#fragment`` links, at a
heading that exists), and the guides the README promises must be present.
"""

from __future__ import annotations

import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

REQUIRED_GUIDES = ("architecture.md", "replacement-policies.md", "cli.md",
                   "persistence.md", "updates.md", "sharding.md",
                   "networking.md", "observability.md")

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted(DOCS_DIR.glob("*.md")))
    return files


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: pathlib.Path) -> set:
    return {_slugify(match) for match in _HEADING.findall(
        path.read_text(encoding="utf-8"))}


def test_required_guides_exist():
    for name in REQUIRED_GUIDES:
        assert (DOCS_DIR / name).is_file(), f"docs/{name} is missing"


def test_architecture_guide_has_the_layer_diagram():
    text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
    assert "```mermaid" in text, "architecture.md lost its mermaid layer map"
    for layer in ("geometry", "rtree", "storage", "core", "sharding",
                  "net", "sim", "obs"):
        assert layer in text


def test_cli_guide_covers_every_subcommand():
    from repro.cli import build_parser
    text = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if action.__class__.__name__ == "_SubParsersAction")
    for command in subparsers.choices:
        assert f"repro {command}" in text, (
            f"docs/cli.md does not document 'repro {command}'")


def _option_strings(parser):
    """Every option string of ``parser`` and of its nested sub-commands."""
    options = set()
    for action in parser._actions:
        if action.__class__.__name__ == "_SubParsersAction":
            for subparser in action.choices.values():
                options |= _option_strings(subparser)
        else:
            options.update(action.option_strings)
    return options - {"-h", "--help"}


def test_cli_guide_documents_every_option_in_its_subcommand_section():
    from repro.cli import build_parser
    text = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
    sections = {}
    for block in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        heading, _, body = block.partition("\n")
        sections[heading.strip()] = body
    subparsers = next(action for action in build_parser()._actions
                      if action.__class__.__name__ == "_SubParsersAction")
    for command, parser in subparsers.choices.items():
        section = sections[f"`repro {command}`"]
        missing = sorted(option for option in _option_strings(parser)
                         if not re.search(re.escape(option) + r"(?![\w-])",
                                          section))
        assert not missing, (
            f"docs/cli.md's 'repro {command}' section omits {missing}")


def test_cli_guide_mirrors_the_combination_table_row_for_row():
    from repro.sim.deployment import COMBINATIONS
    text = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
    matrix = text[text.index("### Combination matrix"):]
    documented = [line for line in matrix.splitlines()
                  if line.startswith("| `") and line.count("|") == 4
                  and (" | enabled | " in line or " | rejected | " in line)]
    assert len(documented) == len(COMBINATIONS)
    for line, (row, message) in zip(documented, COMBINATIONS.items()):
        name = " × ".join(f"`{feature}`" for feature in row.split())
        assert line.startswith(f"| {name} | "), (line, row)
        if message is None:
            assert " | enabled | " in line
        else:
            assert line == f"| {name} | rejected | {message} |"


@pytest.mark.parametrize("path", _markdown_files(),
                         ids=[str(p.relative_to(REPO_ROOT))
                              for p in _markdown_files()])
def test_internal_links_resolve(path):
    text = path.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target_path, _, fragment = target.partition("#")
        resolved = (path.parent / target_path).resolve() if target_path \
            else path.resolve()
        if target_path and not resolved.exists():
            broken.append(target)
            continue
        if fragment and resolved.suffix == ".md":
            if _slugify(fragment) not in _anchors(resolved):
                broken.append(target)
    assert not broken, f"{path.relative_to(REPO_ROOT)}: broken links {broken}"
