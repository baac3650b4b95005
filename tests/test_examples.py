"""Smoke tests: every script in ``examples/`` imports and runs.

Each example's ``main()`` accepts scale parameters (defaulting to the
showcase scale documented in its header) so the suite can execute the real
code path in a couple of seconds.  A broken example is a documentation bug:
these scripts are the first thing the README points new users at.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Tiny-scale keyword arguments per example (must all be valid ``main`` params).
TINY_PARAMS = {
    "quickstart": {"query_count": 8, "object_count": 300},
    "city_courier_comparison": {"query_count": 8, "object_count": 300,
                                "sweep_query_count": 6},
    "fleet_rush_hour": {"query_count": 3, "object_count": 300,
                        "pedestrians": 2, "vehicles": 1, "hotspot": 1},
    "adaptive_knn_ramp": {"query_count": 20, "window": 5},
    "joey_motel_search": {"motel_count": 300},
}

#: The one example that narrates single queries instead of printing a table.
NARRATIVE = {"joey_motel_search"}

#: The dashed rule under a ``format_table`` header row.
TABLE_RULE = re.compile(r"^-+(  -+)*\s*$", re.MULTILINE)


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_example_is_covered():
    on_disk = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(TINY_PARAMS), (
        "examples/ and TINY_PARAMS disagree; add tiny parameters for new "
        f"examples: {sorted(on_disk.symmetric_difference(TINY_PARAMS))}")


@pytest.mark.parametrize("name", sorted(TINY_PARAMS))
def test_example_runs_at_tiny_scale(name, capsys):
    module = _load_example(name)
    assert module.__doc__, f"examples/{name}.py lacks a header docstring"
    module.main(**TINY_PARAMS[name])
    output = capsys.readouterr().out
    assert output.strip(), f"examples/{name}.py printed nothing"
    if name not in NARRATIVE:
        assert TABLE_RULE.search(output), f"examples/{name}.py printed no table"


@pytest.mark.parametrize("name", sorted(TINY_PARAMS))
def test_example_headers_reference_current_interfaces(name):
    """Headers must not reference CLI flags or symbols that no longer exist."""
    text = (EXAMPLES_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert f"python examples/{name}.py" in text, (
        f"examples/{name}.py header lost its run instructions")
    for stale in ("--num-queries", "--n-objects", "repro-spatial-cache ",
                  "run_simulation(", "repro sim "):
        assert stale not in text, (
            f"examples/{name}.py references the retired interface {stale!r}")
