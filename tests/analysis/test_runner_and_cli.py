"""The lint runner (path walking, JSON document, syntax errors) and the
``repro lint`` CLI surface (exit codes, rule selection, output formats)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    DEFAULT_CONFIG,
    JSON_SCHEMA_VERSION,
    SYNTAX_ERROR_RULE,
    Finding,
    lint_paths,
    lint_source,
    package_relative,
    render_json,
    render_text,
    rule_catalogue,
    sort_findings,
)
from repro.cli import main


# --------------------------------------------------------------------------- #
# findings plumbing
# --------------------------------------------------------------------------- #
def test_findings_sort_deterministically():
    findings = [
        Finding(rule="DET02", path="b.py", line=3, col=1, message="m"),
        Finding(rule="DET01", path="b.py", line=3, col=1, message="m"),
        Finding(rule="DET02", path="a.py", line=9, col=0, message="m"),
        Finding(rule="DET02", path="b.py", line=1, col=0, message="m"),
    ]
    ordered = sort_findings(findings)
    assert [(f.path, f.line, f.rule) for f in ordered] == [
        ("a.py", 9, "DET02"), ("b.py", 1, "DET02"),
        ("b.py", 3, "DET01"), ("b.py", 3, "DET02")]


def test_finding_render_is_gcc_style():
    finding = Finding(rule="DET01", path="src/x.py", line=4, col=2,
                      message="call to the global RNG")
    assert finding.render() == "src/x.py:4:2: DET01 call to the global RNG"


def test_package_relative_strips_checkout_prefix():
    assert package_relative("/work/repo/src/repro/core/cache.py") == \
        "repro/core/cache.py"
    assert package_relative("tests/analysis/fixture.py") == \
        "tests/analysis/fixture.py"


# --------------------------------------------------------------------------- #
# runner behaviour
# --------------------------------------------------------------------------- #
def test_syntax_error_becomes_syn01_finding():
    findings = lint_source("src/repro/sim/x.py", "def broken(:\n")
    assert [finding.rule for finding in findings] == [SYNTAX_ERROR_RULE]


def test_lint_paths_walks_directories_deterministically(tmp_path):
    package = tmp_path / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "b.py").write_text("import time\nv = time.time()\n")
    (package / "a.py").write_text("value = 1\n")
    (package / "skip.txt").write_text("not python\n")
    findings, checked = lint_paths([str(tmp_path)])
    assert checked == 2
    assert [finding.rule for finding in findings] == ["DET02", "OBS01"]
    assert findings[0].path.endswith("b.py")


def test_rule_catalogue_lists_every_project_rule():
    rules = {rule for rule, _ in rule_catalogue()}
    assert rules == {"DET01", "DET02", "DET03", "DET04", "DUR01",
                     "FLT01", "OBS01", "STM01", "SLT01", "TYP01"}
    assert rules == set(DEFAULT_CONFIG.rules())


# --------------------------------------------------------------------------- #
# report formats
# --------------------------------------------------------------------------- #
def test_render_text_clean_and_dirty():
    assert "no findings" in render_text([], 3)
    finding = Finding(rule="DET01", path="x.py", line=1, col=0, message="m")
    report = render_text([finding], 3)
    assert "x.py:1:0: DET01 m" in report
    assert "1 finding(s) in 3 file(s)" in report


def test_json_document_schema():
    finding = Finding(rule="DET02", path="x.py", line=2, col=4,
                      message="wall-clock read")
    document = json.loads(render_json([finding], 5, rules=["DET02", "DET01"]))
    assert document["version"] == JSON_SCHEMA_VERSION
    assert document["tool"] == "repro lint"
    assert document["rules"] == ["DET01", "DET02"]
    assert document["checked_files"] == 5
    assert document["counts"] == {"DET02": 1}
    assert document["findings"] == [{
        "rule": "DET02", "path": "x.py", "line": 2, "col": 4,
        "message": "wall-clock read"}]


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_clean_run_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text('"""Clean module."""\nvalue = 1\n')
    assert main(["lint", str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_findings_exit_nonzero(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("import time\nv = time.time()\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(tmp_path)])
    assert excinfo.value.code == 1
    assert "DET02" in capsys.readouterr().out


def test_cli_rules_subset(tmp_path):
    (tmp_path / "bad.py").write_text("import time\nv = time.time()\n")
    # The only finding is DET02; restricting to DET01 yields a clean run.
    assert main(["lint", "--rules", "DET01", str(tmp_path)]) == 0


def test_cli_unknown_rule_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "NOPE99", str(tmp_path)])
    assert "unknown rule" in str(excinfo.value)


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("import time\nv = time.time()\n")
    with pytest.raises(SystemExit):
        main(["lint", "--format", "json", str(tmp_path)])
    document = json.loads(capsys.readouterr().out)
    assert document["counts"] == {"DET02": 1}


def test_cli_output_file_written_even_on_clean_run(tmp_path, capsys):
    (tmp_path / "ok.py").write_text('"""Clean module."""\nvalue = 1\n')
    report = tmp_path / "findings.json"
    assert main(["lint", "--output", str(report), str(tmp_path)]) == 0
    capsys.readouterr()
    document = json.loads(report.read_text())
    assert document["findings"] == []
    assert document["checked_files"] == 1


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in ("DET01", "DET02", "DET03", "DET04",
                 "FLT01", "STM01", "SLT01", "TYP01"):
        assert rule in output
    assert "PRT01" not in output  # retired: the seams are typing.Protocols
