"""Smoke tests for the figure-regenerating experiment modules.

These run every experiment end to end on a deliberately tiny configuration
(they exist to guarantee the experiment code paths stay runnable; the shape
assertions about the paper's findings live in ``test_paper_claims.py``).
"""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, overheads, table61
from repro.experiments.report import format_table, normalise
from repro.sim.config import SimulationConfig
from repro.workload.generator import QueryMix


TINY = SimulationConfig.tiny(query_count=16, object_count=300)


def test_report_normalise():
    scaled = normalise({"a": 2.0, "b": 4.0})
    assert scaled == {"a": 0.5, "b": 1.0}
    assert normalise({"a": 0.0}) == {"a": 0.0}


def test_report_format_table():
    text = format_table(["name", "value"], [["x", 1.23456], ["y", 1234.5]], title="T")
    assert "T" in text and "name" in text and "x" in text


def test_table61_contains_both_columns():
    tables = table61.run(TINY)
    rendered = table61.render(tables)
    assert "paper" in rendered
    assert "Area_wnd" in rendered


def test_fig6_runs_and_renders():
    summaries = fig6.run(TINY.with_overrides(mobility_model="DIR"))
    assert set(summaries) == {"PAG", "SEM", "APRO"}
    rendered = fig6.render(summaries)
    assert "uplink_bytes" in rendered


def test_fig7_runs_and_renders():
    results = fig7.run(TINY, mobility_models=("RAN", "DIR"))
    assert set(results) == {"RAN", "DIR"}
    rendered = fig7.render(results)
    assert "false miss rate" in rendered


def test_fig8_and_fig9_share_sweep_structure():
    results8 = fig8.run(TINY, fractions=(0.005, 0.02), models=("PAG", "APRO"))
    assert set(results8) == {0.005, 0.02}
    assert "response time" in fig8.render(results8)
    results9 = fig9.run(TINY, fractions=(0.005,), models=("PAG", "APRO"))
    assert "CPU" in fig9.render(results9)


def test_fig10_runs_and_renders():
    results = fig10.run(TINY, policies=("LRU", "GRD3"), mobility_models=("RAN",))
    assert set(results["RAN"]) == {"LRU", "GRD3"}
    assert "replacement" in fig10.render(results)


def test_fig11_runs_and_renders():
    config = fig11.default_config(query_count=20).with_overrides(object_count=300)
    series = fig11.run(config, window=10)
    assert {"FPRO", "CPRO", "APRO"} <= set(series)
    for model in ("FPRO", "CPRO", "APRO"):
        assert len(series[model]["false_miss_rate"]) == 2
    assert "false miss rate" in fig11.render(series)


def test_fig11_default_config_is_knn_only():
    config = fig11.default_config()
    assert config.query_mix.range_ == 0.0
    assert config.query_mix.join == 0.0
    # Small cache relative to the scaled dataset (see the fig11 docstring for
    # how the paper's 0.1% maps onto the scaled dataset size).
    assert config.cache_fraction <= 0.02


def test_overheads_runs_and_renders():
    values = overheads.run(TINY)
    assert values["partition_tree_bytes"] <= 2 * values["index_bytes"]
    assert "partition" in overheads.render(values)
