"""Smoke tests for the figure-regenerating experiment modules.

These run every experiment end to end on a deliberately tiny configuration
(they exist to guarantee the experiment code paths stay runnable; the shape
assertions about the paper's findings live in ``test_paper_claims.py``).
"""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, overheads, table61
from repro.experiments.report import format_table, normalise
from repro.core.cost_model import QueryCost
from repro.sim.config import SimulationConfig
from repro.sim.metrics import ClientResult
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
    config = SimulationConfig.scaled(query_count=20, object_count=300)
    series = fig11.run(config, window=10)
    assert {"FPRO", "CPRO", "APRO"} <= set(series)
    for model in ("FPRO", "CPRO", "APRO"):
        assert len(series[model]["false_miss_rate"]) == 2
    assert "false miss rate" in fig11.render(series)


def test_fig11_fixes_its_workload_cache_and_mobility():
    # fig11.run overrides the mix, cache and mobility it is given with
    # FIXED, so a range-heavy, 50%-cache DIR config gives the same series.
    plain = SimulationConfig.scaled(query_count=20, object_count=300)
    skewed = plain.with_overrides(
        query_mix=QueryMix(range_=5.0, knn=0.5, join=1.0),
        cache_fraction=0.5, mobility_model="DIR")
    assert fig11.run(skewed, window=10) == fig11.run(plain, window=10)


def test_fig11_false_miss_rate_is_pooled_per_window():
    # (cached, locally confirmed) result bytes: false misses 10, 30, 0, 50, 0.
    costs = [QueryCost(query_index=index, query_type="knn",
                       cached_result_bytes=cached, saved_bytes=saved)
             for index, (cached, saved) in enumerate(
                 ((100.0, 90.0), (300.0, 270.0), (0.0, 0.0), (50.0, 0.0),
                  (0.0, 0.0)))]
    result = ClientResult(client_id=0, group="APRO", model="APRO", costs=costs)
    # Bytes pool within a window; a window with nothing cached reads 0.
    assert fig11.windowed_false_miss_rate(result, 2) == [0.1, 1.0, 0.0]


def test_overheads_runs_and_renders():
    values = overheads.run(TINY)
    assert values["partition_tree_bytes"] <= 2 * values["index_bytes"]
    assert "partition" in overheads.render(values)
