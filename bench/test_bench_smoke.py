"""Self-test of the benchmark at smoke scale (tier-1 collects it; < 10 s).

Pins the benchmark's replay loop to the program's (``run_fleet`` on the same
``FleetConfig`` must make the same decisions), its determinism per seed, its
output schema, its failure accounting and the comparison tool's verdicts.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from bench import ROOT, adapter, compare, metrics, run, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_schema_and_within_the_contract_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document == metrics.benchmark_json()
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in document[section]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in document["end_to_end"])
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in document["workloads"])
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload",
                         ["fleet_mixed", "sharded_mixed", "durable_churn"])
def test_replay_loop_makes_the_decisions_run_fleet_makes(workload, tmp_path):
    lap = run.run_lap(workload, seed=101, lap=0, scale="smoke")
    assert lap.failures == []
    fleet = workloads.lap_fleet(workload, 101, 0, "smoke")
    if workload == "durable_churn":
        store = str(tmp_path / "server.rpro")
        shared = adapter.build_shared_state(fleet.base)
        adapter.save_tree(shared.tree, store)
        reference = adapter.run_fleet(fleet, store_path=store, durable=True)
        assert lap.updates, "the smoke lap must apply updates"
    else:
        reference = adapter.run_fleet(fleet)
    assert lap.signature["groups"] == reference.deterministic_group_summary()
    assert lap.signature["digests"] == {
        str(client.client_id): client.final_cache_digest
        for client in reference.clients}


def test_one_seed_repeats_exactly_and_another_seed_differs():
    first, again, other = (
        run.single_run("fleet_mixed", seed, seconds=0.0, trace=False,
                       scale="smoke") for seed in (7, 7, 8))
    exact = [metric.name for metric in metrics.END_TO_END if metric.exact]
    assert first["certificate"] == again["certificate"]
    assert len(first["certificate"]) == run.CERT_LAPS
    for name in exact:
        assert first["end_to_end"][name] == again["end_to_end"][name]
    assert first["certificate"] != other["certificate"]
    assert any(first["end_to_end"][name] != other["end_to_end"][name]
               for name in exact)


def _assert_contract_line(record, schema):
    line = json.loads(run.contract_line(record))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [metric.name for metric in schema]
    for metric in schema:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))


def test_a_traced_run_prints_every_metric_of_both_sections():
    record = run.single_run("durable_churn", 101, seconds=0.0, trace=True,
                            scale="smoke")
    _assert_contract_line(record, metrics.PER_LAYER)
    _assert_contract_line({**record, "trace": False}, metrics.END_TO_END)
    assert all(record["end_to_end"][m.name] > 0 for m in metrics.END_TO_END)
    layer = record["per_layer"]
    assert layer["updates.apply_calls"] == layer["storage.wal.commit_calls"] > 0
    assert layer["update_p50_ms"] > 0 and layer["bench.oracle_checked"] > 0
    # The spans account for the traced loop's wall clock.
    assert layer["bench.self_ms_coverage"] > 0.9
    assert os.path.exists(os.path.join(run.OUT_DIR,
                                       "trace-durable_churn.jsonl"))


def test_wire_lap_reconciles_ledgers_and_matches_the_in_process_twin():
    lap = run.run_lap("wire_uds", seed=101, lap=0, scale="smoke", traced=True)
    assert lap.failures == []
    assert lap.counters["net.server.ledger_reconciled"] == 1.0
    assert lap.recorder.named("remote.execute")
    assert len(lap.recorder.named("bench.twin")) == len(
        lap.recorder.named("remote.execute"))


def test_a_wrong_result_set_is_counted_and_fails_the_run(monkeypatch):
    monkeypatch.setattr(adapter, "oracle_results",
                        lambda objects, query: [-1])
    record = run.single_run("fleet_mixed", 101, seconds=0.0, trace=False,
                            scale="smoke")
    assert record["failed"] > 0
    assert json.loads(run.contract_line(record))["correct"] is False


def test_compare_verdicts():
    timing = metrics.Metric("t_ms", "ms", "lower", 0.10)
    rate = metrics.Metric("r", "ops/s", "higher", 0.10)
    exact = metrics.Metric("bytes", "bytes", "lower", 0.10, exact=True)
    judge = lambda metric, a, b: compare.verdict(  # noqa: E731
        metric, a, b, sorted(a)[len(a) // 2], sorted(b)[len(b) // 2])[0]
    assert judge(timing, [10, 10.1, 10.2], [10.3, 10.4, 10.5]) == "within"
    assert judge(timing, [10, 10.1, 10.2], [12, 12.1, 12.2]) == "worse"
    assert judge(timing, [10, 10.1, 10.2], [8, 8.1, 8.2]) == "better"
    assert judge(rate, [100, 101, 102], [80, 81, 82]) == "worse"
    assert judge(timing, [9, 10, 12], [9.5, 11.5, 12.5]) == "unresolved"
    # Wide spread, but every run of B beats every run of A: resolved.
    assert judge(timing, [10, 11, 12], [7, 8, 9]) == "better"
    assert judge(exact, [5, 5, 5], [5, 5, 5]) == "same"
    assert judge(exact, [5, 5, 5], [5.1, 5.1, 5.1]) == "changed"
    assert judge(exact, [5, 5, 5], [6, 6, 6]) == "worse"
