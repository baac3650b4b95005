"""Integration tests for the simulation runner and the three caching sessions."""

import pytest

from repro.rtree import assert_tree_valid
from repro.sim.config import SimulationConfig
from repro.sim.metrics import CacheSnapshot, SimulationResult
from repro.sim.runner import (
    build_environment,
    build_tree,
    generate_trace,
    run_comparison,
    run_model,
    run_models,
)
from repro.sim.sessions import (
    GroundTruthCache,
    PageCachingSession,
    ProactiveSession,
    SemanticCachingSession,
    make_session,
    true_results,
)
from repro.workload.generator import QueryMix
from repro.workload.schedule import KnnRampSchedule
from repro.workload.queries import KNNQuery


CONFIG = SimulationConfig.tiny(query_count=40, object_count=500)


@pytest.fixture(scope="module")
def environment():
    return build_environment(CONFIG)


def test_build_tree_matches_config():
    tree = build_tree(CONFIG)
    assert len(tree) == CONFIG.object_count
    assert_tree_valid(tree)


def test_generate_trace_is_deterministic():
    trace_a = generate_trace(CONFIG)
    trace_b = generate_trace(CONFIG)
    assert len(trace_a) == CONFIG.query_count
    assert trace_a.to_json() == trace_b.to_json()


def test_generate_trace_with_knn_schedule_only_knn():
    config = CONFIG.with_overrides(query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0))
    schedule = KnnRampSchedule(total_queries=config.query_count)
    trace = generate_trace(config, knn_schedule=schedule)
    assert all(isinstance(record.query, KNNQuery) for record in trace)
    assert trace[0].query.k == schedule.k_at(0)


def test_make_session_factory(environment):
    for model, cls in (("PAG", PageCachingSession), ("SEM", SemanticCachingSession),
                       ("APRO", ProactiveSession), ("FPRO", ProactiveSession),
                       ("CPRO", ProactiveSession)):
        session = make_session(model, environment.tree, CONFIG, server=environment.server)
        assert isinstance(session, cls)
        assert session.name == model
    with pytest.raises(ValueError):
        make_session("NOCACHE", environment.tree, CONFIG)


def test_run_model_produces_costs_and_snapshots(environment):
    result = run_model(environment, "APRO")
    assert isinstance(result, SimulationResult)
    assert len(result.costs) == CONFIG.query_count
    assert len(result.snapshots) == CONFIG.query_count
    assert all(isinstance(snapshot, CacheSnapshot) for snapshot in result.snapshots)
    summary = result.summary()
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0
    assert 0.0 <= summary["byte_hit_rate"] <= 1.0
    assert 0.0 <= summary["false_miss_rate"] <= 1.0
    assert summary["uplink_bytes"] >= 0.0


def test_cache_stays_within_budget_for_all_sessions(environment):
    for model in ("PAG", "SEM", "APRO"):
        result = run_model(environment, model)
        budget = CONFIG.cache_bytes()
        for snapshot in result.snapshots:
            # Allow a one-node overshoot for proactive merges (documented).
            assert snapshot.used_bytes <= budget + 2_048


def test_pag_has_zero_hit_rate_and_sem_nonzero_downlink(environment):
    results = run_models(environment, ("PAG", "SEM"))
    assert results["PAG"].summary()["cache_hit_rate"] == 0.0
    assert results["PAG"].summary()["false_miss_rate"] == pytest.approx(1.0)
    assert results["SEM"].summary()["downlink_bytes"] > 0.0


def test_proactive_hit_rate_exceeds_semantic(environment):
    results = run_models(environment, ("SEM", "APRO"))
    assert results["APRO"].summary()["cache_hit_rate"] >= \
        results["SEM"].summary()["cache_hit_rate"]


def test_paired_comparison_uses_identical_traces(environment):
    results = run_models(environment, ("PAG", "APRO"))
    pag_types = [cost.query_type for cost in results["PAG"].costs]
    apro_types = [cost.query_type for cost in results["APRO"].costs]
    assert pag_types == apro_types
    pag_result_bytes = [cost.result_bytes for cost in results["PAG"].costs]
    apro_result_bytes = [cost.result_bytes for cost in results["APRO"].costs]
    assert pag_result_bytes == pytest.approx(apro_result_bytes)


def test_page_session_answers_match_ground_truth(environment):
    session = PageCachingSession(environment.tree, CONFIG)
    for record in environment.trace:
        cost = session.process(record)
        truth_bytes = sum(environment.tree.objects[oid].size_bytes
                          for oid in true_results(environment.tree, record.query))
        assert cost.result_bytes == pytest.approx(truth_bytes)


def test_semantic_session_saved_bytes_never_exceed_results(environment):
    session = SemanticCachingSession(environment.tree, CONFIG)
    for record in environment.trace:
        cost = session.process(record)
        assert cost.saved_bytes <= cost.result_bytes + 1e-9
        assert cost.cached_result_bytes <= cost.result_bytes + 1e-9


def test_run_comparison_convenience():
    config = SimulationConfig.tiny(query_count=15, object_count=300)
    results = run_comparison(config, models=("PAG", "APRO"))
    assert set(results) == {"PAG", "APRO"}


def test_windowed_series_lengths(environment):
    result = run_model(environment, "APRO")
    window = 10
    expected_windows = (CONFIG.query_count + window - 1) // window
    assert len(result.windowed_false_miss_rate(window)) == expected_windows
    assert len(result.windowed_response_time(window)) == expected_windows
    assert len(result.windowed_index_fraction(window)) == expected_windows
    assert len(result.windowed_depth(window)) == expected_windows


def test_snapshot_index_fraction_bounds(environment):
    result = run_model(environment, "APRO")
    for snapshot in result.snapshots:
        assert 0.0 <= snapshot.index_fraction <= 1.0


def test_ground_truth_cache_memoises_and_matches(environment):
    memo = GroundTruthCache(environment.tree)
    record = environment.trace[0]
    ids_first, cpu_first = memo.results_for(record.query)
    ids_again, cpu_again = memo.results_for(record.query)
    assert ids_first == ids_again == true_results(environment.tree, record.query)
    # The charged CPU cost is replayed verbatim on a memo hit.
    assert cpu_again == cpu_first
    assert len(memo) == 1


def test_sessions_share_environment_ground_truth(environment):
    assert environment.ground_truth is not None
    results = run_models(environment, ("PAG", "SEM"))
    # After a run the shared memo covers every distinct trace query.
    distinct_queries = len({record.query for record in environment.trace})
    assert len(environment.ground_truth) >= distinct_queries
    # The memoised results feed both models the same ground truth bytes.
    pag_bytes = [cost.result_bytes for cost in results["PAG"].costs]
    sem_bytes = [cost.result_bytes for cost in results["SEM"].costs]
    assert pag_bytes == pytest.approx(sem_bytes)


def test_parallel_run_models_matches_serial(environment):
    serial = run_models(environment, ("PAG", "APRO"))
    parallel = run_models(environment, ("PAG", "APRO"), max_workers=2)
    assert set(serial) == set(parallel)
    for model in serial:
        mine, theirs = serial[model].summary(), parallel[model].summary()
        for metric in ("uplink_bytes", "downlink_bytes", "cache_hit_rate",
                       "byte_hit_rate", "false_miss_rate", "response_time"):
            assert mine[metric] == pytest.approx(theirs[metric])
