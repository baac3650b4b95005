"""Integration tests for paired comparisons and the three caching sessions."""

import pytest

from repro.experiments import fig11
from repro.rtree import assert_tree_valid
from repro.sim import sessions as sessions_module
from repro.sim.config import SimulationConfig
from repro.sim.fleet import (
    ClientGroupSpec,
    FleetClientSpec,
    FleetConfig,
    paired_events,
    run_comparison,
    run_fleet,
)
from repro.sim.metrics import CacheSnapshot, ClientResult
from repro.sim.runner import build_shared_state, build_tree, generate_trace
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
def shared():
    return build_shared_state(CONFIG)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(CONFIG)


def test_build_tree_matches_config():
    tree = build_tree(CONFIG)
    assert len(tree) == CONFIG.object_count
    assert_tree_valid(tree)


def test_generate_trace_is_deterministic():
    trace_a = generate_trace(CONFIG)
    trace_b = generate_trace(CONFIG)
    assert len(trace_a) == CONFIG.query_count
    assert trace_a.records == trace_b.records


def test_generate_trace_with_knn_schedule_only_knn():
    config = CONFIG.with_overrides(query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0))
    schedule = KnnRampSchedule(total_queries=config.query_count)
    trace = generate_trace(config, knn_schedule=schedule)
    assert all(isinstance(record.query, KNNQuery) for record in trace)
    assert trace[0].query.k == schedule.k_at(0)


def test_make_session_factory(shared):
    for model, cls in (("PAG", PageCachingSession), ("SEM", SemanticCachingSession),
                       ("APRO", ProactiveSession), ("FPRO", ProactiveSession),
                       ("CPRO", ProactiveSession)):
        session = make_session(model, shared.tree, CONFIG, server=shared.server)
        assert isinstance(session, cls)
        assert session.name == model
    with pytest.raises(ValueError):
        make_session("NOCACHE", shared.tree, CONFIG)


def test_comparison_records_costs_and_snapshots():
    result = run_comparison(CONFIG, ("APRO",))["APRO"]
    assert isinstance(result, ClientResult)
    assert len(result.costs) == CONFIG.query_count
    assert len(result.snapshots) == CONFIG.query_count
    assert all(isinstance(snapshot, CacheSnapshot) for snapshot in result.snapshots)
    summary = result.summary()
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0
    assert 0.0 <= summary["byte_hit_rate"] <= 1.0
    assert 0.0 <= summary["false_miss_rate"] <= 1.0
    assert summary["uplink_bytes"] >= 0.0


def test_cache_stays_within_budget_for_all_sessions():
    for result in run_comparison(CONFIG, ("PAG", "SEM", "APRO")).values():
        budget = CONFIG.cache_bytes()
        for snapshot in result.snapshots:
            # Allow a one-node overshoot for proactive merges (documented).
            assert snapshot.used_bytes <= budget + 2_048


def test_pag_has_zero_hit_rate_and_sem_nonzero_downlink():
    results = run_comparison(CONFIG, ("PAG", "SEM"))
    assert results["PAG"].summary()["cache_hit_rate"] == 0.0
    assert results["PAG"].summary()["false_miss_rate"] == pytest.approx(1.0)
    assert results["SEM"].summary()["downlink_bytes"] > 0.0


def test_proactive_hit_rate_exceeds_semantic():
    results = run_comparison(CONFIG, ("SEM", "APRO"))
    assert results["APRO"].summary()["cache_hit_rate"] >= \
        results["SEM"].summary()["cache_hit_rate"]


def test_paired_comparison_uses_identical_traces():
    results = run_comparison(CONFIG, ("PAG", "APRO"))
    pag_types = [cost.query_type for cost in results["PAG"].costs]
    apro_types = [cost.query_type for cost in results["APRO"].costs]
    assert pag_types == apro_types
    pag_result_bytes = [cost.result_bytes for cost in results["PAG"].costs]
    apro_result_bytes = [cost.result_bytes for cost in results["APRO"].costs]
    assert pag_result_bytes == pytest.approx(apro_result_bytes)


def test_page_session_answers_match_ground_truth(shared, trace):
    session = PageCachingSession(shared.tree, CONFIG)
    for record in trace:
        cost = session.process(record)
        truth_bytes = sum(shared.tree.objects[oid].size_bytes
                          for oid in true_results(shared.tree, record.query))
        assert cost.result_bytes == pytest.approx(truth_bytes)


def test_semantic_session_saved_bytes_never_exceed_results(shared, trace):
    session = SemanticCachingSession(shared.tree, CONFIG)
    for record in trace:
        cost = session.process(record)
        assert cost.saved_bytes <= cost.result_bytes + 1e-9
        assert cost.cached_result_bytes <= cost.result_bytes + 1e-9


def test_paired_events_replay_each_trace_whole_and_in_turn():
    schedule = KnnRampSchedule(total_queries=CONFIG.query_count)
    specs = [FleetClientSpec(client_id, model, model, CONFIG,
                             knn_schedule=schedule)
             for client_id, model in enumerate(("PAG", "APRO"))]
    events = paired_events(specs)
    trace = generate_trace(CONFIG, knn_schedule=schedule).records
    assert events == [("query", record.arrival_time, client_id, record)
                      for client_id in (0, 1) for record in trace]


def test_run_comparison_runs_a_repeated_model_once():
    results = run_comparison(CONFIG, ("APRO", "PAG", "APRO"))
    assert list(results) == ["APRO", "PAG"]
    assert [result.client_id for result in results.values()] == [0, 1]


def test_comparison_applies_the_knn_ramp_to_every_model():
    config = CONFIG.with_overrides(
        query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0))
    schedule = KnnRampSchedule(total_queries=config.query_count)
    ramped = run_comparison(config, ("CPRO", "APRO"), knn_schedule=schedule)
    plain = run_comparison(config, ("CPRO", "APRO"))
    bytes_of = {model: [cost.result_bytes for cost in ramped[model].costs]
                for model in ("CPRO", "APRO")}
    assert bytes_of["CPRO"] == bytes_of["APRO"]
    assert bytes_of["APRO"] != [cost.result_bytes
                                for cost in plain["APRO"].costs]


def test_run_comparison_convenience():
    config = SimulationConfig.tiny(query_count=15, object_count=300)
    results = run_comparison(config, models=("PAG", "APRO"))
    assert set(results) == {"PAG", "APRO"}


def test_windowed_series_lengths():
    window = 15
    series = fig11.run(CONFIG, models=("APRO",), window=window)
    expected_windows = (CONFIG.query_count + window - 1) // window
    for name in ("false_miss_rate", "response_time", "index_fraction",
                 "depth"):
        assert len(series["APRO"][name]) == expected_windows


def test_snapshot_index_fraction_bounds():
    result = run_comparison(CONFIG, ("APRO",))["APRO"]
    for snapshot in result.snapshots:
        assert 0.0 <= snapshot.index_fraction <= 1.0


def test_ground_truth_cache_memoises_and_matches(shared, trace):
    memo = GroundTruthCache(shared.tree)
    record = trace[0]
    ids_first, cpu_first = memo.results_for(record.query)
    ids_again, cpu_again = memo.results_for(record.query)
    assert ids_first == ids_again == true_results(shared.tree, record.query)
    # The charged CPU cost is replayed verbatim on a memo hit.
    assert cpu_again == cpu_first
    assert len(memo) == 1


def test_compared_models_share_one_ground_truth_memo(trace, monkeypatch):
    computed = []

    def counting_true_results(tree, query):
        computed.append(query)
        return true_results(tree, query)

    monkeypatch.setattr(sessions_module, "true_results", counting_true_results)
    results = run_comparison(CONFIG, ("PAG", "SEM"))
    # Only the first model computes each distinct query's ground truth.
    assert len(computed) == len({record.query for record in trace})
    # The memoised results feed both models the same ground truth bytes.
    pag_bytes = [cost.result_bytes for cost in results["PAG"].costs]
    sem_bytes = [cost.result_bytes for cost in results["SEM"].costs]
    assert pag_bytes == pytest.approx(sem_bytes)


def test_fleet_clients_record_no_snapshots():
    fleet = FleetConfig.make(CONFIG, [ClientGroupSpec("g", clients=2,
                                                      queries_per_client=5)])
    result = run_fleet(fleet)
    assert [len(client.costs) for client in result.clients] == [5, 5]
    assert all(client.snapshots == [] for client in result.clients)
