"""End-to-end correctness: proactive caching always returns the true answer.

This is the central integration property of the reproduction: whatever the
cache contents, replacement policy and supporting-index form, the union of
locally saved objects and server-delivered objects must equal the ground
truth produced by plain R-tree query processing (kNN compared by distance to
tolerate ties).
"""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import build_shared_state, generate_trace
from repro.sim.sessions import ProactiveSession, true_results
from repro.core.items import CachedIndexNode, CachedObject
from repro.workload.generator import QueryMix


def _replay_with_truth_check(config, index_form, replacement_policy="GRD3"):
    environment = build_shared_state(config)
    session = ProactiveSession(environment.tree, config, server=environment.server,
                               index_form=index_form,
                               replacement_policy=replacement_policy)
    mismatches = []
    for record in generate_trace(config):
        query = record.query
        session.cache.tick()
        execution = session.client.execute(query)
        got = set(execution.saved_objects)
        if not execution.complete:
            response = environment.server.execute(query, execution.remainder(),
                                                  session.policy)
            context = {"client_position": record.position}
            for snap in response.index_snapshots:
                session.cache.insert_node_snapshot(
                    CachedIndexNode(snap.node_id, snap.level,
                                    {e.code: e for e in snap.elements}),
                    snap.parent_id, context)
            for delivery in response.deliveries:
                session.cache.insert_object(
                    CachedObject(delivery.record.object_id, delivery.record.mbr,
                                 delivery.record.size_bytes),
                    delivery.parent_node_id, context)
            got |= response.result_object_ids()
        truth = set(true_results(environment.tree, query))
        if query.query_type.value == "knn":
            tree = environment.tree
            got_d = sorted(tree.objects[o].mbr.min_dist_to_point(query.point) for o in got)
            want_d = sorted(tree.objects[o].mbr.min_dist_to_point(query.point) for o in truth)
            ok = len(got_d) == len(want_d) and all(
                abs(a - b) < 1e-9 for a, b in zip(got_d, want_d))
        else:
            ok = got == truth
        if not ok:
            mismatches.append((record.index, query.query_type.value))
    session.cache.validate()
    return mismatches


@pytest.mark.parametrize("index_form", ["adaptive", "full", "compact"])
def test_proactive_caching_always_returns_true_answers(index_form):
    config = SimulationConfig.tiny(query_count=80, object_count=900)
    assert _replay_with_truth_check(config, index_form) == []


@pytest.mark.parametrize("policy", ["LRU", "MRU", "FAR", "GRD1", "GRD2", "GRD3"])
def test_correctness_is_independent_of_replacement_policy(policy):
    config = SimulationConfig.tiny(query_count=50, object_count=700,
                                   ).with_overrides(cache_fraction=0.003)
    assert _replay_with_truth_check(config, "adaptive", replacement_policy=policy) == []


def test_correctness_under_directed_mobility_and_tiny_cache():
    config = SimulationConfig.tiny(query_count=60, object_count=800).with_overrides(
        mobility_model="DIR", cache_fraction=0.001)
    assert _replay_with_truth_check(config, "adaptive") == []


def test_correctness_knn_only_workload_with_ramp():
    config = SimulationConfig.tiny(query_count=60, object_count=800).with_overrides(
        query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0), k_max=10)
    assert _replay_with_truth_check(config, "compact") == []


def test_correctness_join_only_workload():
    config = SimulationConfig.tiny(query_count=40, object_count=700).with_overrides(
        query_mix=QueryMix(range_=0.0, knn=0.0, join=1.0))
    assert _replay_with_truth_check(config, "adaptive") == []
