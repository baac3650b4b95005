"""Router correctness: fresh-query equivalence, pruning, the facade views."""

from __future__ import annotations

import pytest

from repro.geometry import Point, Rect
from repro.sharding import (
    NODE_ID_STRIDE,
    build_sharded_state,
    shard_index_for_node,
)
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_shared_state
from repro.sim.sessions import true_results
from repro.workload.queries import JoinQuery, KNNQuery, RangeQuery


CONFIG = SimulationConfig.scaled(query_count=5, object_count=700)

QUERIES = [
    RangeQuery(window=Rect(0.2, 0.2, 0.5, 0.45)),
    RangeQuery(window=Rect(0.0, 0.0, 1.0, 1.0)),
    RangeQuery(window=Rect(0.9, 0.9, 0.95, 0.95)),
    KNNQuery(point=Point(0.31, 0.7), k=12),
    KNNQuery(point=Point(0.02, 0.97), k=5),
    KNNQuery(point=Point(0.5, 0.5), k=1),
    JoinQuery(window=Rect(0.1, 0.1, 0.6, 0.6), threshold=0.02),
    JoinQuery(window=Rect(0.0, 0.0, 1.0, 1.0), threshold=0.01),
]


@pytest.fixture(scope="module")
def single():
    return build_shared_state(CONFIG)


@pytest.mark.parametrize("shards,method", [(1, "grid"), (3, "grid"),
                                           (4, "grid"), (5, "kd"), (8, "kd")])
def test_fresh_queries_match_single_server_and_ground_truth(single, shards,
                                                            method):
    state = build_sharded_state(CONFIG, shards, method)
    try:
        for query in QUERIES:
            reference = single.server.execute(query)
            routed = state.router.execute(query)
            truth = set(true_results(single.tree, query))
            assert reference.result_object_ids() == truth
            assert routed.result_object_ids() == truth, query
    finally:
        state.close()


def test_single_shard_responses_are_byte_identical(single):
    state = build_sharded_state(CONFIG, 1)
    try:
        assert state.router.root_id == single.server.root_id
        assert state.router.root_mbr == single.server.root_mbr
        for query in QUERIES:
            reference = single.server.execute(query)
            routed = state.router.execute(query)
            assert routed.accessed_node_count == reference.accessed_node_count
            assert routed.examined_elements == reference.examined_elements
            assert ([(d.record.object_id, d.confirm_only)
                     for d in routed.deliveries]
                    == [(d.record.object_id, d.confirm_only)
                        for d in reference.deliveries])
            assert ([(s.node_id, s.level, s.parent_id,
                      sorted(e.code for e in s.elements))
                     for s in routed.index_snapshots]
                    == [(s.node_id, s.level, s.parent_id,
                         sorted(e.code for e in s.elements))
                        for s in reference.index_snapshots])
    finally:
        state.close()


def _response_key(response):
    return (response.accessed_node_count, response.examined_elements,
            [(d.record.object_id, d.parent_node_id, d.confirm_only)
             for d in response.deliveries],
            [(s.node_id, s.level, s.parent_id, sorted(e.code for e in s.elements))
             for s in response.index_snapshots])


@pytest.mark.parametrize("router_cache", [False, True])
def test_stale_join_frontier_pairs_are_dropped_on_both_topologies(router_cache):
    """Join pairs naming state that real deletes removed are unanswerable.

    The same deletes run against a single server and a 3-shard router: one
    whole shard's objects (emptying it) and one leaf's objects in another
    shard (freeing its page).  A frontier whose pairs name a deleted
    object, a freed page or (router only) the emptied shard's old root
    must answer exactly as the live part of that frontier alone, and both
    topologies must agree with the oracle over the mutated dataset.
    """
    from repro.core.items import FrontierTarget
    from repro.core.remainder import RemainderQuery
    from repro.sharding import PartitionResultCache, ShardedUpdater
    from repro.updates.applier import DatasetUpdater
    from repro.updates.stream import UpdateEvent

    single = build_shared_state(CONFIG)
    state = build_sharded_state(CONFIG, 3, "grid")
    try:
        router = state.router
        if router_cache:
            router.attach_result_cache(PartitionResultCache())
        kept, emptied = state.shards[0], state.shards[2]
        leaf = next(node for node in kept.tree.all_nodes() if node.level == 0)
        emptied_root = FrontierTarget.for_node(emptied.root_id, emptied.root_mbr)
        freed_leaf = FrontierTarget.for_node(leaf.node_id, leaf.mbr())
        victim = leaf.entries[0]
        dead = FrontierTarget.for_object(victim.object_id, victim.mbr, leaf.node_id)
        single_pages = set(single.tree.store.node_ids())

        sharded_updater = ShardedUpdater(router)
        single_updater = DatasetUpdater(single.tree, single.server)
        doomed = list(emptied.tree.objects) + [e.object_id for e in leaf.entries]
        for index, object_id in enumerate(doomed):
            event = UpdateEvent(index=index, arrival_time=float(index),
                                kind="delete", object_id=object_id)
            assert sharded_updater.apply(event) and single_updater.apply(event)
        assert emptied.is_empty and leaf.node_id not in kept.tree.store
        freed_single = FrontierTarget.for_node(
            min(single_pages - set(single.tree.store.node_ids())), leaf.mbr())

        for query in QUERIES:
            if not isinstance(query, JoinQuery):
                continue
            truth = set(true_results(single.tree, query))
            assert not truth & set(doomed)
            for server, freed, shard_roots in [
                    (single.server, freed_single, []),
                    (router, freed_leaf, [emptied_root])]:
                root = FrontierTarget.for_node(server.root_id, server.root_mbr)
                stale_items = [(dead, root), (root, freed), (dead,), (freed,)]
                for shard_root in shard_roots:
                    stale_items += [(shard_root, root), (root, shard_root),
                                    (shard_root,)]
                live = server.execute(query, RemainderQuery(
                    query=query, frontier=[(root, root)]))
                stale = server.execute(query, RemainderQuery(
                    query=query,
                    frontier=stale_items[:2] + [(root, root)] + stale_items[2:]))
                assert live.result_object_ids() == truth, query
                assert stale.result_object_ids() == truth, query
                if not router_cache:
                    # (The cache learns from the first run, so its second
                    # run legitimately skips more; results stay pinned.)
                    assert _response_key(stale) == _response_key(live), query
    finally:
        state.close()


def test_knn_global_bound_prunes_far_shards():
    """A corner kNN query must not visit shards across the data space."""
    state = build_sharded_state(CONFIG, 4, "grid")
    try:
        state.router.execute(KNNQuery(point=Point(0.02, 0.03), k=3))
        stats = state.router.stats
        assert sum(stats.shards_pruned) >= 1
        assert sum(stats.queries_routed) < len(state.shards)
        # Pruned shards read no pages for this query.
        for index in range(len(state.shards)):
            if stats.queries_routed[index] == 0:
                assert stats.pages_read[index] == 0
    finally:
        state.close()


def test_join_rules_a_shard_out_once_per_query():
    """``shards_pruned`` is in shards ruled out per query: the join comes
    back to the virtual root for every outer object, the count does not."""
    from repro.sharding import PartitionResultCache
    state = build_sharded_state(CONFIG, 4, "grid")
    try:
        router = state.router
        router.attach_result_cache(PartitionResultCache(grid=48))
        corner = JoinQuery(window=Rect(0.0, 0.0, 0.3, 0.3), threshold=0.02)
        for queries in (1, 2):
            response = router.execute(corner)
            assert len(response.deliveries) > 2, "several outer objects reach the root"
            stats = router.stats
            assert sum(stats.shards_pruned) >= queries
            for index in range(len(state.shards)):
                assert stats.shards_pruned[index] + stats.shards_skipped[index] <= queries
    finally:
        state.close()


def test_range_prunes_non_overlapping_shards():
    state = build_sharded_state(CONFIG, 4, "grid")
    try:
        state.router.execute(RangeQuery(window=Rect(0.01, 0.01, 0.06, 0.06)))
        assert sum(state.router.stats.queries_routed) < len(state.shards)
    finally:
        state.close()


def test_node_id_ranges_are_disjoint_and_routable():
    state = build_sharded_state(CONFIG, 5, "kd")
    try:
        for index, shard in enumerate(state.shards):
            for node_id in shard.tree.store.node_ids():
                assert shard_index_for_node(node_id) == index
        assert state.router.virtual_root_id == 5 * NODE_ID_STRIDE + 1
    finally:
        state.close()


def test_tree_view_routes_objects_and_pages():
    state = build_sharded_state(CONFIG, 3, "grid")
    try:
        view = state.view
        assert len(view.objects) == CONFIG.object_count
        assert sorted(view.objects) == list(range(CONFIG.object_count))
        some_id = next(iter(state.shards[1].tree.objects))
        assert view.objects[some_id].object_id == some_id
        assert view.object(some_id).object_id == some_id
        with pytest.raises(KeyError):
            view.objects[10 ** 9]
        # The virtual root is served like a page.
        assert state.router.virtual_root_id in view.store
        virtual = view.store.peek(state.router.virtual_root_id)
        assert {entry.child_id for entry in virtual.entries} \
            == {shard.root_id for shard in state.shards if not shard.is_empty}
        # Real pages route to their shard; unknown ranges raise.
        root0 = state.shards[0].root_id
        assert view.store.peek(root0).node_id == root0
        with pytest.raises(KeyError):
            view.store.peek(40 * NODE_ID_STRIDE + 7)
        assert not view.store.writable
    finally:
        state.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_ground_truth_kernels_traverse_the_view(single, shards):
    """range/kNN/join oracles run over the facade exactly as over one tree.

    The view exposes the read-side traversal surface (root/root_id/node),
    so `GroundTruthCache` — and with it any oracle-driven session — works
    against a sharded deployment; for N > 1 the traversal crosses shard
    boundaries through the virtual root.
    """
    from repro.sim.sessions import GroundTruthCache
    state = build_sharded_state(CONFIG, shards, "grid")
    try:
        ground_truth = GroundTruthCache(state.view)
        for query in QUERIES:
            # List order is traversal-dependent (every consumer uses sets).
            expected = set(true_results(single.tree, query))
            assert set(true_results(state.view, query)) == expected
            assert set(ground_truth.results_for(query)[0]) == expected
    finally:
        state.close()


def test_virtual_root_snapshot_has_partition_codes():
    state = build_sharded_state(CONFIG, 4, "grid")
    try:
        router = state.router
        pt = router.partition_tree_for(router.virtual_root_id)
        codes = {code for code, _ in pt.full_form()}
        snapshot = router._virtual_snapshot()
        assert {element.code for element in snapshot.elements} == codes
        assert snapshot.parent_id is None
        assert snapshot.level >= 1
    finally:
        state.close()


def test_knn_distance_ties_yield_a_correct_nearest_set():
    """Exact k-th-boundary ties may pick different objects than the single
    server (router: by id; server: by traversal order), but the returned
    set must always be a correct k-nearest set — same distance multiset
    as the oracle's.  This pins the documented caveat."""
    from repro.rtree.entry import ObjectRecord
    from repro.sharding.partitioner import make_plan
    from repro.sharding.router import ShardRouter
    from repro.sharding.shard import build_shards

    records = [
        ObjectRecord(object_id=0, mbr=Rect(0.5, 0.5, 0.5, 0.5), size_bytes=10),
        ObjectRecord(object_id=1, mbr=Rect(0.1, 0.5, 0.1, 0.5), size_bytes=10),
        ObjectRecord(object_id=2, mbr=Rect(0.9, 0.5, 0.9, 0.5), size_bytes=10),
        ObjectRecord(object_id=3, mbr=Rect(0.5, 0.4, 0.5, 0.4), size_bytes=10),
        ObjectRecord(object_id=4, mbr=Rect(0.5, 0.6, 0.5, 0.6), size_bytes=10),
    ]
    plan = make_plan(records, 2, method="grid")
    router = ShardRouter(build_shards(plan), plan)
    query = KNNQuery(point=Point(0.5, 0.5), k=4)
    response = router.execute(query)
    ids = response.result_object_ids()
    assert len(ids) == 4
    point = query.point
    distances = sorted(router.tree.objects[object_id].mbr.min_dist_to_point(point)
                       for object_id in ids)
    oracle = sorted(record.mbr.min_dist_to_point(point)
                    for record in records)[:4]
    assert distances == pytest.approx(oracle)
    # Objects 1 and 2 tie at distance 0.4; exactly one of them is chosen.
    assert len(ids & {1, 2}) == 1


def test_router_rejects_empty_shard_list():
    from repro.sharding.partitioner import make_plan
    from repro.sharding.router import ShardRouter
    with pytest.raises(ValueError):
        ShardRouter([], make_plan([], 1))
