"""Unit tests of the router-level partition-result cache.

Crafted deployments pin each safety argument of
:mod:`repro.sharding.result_cache` in isolation: canonical variant
decomposition, existence probes, hit/miss accounting, version-stamped
invalidation, GRD eviction under byte pressure, and the three planning
surfaces (range hit-sets, kNN bounds, join gating).
"""

from __future__ import annotations

import math

import pytest

from repro.geometry import Point, Rect
from repro.rtree.entry import ObjectRecord
from repro.rtree.sizes import SizeModel
from repro.sharding import PartitionResultCache, build_sharded_state
from repro.sharding.partitioner import make_plan
from repro.sharding.result_cache import FactStore, GlobalFact, HitSetFact
from repro.sharding.router import ShardRouter
from repro.sharding.shard import build_shards
from repro.sharding.updater import ShardedUpdater
from repro.sim.config import SimulationConfig


def _dot(object_id, x, y, size=64):
    return ObjectRecord(object_id=object_id, size_bytes=size,
                        mbr=Rect(x, y, x + 0.001, y + 0.001))


def _deployment(records, shards=2, partitioner="grid", cache_bytes=64 * 1024):
    """A crafted sharded deployment with a bound result cache."""
    plan = make_plan(records, shards, method=partitioner)
    shard_servers = build_shards(plan, size_model=SizeModel(page_bytes=1024))
    router = ShardRouter(shard_servers, plan)
    cache = PartitionResultCache(capacity_bytes=cache_bytes)
    router.attach_result_cache(cache)
    return router, cache


def _two_corner_records():
    """Shard 0 dense in the left half; shard 1 only at two far corners.

    Shard 1's root MBR spans most of the right half, so root-MBR pruning
    keeps it as a candidate for central windows — exactly the weakness the
    result cache exists to close.
    """
    records = [_dot(i, 0.05 + 0.02 * (i % 10), 0.05 + 0.08 * (i % 10))
               for i in range(20)]
    records.append(_dot(100, 0.55, 0.02))
    records.append(_dot(101, 0.97, 0.97))
    return records


#: A horizontal mid-band window: overlaps both shards' root MBRs, holds
#: shard-0 objects, but no shard-1 object (nor their canonical y-band).
HOT_WINDOW = Rect(0.10, 0.40, 0.70, 0.60)


# --------------------------------------------------------------------------- #
# canonicalization
# --------------------------------------------------------------------------- #
def test_variants_snap_outward_and_contain_the_window():
    cache = PartitionResultCache()
    variants = cache.range_variants(HOT_WINDOW)
    assert [key.split(":")[0] for key, _ in variants] == ["xb", "yb", "w"]
    for _, rect in variants:
        assert rect.contains(HOT_WINDOW)
    # The snapped window is the intersection of the two bands.
    (_, x_band), (_, y_band), (_, window) = variants
    assert window.min_x == x_band.min_x and window.max_x == x_band.max_x
    assert window.min_y == y_band.min_y and window.max_y == y_band.max_y


def test_band_variants_are_shared_across_same_projection_windows():
    cache = PartitionResultCache()
    shifted = Rect(HOT_WINDOW.min_x, 0.39, HOT_WINDOW.max_x, 0.61)
    key = cache.range_variants(HOT_WINDOW)[0][0]
    assert cache.range_variants(shifted)[0][0] == key  # same x-band
    assert cache.range_variants(HOT_WINDOW)[1][0] \
        == cache.range_variants(shifted)[1][0]  # same grid-snapped y-band


def test_degenerate_and_out_of_domain_windows_snap_to_valid_cells():
    cache = PartitionResultCache()
    for window in (Rect(0.5, 0.5, 0.5, 0.5), Rect(-2.0, -2.0, -1.5, -1.5),
                   Rect(1.5, 1.5, 2.0, 2.0), Rect(-1.0, 0.2, 3.0, 0.2)):
        for _, rect in cache.range_variants(window):
            assert 0.0 <= rect.min_x < rect.max_x <= 1.0
            assert 0.0 <= rect.min_y < rect.max_y <= 1.0


def test_grid_must_be_positive():
    with pytest.raises(ValueError):
        PartitionResultCache(grid=0)
    with pytest.raises(ValueError):
        FactStore(0)


# --------------------------------------------------------------------------- #
# the fact store (GRD eviction)
# --------------------------------------------------------------------------- #
def test_fact_store_evicts_under_byte_pressure_and_respects_budget():
    store = FactStore(capacity_bytes=4 * 60)
    for index in range(12):
        store.tick()
        assert store.admit(f"f{index}", GlobalFact(value=1, stamp=0)) is not None
    assert store.used_bytes <= store.capacity_bytes
    assert store.evictions > 0
    assert len(store.items) < 12


def test_fact_store_rejects_oversized_payloads():
    store = FactStore(capacity_bytes=50)
    fact = HitSetFact(rect=Rect.unit(),
                      shards={i: (True, 0) for i in range(10)})
    assert fact.size_bytes > 50
    assert store.admit("big", fact) is None
    assert store.used_bytes == 0


def test_fact_store_resize_reaccounts_grown_facts():
    store = FactStore(capacity_bytes=10_000)
    state = store.admit("w", HitSetFact(rect=Rect.unit()))
    before = store.used_bytes
    state.payload.shards[0] = (True, 1)
    state.payload.shards[1] = (False, 1)
    store.resize(state, state.payload.size_bytes)
    assert store.used_bytes > before
    assert store.used_bytes == state.size_bytes == state.payload.size_bytes


def test_hot_facts_survive_eviction_over_cold_ones():
    store = FactStore(capacity_bytes=6 * 60)
    store.tick()
    store.admit("hot", GlobalFact(value=1, stamp=0))
    for _ in range(20):
        store.tick()
        store.lookup("hot")
    for index in range(12):
        store.tick()
        store.admit(f"cold{index}", GlobalFact(value=1, stamp=0))
    assert "hot" in store.items


# --------------------------------------------------------------------------- #
# range planning
# --------------------------------------------------------------------------- #
def test_plan_range_skips_mbr_overlapping_but_empty_shard():
    router, cache = _deployment(_two_corner_records())
    shard1 = router.shards[1]
    assert shard1.root_mbr.intersects(HOT_WINDOW)  # root-MBR pruning keeps it
    assert not any(record.mbr.intersects(HOT_WINDOW)
                   for record in shard1.tree.objects.values())
    cache.begin_query()
    candidates = [(i, s) for i, s in router.live_shards()
                  if s.root_mbr.intersects(HOT_WINDOW)]
    allowed = cache.plan_range(HOT_WINDOW, candidates)
    assert 1 not in allowed
    assert 0 in allowed
    assert cache.misses == 1 and cache.hits == 0 and cache.probes > 0


def test_repeat_consults_hit_without_probing():
    router, cache = _deployment(_two_corner_records())
    candidates = [(i, s) for i, s in router.live_shards()]
    cache.begin_query()
    first = cache.plan_range(HOT_WINDOW, candidates)
    probes = cache.probes
    cache.begin_query()
    assert cache.plan_range(HOT_WINDOW, candidates) == first
    assert cache.probes == probes  # answered entirely from facts
    assert cache.hits == 1 and cache.misses == 1


def test_plan_range_never_excludes_a_shard_with_matching_objects():
    """The cached plan is a superset of the true per-shard hit-set."""
    records = _two_corner_records()
    router, cache = _deployment(records, shards=4)
    windows = [Rect(0.1 * i, 0.05 * j, 0.1 * i + 0.18, 0.05 * j + 0.22)
               for i in range(8) for j in range(4)]
    for window in windows:
        cache.begin_query()
        allowed = cache.plan_range(window,
                                   [(i, s) for i, s in router.live_shards()])
        for index, shard in router.live_shards():
            truly_hit = any(record.mbr.intersects(window)
                            for record in shard.tree.objects.values())
            if truly_hit:
                assert index in allowed, (window, index)


def test_record_range_delivery_establishes_positive_facts():
    router, cache = _deployment(_two_corner_records())
    window = Rect(0.05, 0.05, 0.25, 0.85)  # dense shard-0 region
    cache.begin_query()
    cache.record_range_delivery(window, 0)
    probes = cache.probes
    cache.begin_query()
    allowed = cache.plan_range(window, [(0, router.shards[0])])
    assert allowed == {0}
    assert cache.probes == probes  # the delivery observation paid for it
    assert cache.hits == 1


# --------------------------------------------------------------------------- #
# version-stamped invalidation
# --------------------------------------------------------------------------- #
def test_shard_mutation_invalidates_only_that_shards_facts():
    router, cache = _deployment(_two_corner_records())
    updater = ShardedUpdater(router)  # wires the registry
    candidates = [(i, s) for i, s in router.live_shards()]
    cache.begin_query()
    cache.plan_range(HOT_WINDOW, candidates)
    probes = cache.probes
    # A batch touches shard 1: its facts are fenced, shard 0's survive.
    updater.registry.bump_object(100)
    updater.registry.dataset_version += 1  # as the applier does per event
    cache.note_shard_mutated(1)
    cache.begin_query()
    cache.plan_range(HOT_WINDOW, candidates)
    assert cache.probes > probes  # shard 1 re-probed
    assert cache.misses == 2
    # Re-established facts are valid again at the new version.
    probes = cache.probes
    cache.begin_query()
    cache.plan_range(HOT_WINDOW, candidates)
    assert cache.probes == probes
    assert cache.hits == 1


def test_global_facts_are_fenced_by_any_mutation():
    router, cache = _deployment(_two_corner_records())
    updater = ShardedUpdater(router)
    cache.begin_query()
    cache.knn_bound(Point(0.1, 0.1), 2)
    probes = cache.probes
    updater.registry.bump_object(3)
    updater.registry.dataset_version += 1
    cache.note_shard_mutated(0)
    cache.begin_query()
    cache.knn_bound(Point(0.1, 0.1), 2)
    assert cache.probes > probes


# --------------------------------------------------------------------------- #
# kNN bounds
# --------------------------------------------------------------------------- #
def test_knn_bound_upper_bounds_the_true_kth_distance():
    records = _two_corner_records()
    router, cache = _deployment(records)
    for point, k in ((Point(0.1, 0.1), 1), (Point(0.1, 0.1), 3),
                     (Point(0.5, 0.5), 2), (Point(0.9, 0.9), 5)):
        cache.begin_query()
        bound = cache.knn_bound(point, k)
        assert bound is not None
        distances = sorted(
            math.hypot(max(r.mbr.min_x - point.x, point.x - r.mbr.max_x, 0),
                       max(r.mbr.min_y - point.y, point.y - r.mbr.max_y, 0))
            for r in records)
        assert bound >= distances[k - 1] - 1e-12


def test_knn_bound_is_none_when_k_exceeds_population():
    router, cache = _deployment([_dot(1, 0.2, 0.2), _dot(2, 0.8, 0.8)])
    cache.begin_query()
    assert cache.knn_bound(Point(0.5, 0.5), 3) is None
    cache.begin_query()
    assert cache.knn_bound(Point(0.5, 0.5), 2) is not None


def test_knn_bound_memoises_per_cell_and_k():
    router, cache = _deployment(_two_corner_records())
    cache.begin_query()
    cache.knn_bound(Point(0.11, 0.11), 2)
    probes = cache.probes
    cache.begin_query()
    # Same canonical cell: answered from the memoised square.
    cache.knn_bound(Point(0.115, 0.105), 2)
    assert cache.probes == probes
    assert cache.hits == 1


# --------------------------------------------------------------------------- #
# join gating
# --------------------------------------------------------------------------- #
def test_plan_join_pair_count_prune_proves_empty_windows():
    records = [_dot(1, 0.1, 0.1), _dot(2, 0.9, 0.9)]
    router, cache = _deployment(records)
    cache.begin_query()
    # The snapped window around (0.5, 0.5) holds zero objects: provably
    # empty before any shard is contacted.
    assert cache.plan_join(Rect(0.45, 0.45, 0.52, 0.52),
                           [(i, s) for i, s in router.live_shards()]) is None


def test_plan_join_excludes_window_empty_shards():
    router, cache = _deployment(_two_corner_records())
    cache.begin_query()
    plan = cache.plan_join(HOT_WINDOW, [(i, s) for i, s in router.live_shards()
                                        if s.root_mbr.intersects(HOT_WINDOW)])
    # Shard 0 has many objects near the window's x-band; whether the pair
    # count survives depends on the snapped window, but shard 1 can never
    # be expanded.
    assert plan is None or 1 not in plan


def test_plan_join_keeps_shards_holding_pairs():
    records = [_dot(1, 0.41, 0.41), _dot(2, 0.42, 0.42), _dot(3, 0.9, 0.1)]
    router, cache = _deployment(records)
    window = Rect(0.40, 0.40, 0.45, 0.45)
    cache.begin_query()
    plan = cache.plan_join(window, [(i, s) for i, s in router.live_shards()])
    assert plan is not None and 0 in plan


# --------------------------------------------------------------------------- #
# stats surface
# --------------------------------------------------------------------------- #
def test_stats_reports_the_deterministic_counters():
    router, cache = _deployment(_two_corner_records())
    cache.begin_query()
    cache.plan_range(HOT_WINDOW, [(i, s) for i, s in router.live_shards()])
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    assert stats["entries"] > 0
    assert 0 < stats["used_bytes"] <= stats["capacity_bytes"]
    assert set(stats) == {"entries", "used_bytes", "capacity_bytes",
                          "hits", "misses", "probes", "evictions"}


def test_cache_works_against_a_real_dataset_build():
    config = SimulationConfig.scaled(query_count=5, object_count=400)
    state = build_sharded_state(config, 3, "grid")
    try:
        cache = PartitionResultCache(capacity_bytes=8 * 1024)
        state.router.attach_result_cache(cache)
        for window in (Rect(0.2, 0.2, 0.4, 0.4), Rect(0.6, 0.1, 0.9, 0.3)):
            cache.begin_query()
            allowed = cache.plan_range(
                window, [(i, s) for i, s in state.router.live_shards()])
            for index, shard in state.router.live_shards():
                if any(record.mbr.intersects(window)
                       for record in shard.tree.objects.values()):
                    assert index in allowed
    finally:
        state.close()
