"""Tests for the proactive cache structure and constrained eviction plumbing."""

import pytest

from repro.core.cache import ProactiveCache
from repro.core.items import CacheEntry, CachedIndexNode, CachedObject, item_key_for_node, item_key_for_object
from repro.core.replacement import GRD3Policy, LRUPolicy
from repro.geometry import Rect
from repro.rtree.sizes import SizeModel


MODEL = SizeModel()


def node_snapshot(node_id, level=0, entries=2):
    elements = {}
    for index in range(entries):
        code = format(index, "b").zfill(2)
        elements[code] = CacheEntry(mbr=Rect(0, 0, 0.1, 0.1), code=code,
                                    object_id=node_id * 100 + index)
    return CachedIndexNode(node_id=node_id, level=level, elements=elements)


def cached_object(object_id, size=500):
    return CachedObject(object_id=object_id, mbr=Rect(0, 0, 0.01, 0.01), size_bytes=size)


def make_cache(capacity=50_000, policy=None):
    return ProactiveCache(capacity_bytes=capacity, size_model=MODEL,
                          replacement_policy=policy)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ProactiveCache(capacity_bytes=0)


def test_insert_root_and_lookup():
    cache = make_cache()
    assert cache.insert_node_snapshot(node_snapshot(1, level=2), parent_node_id=None)
    assert cache.has_node(1)
    assert cache.get_node(1).node_id == 1
    assert not cache.has_node(2)
    cache.validate()


def test_insert_child_requires_cached_parent():
    cache = make_cache()
    assert not cache.insert_node_snapshot(node_snapshot(5, level=0), parent_node_id=99)
    assert cache.rejected_inserts == 1
    cache.insert_node_snapshot(node_snapshot(99, level=1), parent_node_id=None)
    assert cache.insert_node_snapshot(node_snapshot(5, level=0), parent_node_id=99)
    cache.validate()


def test_insert_object_requires_cached_parent_leaf():
    cache = make_cache()
    assert not cache.insert_object(cached_object(7), parent_node_id=4)
    cache.insert_node_snapshot(node_snapshot(4, level=0), parent_node_id=None)
    assert cache.insert_object(cached_object(7), parent_node_id=4)
    assert cache.has_object(7)
    assert cache.get_object(7).object_id == 7
    cache.validate()


def test_used_bytes_tracks_inserts():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=1), parent_node_id=None)
    node_bytes = cache.used_bytes
    assert node_bytes == cache.get_node(1).size_bytes(MODEL)
    cache.insert_object(cached_object(3, size=700), parent_node_id=1)
    assert cache.used_bytes == node_bytes + 700
    assert cache.object_bytes() == 700
    assert cache.index_bytes() == node_bytes


def test_merge_updates_size_accounting():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=1, entries=1), parent_node_id=None)
    before = cache.used_bytes
    cache.insert_node_snapshot(node_snapshot(1, level=1, entries=3), parent_node_id=None)
    assert cache.used_bytes > before
    cache.validate()


def test_merge_refreshes_replacement_metadata():
    """A re-shipped snapshot is a hit: merging must not let the node decay."""
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=1, entries=1), parent_node_id=None)
    state = cache.items[item_key_for_node(1)]
    hits_before = state.hit_queries
    for _ in range(5):
        cache.tick()
    assert state.last_access == 0
    cache.insert_node_snapshot(node_snapshot(1, level=1, entries=3), parent_node_id=None)
    assert state.last_access == cache.clock
    assert state.hit_queries == hits_before + 1
    # The refreshed metadata feeds straight into the GRD access probability.
    assert state.access_probability(cache.clock) == pytest.approx(2 / 6)
    cache.validate()


def test_duplicate_object_insert_is_noop():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=0), parent_node_id=None)
    assert cache.insert_object(cached_object(5), parent_node_id=1)
    used = cache.used_bytes
    assert cache.insert_object(cached_object(5), parent_node_id=1)
    assert cache.used_bytes == used


def test_leaf_items_and_eviction_constraint():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=1), parent_node_id=None)
    cache.insert_node_snapshot(node_snapshot(2, level=0), parent_node_id=1)
    cache.insert_object(cached_object(9), parent_node_id=2)
    leaf_keys = {state.key for state in cache.leaf_items()}
    assert leaf_keys == {item_key_for_object(9)}
    with pytest.raises(ValueError):
        cache.evict(item_key_for_node(2))
    cache.evict(item_key_for_object(9))
    assert {state.key for state in cache.leaf_items()} == {item_key_for_node(2)}
    cache.validate()


def test_evict_subtree_removes_descendants():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=1), parent_node_id=None)
    cache.insert_node_snapshot(node_snapshot(2, level=0), parent_node_id=1)
    cache.insert_object(cached_object(9), parent_node_id=2)
    removed = cache.evict_subtree(item_key_for_node(1))
    assert set(removed) == {item_key_for_node(1), item_key_for_node(2), item_key_for_object(9)}
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_object_id_set_largest_item_bound_and_new_leaves_are_maintained():
    cache = make_cache()
    cache.tick()
    cache.insert_node_snapshot(node_snapshot(1, level=1), parent_node_id=None)
    cache.insert_node_snapshot(node_snapshot(2, level=0), parent_node_id=1)
    cache.insert_object(cached_object(9, size=700), parent_node_id=2)
    cache.insert_object(cached_object(8, size=300), parent_node_id=2)
    assert cache.cached_object_ids() == {8, 9}
    assert cache.cached_object_ids() is not cache.cached_object_ids()   # a copy
    assert cache.largest_item_bytes == 700
    assert cache.new_leaves == [item_key_for_node(1), item_key_for_node(2),
                                item_key_for_object(9), item_key_for_object(8)]
    cache.tick()
    assert cache.new_leaves == []
    cache.evict(item_key_for_object(9))
    assert cache.cached_object_ids() == {8}
    assert cache.largest_item_bytes == 700        # an upper bound: evictions keep it
    cache.evict(item_key_for_object(8))
    assert cache.new_leaves == [item_key_for_node(2)]   # promoted: its last child went
    # Growth raises the bound: a merged snapshot, a refreshed payload.
    cache.insert_node_snapshot(node_snapshot(2, level=0, entries=40), parent_node_id=1)
    grown = cache.items[item_key_for_node(2)].size_bytes
    assert cache.largest_item_bytes == grown > 700
    cache.insert_object(cached_object(5), parent_node_id=2)
    cache.refresh_item(item_key_for_object(5), cached_object(5, size=grown + 1), grown + 1)
    assert cache.largest_item_bytes == grown + 1
    cache.validate()
    # validate() notices either aggregate drifting.
    cache._object_ids.add(77)
    with pytest.raises(AssertionError, match="object-id set"):
        cache.validate()
    cache._object_ids.discard(77)
    cache.largest_item_bytes = grown
    with pytest.raises(AssertionError, match="largest-item bound"):
        cache.validate()


def test_insert_rejected_when_item_larger_than_cache():
    cache = make_cache(capacity=100, policy=LRUPolicy())
    assert not cache.insert_node_snapshot(node_snapshot(1, level=0, entries=10),
                                          parent_node_id=None)


def test_eviction_makes_room_for_new_objects():
    cache = make_cache(capacity=2_000, policy=LRUPolicy())
    cache.insert_node_snapshot(node_snapshot(1, level=0, entries=1), parent_node_id=None)
    cache.tick()
    assert cache.insert_object(cached_object(1, size=900), parent_node_id=1)
    cache.tick()
    assert cache.insert_object(cached_object(2, size=900), parent_node_id=1)
    cache.tick()
    # Inserting a third object forces the least recently used one out.
    assert cache.insert_object(cached_object(3, size=900), parent_node_id=1)
    assert cache.evictions >= 1
    assert cache.used_bytes <= cache.capacity_bytes
    assert not cache.has_object(1)
    cache.validate()


def test_touch_and_access_probability():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(1, level=0), parent_node_id=None)
    key = item_key_for_node(1)
    state = cache.items[key]
    assert state.hit_queries == 1
    for _ in range(4):
        cache.tick()
    cache.touch(key)
    assert state.hit_queries == 2
    assert 0.0 < state.access_probability(cache.clock) <= 1.0


def test_touch_unknown_key_is_noop():
    cache = make_cache()
    cache.touch("node:404")


def test_cached_id_sets():
    cache = make_cache()
    cache.insert_node_snapshot(node_snapshot(3, level=0), parent_node_id=None)
    cache.insert_object(cached_object(11), parent_node_id=3)
    assert cache.cached_node_ids() == {3}
    assert cache.cached_object_ids() == {11}
    assert item_key_for_object(11) in cache
    assert len(cache) == 2
