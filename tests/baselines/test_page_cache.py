"""Tests for the page-caching (PAG) baseline cache."""

import pytest

from repro.baselines.page import PageCache
from repro.geometry import Rect
from repro.rtree.entry import ObjectRecord


def record(object_id, size=1_000):
    return ObjectRecord(object_id=object_id, mbr=Rect(0, 0, 0.01, 0.01), size_bytes=size)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PageCache(capacity_bytes=0)


def test_insert_and_get():
    cache = PageCache(capacity_bytes=10_000)
    assert cache.insert(record(1))
    assert 1 in cache
    assert cache.get(1).object_id == 1
    assert cache.get(2) is None
    assert cache.object_ids() == {1}


def test_lru_eviction_order():
    cache = PageCache(capacity_bytes=3_000)
    for object_id in (1, 2, 3):
        cache.insert(record(object_id))
    cache.get(1)              # 1 becomes most recently used
    cache.insert(record(4))   # evicts 2
    assert 1 in cache and 3 in cache and 4 in cache
    assert 2 not in cache
    assert cache.evictions == 1


def test_touch_refreshes_recency():
    cache = PageCache(capacity_bytes=2_000)
    cache.insert(record(1))
    cache.insert(record(2))
    cache.touch(1)
    cache.insert(record(3))
    assert 1 in cache and 2 not in cache


def test_oversized_object_rejected():
    cache = PageCache(capacity_bytes=500)
    assert not cache.insert(record(1, size=1_000))
    assert len(cache) == 0


def test_reinserting_existing_object_keeps_bytes_stable():
    cache = PageCache(capacity_bytes=5_000)
    cache.insert(record(1))
    used = cache.used_bytes
    cache.insert(record(1))
    assert cache.used_bytes == used


def test_inserted_objects_are_counted_in_used_bytes():
    cache = PageCache(capacity_bytes=10_000)
    for object_id in range(5):
        assert cache.insert(record(object_id, size=500))
    assert len(cache) == 5
    assert cache.used_bytes == 2_500
    assert cache.object_ids() == set(range(5))


def test_used_bytes_never_exceeds_capacity():
    cache = PageCache(capacity_bytes=2_500)
    for object_id in range(20):
        cache.insert(record(object_id, size=700))
        assert cache.used_bytes <= cache.capacity_bytes
