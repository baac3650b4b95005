"""Tests for the semantic-caching (SEM) baseline: trimming, validity, FAR."""

import pytest

from repro.baselines.semantic import SemanticCache
from repro.geometry import Point, Rect
from repro.rtree.entry import ObjectRecord
from repro.rtree.sizes import SizeModel
from tests.geometry.rect_reference import intersection_area


MODEL = SizeModel()


def record(object_id, x, y, size=1_000, extent=0.01):
    return ObjectRecord(object_id=object_id,
                        mbr=Rect(x, y, min(1.0, x + extent), min(1.0, y + extent)),
                        size_bytes=size)


def make_cache(capacity=200_000, replacement="FAR", coalesce=False):
    return SemanticCache(capacity_bytes=capacity, size_model=MODEL,
                         replacement=replacement, coalesce=coalesce)


def test_invalid_construction():
    with pytest.raises(ValueError):
        SemanticCache(capacity_bytes=0)
    with pytest.raises(ValueError):
        SemanticCache(capacity_bytes=100, replacement="RANDOM")


def test_probe_range_on_empty_cache_returns_whole_window():
    cache = make_cache()
    window = Rect(0.2, 0.2, 0.4, 0.4)
    saved, remainders = cache.probe_range(window)
    assert saved == {}
    assert remainders == [window]


def test_range_region_fully_answers_contained_query():
    cache = make_cache()
    records = [record(1, 0.25, 0.25), record(2, 0.3, 0.3)]
    cache.insert_range_region(Rect(0.2, 0.2, 0.4, 0.4), records, Point(0.3, 0.3))
    saved, remainders = cache.probe_range(Rect(0.25, 0.25, 0.35, 0.35))
    assert remainders == []
    assert set(saved) == {1, 2}


def test_range_trimming_produces_remainder_rectangles():
    cache = make_cache()
    cache.insert_range_region(Rect(0.2, 0.2, 0.4, 0.4), [record(1, 0.35, 0.35)],
                              Point(0.3, 0.3))
    window = Rect(0.3, 0.3, 0.6, 0.6)
    saved, remainders = cache.probe_range(window)
    assert 1 in saved
    assert remainders
    leftover = sum(r.area() for r in remainders)
    covered = intersection_area(window, Rect(0.2, 0.2, 0.4, 0.4))
    assert leftover == pytest.approx(window.area() - covered)


def test_knn_results_cannot_answer_range_queries():
    """The defining limitation of SEM: no sharing across query types."""
    cache = make_cache()
    records = [record(1, 0.45, 0.45), record(2, 0.5, 0.5)]
    cache.insert_knn_region(Point(0.5, 0.5), 2, records, Point(0.5, 0.5))
    saved, remainders = cache.probe_range(Rect(0.4, 0.4, 0.6, 0.6))
    assert saved == {}
    assert remainders == [Rect(0.4, 0.4, 0.6, 0.6)]


def test_knn_validity_circle_answers_nearby_smaller_query():
    cache = make_cache()
    records = [record(i, 0.5 + 0.02 * i, 0.5, extent=0.001) for i in range(5)]
    cache.insert_knn_region(Point(0.5, 0.5), 5, records, Point(0.5, 0.5))
    answer = cache.probe_knn(Point(0.505, 0.5), 1)
    assert answer is not None
    assert answer[0].object_id == 0


def test_knn_probe_rejects_larger_k_or_distant_point():
    cache = make_cache()
    records = [record(i, 0.5 + 0.02 * i, 0.5, extent=0.001) for i in range(3)]
    cache.insert_knn_region(Point(0.5, 0.5), 3, records, Point(0.5, 0.5))
    assert cache.probe_knn(Point(0.5, 0.5), 4) is None
    assert cache.probe_knn(Point(0.9, 0.9), 1) is None


def test_object_pool_is_shared_between_regions():
    cache = make_cache()
    shared = record(7, 0.3, 0.3)
    cache.insert_range_region(Rect(0.25, 0.25, 0.35, 0.35), [shared], Point(0.3, 0.3))
    used_after_first = cache.used_bytes
    cache.insert_range_region(Rect(0.28, 0.28, 0.38, 0.38), [shared], Point(0.3, 0.3))
    # The second region adds only its descriptor, not another object copy.
    assert cache.used_bytes - used_after_first < shared.size_bytes
    cache.validate()


def test_far_replacement_evicts_farthest_region():
    # Capacity fits two regions (objects of 1 KB each plus descriptors).
    cache = make_cache(capacity=2_300)
    cache.insert_range_region(Rect(0.0, 0.0, 0.05, 0.05), [record(1, 0.01, 0.01)],
                              Point(0.9, 0.9))
    cache.insert_range_region(Rect(0.85, 0.85, 0.95, 0.95), [record(2, 0.9, 0.9)],
                              Point(0.9, 0.9))
    # Inserting a third region near the client evicts the farthest one (region 1).
    cache.insert_range_region(Rect(0.8, 0.8, 0.9, 0.9), [record(3, 0.85, 0.85)],
                              client_position=Point(0.9, 0.9))
    assert 1 not in cache.cached_object_ids()
    assert {2, 3} <= cache.cached_object_ids()
    cache.validate()


def test_lru_replacement_evicts_oldest_region():
    cache = make_cache(capacity=2_300, replacement="LRU")
    cache.tick()
    cache.insert_range_region(Rect(0.0, 0.0, 0.05, 0.05), [record(1, 0.01, 0.01)],
                              Point(0.5, 0.5))
    cache.tick()
    cache.insert_range_region(Rect(0.2, 0.2, 0.25, 0.25), [record(2, 0.22, 0.22)],
                              Point(0.5, 0.5))
    cache.tick()
    cache.probe_range(Rect(0.0, 0.0, 0.05, 0.05))  # touch region 1
    cache.tick()
    cache.insert_range_region(Rect(0.4, 0.4, 0.45, 0.45), [record(3, 0.42, 0.42)],
                              Point(0.5, 0.5))
    assert 2 not in cache.cached_object_ids()
    assert 1 in cache.cached_object_ids()
    cache.validate()


def test_evicting_region_releases_unreferenced_objects():
    cache = make_cache(capacity=2_300)
    cache.insert_range_region(Rect(0.0, 0.0, 0.05, 0.05), [record(1, 0.01, 0.01)],
                              Point(0.0, 0.0))
    before = cache.used_bytes
    assert before > 0
    cache._drop_region(next(iter(cache.range_regions)))
    assert cache.used_bytes == 0
    assert cache.cached_object_ids() == set()


def test_oversized_region_rejected():
    cache = make_cache(capacity=1_500)
    region_id = cache.insert_range_region(
        Rect(0, 0, 0.1, 0.1), [record(1, 0.01, 0.01, size=5_000)], Point(0, 0))
    assert region_id is None
    assert cache.used_bytes == 0


def test_coalesce_absorbs_contained_regions():
    cache = make_cache(coalesce=True)
    cache.insert_range_region(Rect(0.3, 0.3, 0.4, 0.4), [record(1, 0.32, 0.32)],
                              Point(0.35, 0.35))
    assert len(cache.range_regions) == 1
    cache.insert_range_region(Rect(0.2, 0.2, 0.5, 0.5),
                              [record(1, 0.32, 0.32), record(2, 0.45, 0.45)],
                              Point(0.35, 0.35))
    assert len(cache.range_regions) == 1
    assert {1, 2} <= cache.cached_object_ids()
    cache.validate()


def test_descriptor_and_object_byte_accounting():
    cache = make_cache()
    cache.insert_range_region(Rect(0.1, 0.1, 0.2, 0.2),
                              [record(1, 0.12, 0.12), record(2, 0.15, 0.15)],
                              Point(0.15, 0.15))
    assert cache.used_bytes == cache.descriptor_bytes() + cache.object_bytes()
    assert cache.object_bytes() == 2_000
    assert len(cache) == 1
