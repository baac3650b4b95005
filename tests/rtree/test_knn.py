"""Tests for best-first kNN search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.rtree.knn import knn_search

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def brute_force_distances(records, point, k):
    return sorted(r.mbr.min_dist_to_point(point) for r in records)[:k]


def test_knn_zero_k_returns_empty(small_tree):
    assert knn_search(small_tree, Point(0.5, 0.5), 0) == []


def test_knn_returns_k_results_sorted_by_distance(small_tree):
    results = knn_search(small_tree, Point(0.5, 0.5), 7)
    assert len(results) == 7
    distances = [distance for _, distance in results]
    assert distances == sorted(distances)


def test_knn_matches_bruteforce_distances(small_tree, small_records):
    point = Point(0.31, 0.77)
    results = knn_search(small_tree, point, 5)
    expected = brute_force_distances(small_records, point, 5)
    assert [d for _, d in results] == pytest.approx(expected)


def test_knn_k_larger_than_dataset(small_tree, small_records):
    results = knn_search(small_tree, Point(0.5, 0.5), len(small_records) + 10)
    assert len(results) == len(small_records)


def test_nearest_neighbor(small_tree, small_records):
    point = Point(0.11, 0.42)
    [(object_id, distance)] = knn_search(small_tree, point, 1)
    expected_distance = brute_force_distances(small_records, point, 1)[0]
    assert distance == pytest.approx(expected_distance)
    nearest = next(r for r in small_records if r.object_id == object_id)
    assert nearest.mbr.min_dist_to_point(point) == pytest.approx(expected_distance)


def test_smaller_k_is_a_prefix_of_larger_k(small_tree):
    point = Point(0.9, 0.1)
    three = knn_search(small_tree, point, 3)
    ten = knn_search(small_tree, point, 10)
    assert [d for _, d in three] == [d for _, d in ten[:3]]


def test_knn_collects_visited_nodes(small_tree):
    visited = set()
    knn_search(small_tree, Point(0.2, 0.2), 3, visited_nodes=visited)
    assert small_tree.root_id in visited


def test_knn_empty_tree():
    from repro.rtree import RTree, SizeModel
    tree = RTree(size_model=SizeModel(page_bytes=256))
    assert knn_search(tree, Point(0.5, 0.5), 3) == []


@settings(max_examples=25, deadline=None)
@given(coords, coords, st.integers(min_value=1, max_value=12))
def test_knn_property_matches_bruteforce(clustered_tree, clustered_records, x, y, k):
    point = Point(x, y)
    results = knn_search(clustered_tree, point, k)
    expected = brute_force_distances(clustered_records, point, k)
    assert [d for _, d in results] == pytest.approx(expected)
