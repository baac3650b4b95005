"""Tests for the window (range) query."""

from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree.range_search import range_search

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def brute_force_range(records, window):
    return sorted(r.object_id for r in records if r.mbr.intersects(window))


def test_range_search_matches_bruteforce(small_tree, small_records):
    window = Rect(0.25, 0.25, 0.55, 0.75)
    assert sorted(range_search(small_tree, window)) == brute_force_range(small_records, window)


def test_range_search_whole_space_returns_everything(small_tree, small_records):
    assert sorted(range_search(small_tree, Rect.unit())) == [r.object_id for r in small_records]


def test_range_search_empty_window_region(small_tree, small_records):
    window = Rect(0.99995, 0.99995, 0.99999, 0.99999)
    assert sorted(range_search(small_tree, window)) == brute_force_range(small_records, window)


def test_range_search_reports_each_object_once(clustered_tree, clustered_records):
    window = Rect(0.0, 0.0, 0.5, 0.5)
    found = range_search(clustered_tree, window)
    assert len(found) == len(set(found))
    assert len(found) == len(brute_force_range(clustered_records, window))


def test_point_window_returns_the_objects_covering_it(small_tree, small_records):
    corner = small_records[7].mbr
    window = Rect(corner.min_x, corner.min_y, corner.min_x, corner.min_y)
    found = sorted(range_search(small_tree, window))
    assert 7 in found
    assert found == brute_force_range(small_records, window)


def test_range_search_collects_visited_nodes(small_tree):
    visited = set()
    range_search(small_tree, Rect(0.4, 0.4, 0.6, 0.6), visited_nodes=visited)
    assert small_tree.root_id in visited
    assert all(node_id in small_tree.store for node_id in visited)


@settings(max_examples=25, deadline=None)
@given(coords, coords, coords, coords)
def test_range_search_property(clustered_tree, clustered_records, x1, y1, x2, y2):
    window = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    assert sorted(range_search(clustered_tree, window)) == \
        brute_force_range(clustered_records, window)
