"""Tests for the RJ and BFRJ spatial joins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.rtree.entry import ObjectRecord
from tests.rtree.rtree_join import bfrj_join, distance_predicate, intersection_predicate, rtree_join

from tests.conftest import make_records


def brute_force_self_join(records, threshold):
    pairs = set()
    for i, left in enumerate(records):
        for right in records[i + 1:]:
            if left.mbr.min_dist_to_rect(right.mbr) <= threshold:
                pairs.add((min(left.object_id, right.object_id),
                           max(left.object_id, right.object_id)))
    return pairs


def brute_force_cross_join(left_records, right_records, predicate):
    pairs = set()
    for left in left_records:
        for right in right_records:
            if predicate(left.mbr, right.mbr):
                pairs.add((left.object_id, right.object_id))
    return pairs


@pytest.fixture(scope="module")
def join_records():
    return make_records(80, seed=11)


@pytest.fixture(scope="module")
def join_tree(join_records):
    return bulk_load_str(join_records, size_model=SizeModel(page_bytes=256))


@pytest.mark.parametrize("join", [rtree_join, bfrj_join])
def test_self_join_matches_bruteforce(join, join_tree, join_records):
    threshold = 0.05
    expected = brute_force_self_join(join_records, threshold)
    result = join(join_tree, join_tree, distance_predicate(threshold), self_join=True)
    assert set(result) == expected


@pytest.mark.parametrize("join", [rtree_join, bfrj_join])
def test_self_join_excludes_identity_pairs(join, join_tree):
    result = join(join_tree, join_tree, distance_predicate(0.1), self_join=True)
    assert all(a < b for a, b in result)


@pytest.mark.parametrize("join", [rtree_join, bfrj_join])
def test_cross_join_matches_bruteforce(join, join_records):
    left_records = join_records[:40]
    right_records = [ObjectRecord(r.object_id + 1000, r.mbr, r.size_bytes)
                     for r in join_records[40:]]
    left = bulk_load_str(left_records, size_model=SizeModel(page_bytes=256))
    right = bulk_load_str(right_records, size_model=SizeModel(page_bytes=256))
    predicate = distance_predicate(0.08)
    expected = brute_force_cross_join(left_records, right_records, predicate)
    assert set(join(left, right, predicate)) == expected


@pytest.mark.parametrize("join", [rtree_join, bfrj_join])
def test_intersection_join(join, join_records):
    # Grow the rectangles so that intersections actually occur.
    grown = [ObjectRecord(r.object_id, r.mbr.buffered(0.02).clamped_unit(), r.size_bytes)
             for r in join_records]
    tree = bulk_load_str(grown, size_model=SizeModel(page_bytes=256))
    predicate = intersection_predicate()
    expected = {(min(a.object_id, b.object_id), max(a.object_id, b.object_id))
                for i, a in enumerate(grown) for b in grown[i + 1:]
                if a.mbr.intersects(b.mbr)}
    result = join(tree, tree, predicate, self_join=True)
    assert set(result) == expected


@pytest.mark.parametrize("join", [rtree_join, bfrj_join])
def test_join_on_empty_tree(join, join_tree):
    empty = bulk_load_str([], size_model=SizeModel(page_bytes=256))
    assert join(empty, join_tree, distance_predicate(0.1)) == []
    assert join(join_tree, empty, distance_predicate(0.1)) == []


def test_rj_and_bfrj_agree(join_tree):
    predicate = distance_predicate(0.03)
    assert set(rtree_join(join_tree, join_tree, predicate, self_join=True)) == \
        set(bfrj_join(join_tree, join_tree, predicate, self_join=True))


def test_join_collects_visited_nodes(join_tree):
    visited_left, visited_right = set(), set()
    rtree_join(join_tree, join_tree, distance_predicate(0.02),
               visited_left=visited_left, visited_right=visited_right, self_join=True)
    assert join_tree.root_id in visited_left
    assert join_tree.root_id in visited_right


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=500),
       st.floats(min_value=0.0, max_value=0.1))
def test_join_property(count, seed, threshold):
    records = make_records(count, seed=seed)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    expected = brute_force_self_join(records, threshold)
    got = set(bfrj_join(tree, tree, distance_predicate(threshold), self_join=True))
    assert got == expected
