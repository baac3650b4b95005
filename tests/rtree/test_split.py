"""Tests for the R* node-split heuristic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import RTree, SizeModel, assert_tree_valid
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.split import rstar_split


def _entries(count, seed=0):
    rng = random.Random(seed)
    entries = []
    for index in range(count):
        x, y = rng.random(), rng.random()
        entries.append(Entry(mbr=Rect(x, y, x + 0.01, y + 0.01), object_id=index))
    return entries


def test_split_partitions_all_entries():
    entries = _entries(20)
    left, right = rstar_split(entries, min_fill=4)
    assert len(left) + len(right) == len(entries)
    assert {e.object_id for e in left} | {e.object_id for e in right} == set(range(20))
    assert {e.object_id for e in left} & {e.object_id for e in right} == set()


def test_split_respects_min_fill():
    entries = _entries(15, seed=3)
    left, right = rstar_split(entries, min_fill=5)
    assert len(left) >= 5
    assert len(right) >= 5


def test_split_rejects_single_entry():
    with pytest.raises(ValueError):
        rstar_split(_entries(1), min_fill=1)


def test_split_two_entries():
    entries = _entries(2)
    left, right = rstar_split(entries, min_fill=1)
    assert len(left) == 1 and len(right) == 1


def test_rstar_split_separates_two_clusters():
    cluster_a = [Entry(mbr=Rect(0.0 + i * 0.01, 0.0, 0.01 + i * 0.01, 0.01), object_id=i)
                 for i in range(5)]
    cluster_b = [Entry(mbr=Rect(0.8 + i * 0.01, 0.9, 0.81 + i * 0.01, 0.91), object_id=10 + i)
                 for i in range(5)]
    left, right = rstar_split(cluster_a + cluster_b, min_fill=2)
    left_ids = {e.object_id for e in left}
    right_ids = {e.object_id for e in right}
    groups = [{e.object_id for e in cluster_a}, {e.object_id for e in cluster_b}]
    assert left_ids in groups and right_ids in groups


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=1000))
def test_rstar_split_property(count, seed):
    entries = _entries(count, seed=seed)
    min_fill = max(1, count // 3)
    left, right = rstar_split(entries, min_fill=min_fill)
    assert len(left) + len(right) == count
    assert min(len(left), len(right)) >= min(min_fill, count - min_fill)


def test_split_driven_tree_build_keeps_invariants():
    """Splits exercised through the tree itself: every overflow the build
    triggers must leave a structurally valid tree (assert_tree_valid)."""
    rng = random.Random(8)
    tree = RTree(size_model=SizeModel(page_bytes=256))
    for object_id in range(80):
        x, y = rng.random(), rng.random()
        tree.insert(ObjectRecord(object_id=object_id,
                                 mbr=Rect(x, y, min(1.0, x + 0.01),
                                          min(1.0, y + 0.01)),
                                 size_bytes=1000))
        assert_tree_valid(tree)
    assert tree.height >= 2
