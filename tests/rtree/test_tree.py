"""Tests for the dynamic R*-tree (insertion, deletion, invariants)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import RTree, SizeModel, assert_tree_valid
from repro.rtree.entry import ObjectRecord
from repro.rtree.range_search import range_search

from tests.conftest import make_records


def test_empty_tree_basics():
    tree = RTree(size_model=SizeModel(page_bytes=256))
    assert len(tree) == 0
    assert tree.height == 1
    assert tree.root.is_leaf
    assert range_search(tree, Rect.unit()) == []


def test_insert_single_object():
    tree = RTree(size_model=SizeModel(page_bytes=256))
    tree.insert(ObjectRecord(1, Rect(0.1, 0.1, 0.2, 0.2), 100))
    assert len(tree) == 1
    assert range_search(tree, Rect.unit()) == [1]
    assert_tree_valid(tree)


def test_duplicate_object_id_rejected():
    tree = RTree(size_model=SizeModel(page_bytes=256))
    tree.insert(ObjectRecord(1, Rect(0.1, 0.1, 0.2, 0.2), 100))
    with pytest.raises(ValueError):
        tree.insert(ObjectRecord(1, Rect(0.3, 0.3, 0.4, 0.4), 100))


def test_dynamic_build_invariants(dynamic_tree):
    assert_tree_valid(dynamic_tree, check_min_fill=True)
    assert dynamic_tree.height >= 2
    assert len(dynamic_tree) == 120


def test_dynamic_build_range_results_match_bruteforce(dynamic_tree, small_records):
    window = Rect(0.2, 0.2, 0.6, 0.6)
    expected = sorted(r.object_id for r in small_records if r.mbr.intersects(window))
    assert sorted(range_search(dynamic_tree, window)) == expected


def test_forced_reinsert_runs_once_per_non_root_level_per_insert(small_records):
    tree = RTree(size_model=SizeModel(page_bytes=256))
    reinserts = []
    original = tree._reinsert_farthest

    def spy(node):
        assert node.node_id != tree.root_id
        reinserts.append((len(tree), node.level))
        original(node)

    tree._reinsert_farthest = spy
    for record in small_records:
        tree.insert(record)
    assert_tree_valid(tree)
    assert reinserts
    assert len(reinserts) == len(set(reinserts))
    assert sorted(range_search(tree, Rect.unit())) == [r.object_id for r in small_records]


def test_delete_removes_object(dynamic_tree):
    assert dynamic_tree.delete(10)
    assert 10 not in dynamic_tree.objects
    assert 10 not in range_search(dynamic_tree, Rect.unit())
    assert_tree_valid(dynamic_tree)


def test_delete_missing_returns_false(dynamic_tree):
    assert not dynamic_tree.delete(10_000)


def test_delete_many_keeps_invariants(dynamic_tree):
    rng = random.Random(4)
    victims = rng.sample(range(120), 60)
    for object_id in victims:
        assert dynamic_tree.delete(object_id)
    assert_tree_valid(dynamic_tree)
    remaining = sorted(range_search(dynamic_tree, Rect.unit()))
    assert remaining == sorted(set(range(120)) - set(victims))


def test_delete_everything(dynamic_tree):
    for object_id in range(120):
        dynamic_tree.delete(object_id)
    assert len(dynamic_tree) == 0
    assert range_search(dynamic_tree, Rect.unit()) == []


def test_index_and_dataset_bytes(dynamic_tree):
    assert dynamic_tree.index_bytes() > 0
    assert dynamic_tree.dataset_bytes() == 120 * 1000


def test_root_entry_references_root(dynamic_tree):
    entry = dynamic_tree.root_entry()
    assert entry.child_id == dynamic_tree.root_id
    assert entry.mbr.contains(dynamic_tree.root.mbr())


def test_max_entries_must_be_at_least_two():
    with pytest.raises(ValueError):
        RTree(max_entries=1)


def test_page_store_read_counter(dynamic_tree):
    before = dynamic_tree.store.reads
    range_search(dynamic_tree, Rect(0.4, 0.4, 0.5, 0.5))
    assert dynamic_tree.store.reads > before


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
def test_insertion_property_all_objects_retrievable(count, seed):
    records = make_records(count, seed=seed)
    tree = RTree(size_model=SizeModel(page_bytes=256))
    for record in records:
        tree.insert(record)
    assert_tree_valid(tree)
    assert sorted(range_search(tree, Rect.unit())) == list(range(count))
