"""Tests for STR bulk loading."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.rtree.entry import ObjectRecord
from repro.rtree.range_search import range_search

from tests.conftest import make_records


def test_bulk_load_empty():
    tree = bulk_load_str([], size_model=SizeModel(page_bytes=256))
    assert len(tree) == 0
    assert range_search(tree, Rect.unit()) == []


def test_bulk_load_single_record():
    tree = bulk_load_str([ObjectRecord(0, Rect(0.5, 0.5, 0.51, 0.51), 10)],
                         size_model=SizeModel(page_bytes=256))
    assert len(tree) == 1
    assert range_search(tree, Rect.unit()) == [0]
    assert_tree_valid(tree)


def test_bulk_load_matches_dynamic_results(small_records, small_tree, dynamic_tree):
    window = Rect(0.1, 0.3, 0.5, 0.9)
    assert sorted(range_search(small_tree, window)) == sorted(range_search(dynamic_tree, window))


def test_bulk_load_is_balanced(small_tree):
    leaf_levels = {node.level for node in small_tree.all_nodes() if node.is_leaf}
    assert leaf_levels == {0}
    assert_tree_valid(small_tree)


def test_bulk_load_duplicate_ids_rejected():
    records = [ObjectRecord(1, Rect(0, 0, 0.1, 0.1), 10),
               ObjectRecord(1, Rect(0.2, 0.2, 0.3, 0.3), 10)]
    with pytest.raises(ValueError):
        bulk_load_str(records, size_model=SizeModel(page_bytes=256))


def test_bulk_load_bad_fill_factor():
    with pytest.raises(ValueError):
        bulk_load_str(make_records(10), fill_factor=0.0)


def test_bulk_load_respects_fanout(small_records):
    tree = bulk_load_str(small_records, size_model=SizeModel(page_bytes=256), fill_factor=0.8)
    for node in tree.all_nodes():
        assert node.fanout <= tree.max_entries


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=1000))
def test_bulk_load_property_complete_and_valid(count, seed):
    records = make_records(count, seed=seed)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    assert_tree_valid(tree)
    assert sorted(range_search(tree, Rect.unit())) == list(range(count))
