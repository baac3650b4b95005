"""Tests for cache items, snapshot merging and frontier targets."""

import pytest

from repro.core.items import (
    CacheEntry,
    CachedIndexNode,
    CachedObject,
    FrontierTarget,
    TargetKind,
    item_key_for_node,
    item_key_for_object,
)
from repro.geometry import Rect
from repro.rtree.sizes import SizeModel


def entry(code, child_id=None, object_id=None):
    return CacheEntry(mbr=Rect(0, 0, 0.1, 0.1), code=code, child_id=child_id,
                      object_id=object_id)


def test_cache_entry_kinds():
    assert entry("0").is_super
    assert entry("0", child_id=3).is_node_entry
    assert entry("0", object_id=5).is_leaf_entry
    with pytest.raises(ValueError):
        CacheEntry(mbr=Rect(0, 0, 1, 1), code="0", child_id=1, object_id=2)


def test_cache_entry_sizes():
    model = SizeModel()
    assert entry("0").size_bytes(model) == model.super_entry_bytes()
    assert entry("0", object_id=1).size_bytes(model) == model.entry_bytes


def test_cached_node_size_grows_with_elements():
    model = SizeModel()
    node = CachedIndexNode(node_id=1, level=0)
    empty = node.size_bytes(model)
    node.elements["0"] = entry("0", object_id=1)
    assert node.size_bytes(model) == empty + model.entry_bytes


def test_merge_prefers_finer_elements():
    node = CachedIndexNode(node_id=1, level=1, elements={"0": entry("0")})
    node.merge([entry("00", child_id=4), entry("01", child_id=5)])
    assert set(node.elements) == {"00", "01"}
    assert all(not e.is_super for e in node.entries())


def test_merge_keeps_coarse_elements_for_uncovered_regions():
    node = CachedIndexNode(node_id=1, level=1,
                           elements={"0": entry("0"), "1": entry("1")})
    node.merge([entry("00", child_id=4), entry("01", child_id=5)])
    assert set(node.elements) == {"00", "01", "1"}


def test_merge_real_entry_wins_over_super_at_same_code():
    node = CachedIndexNode(node_id=1, level=1, elements={"0": entry("0")})
    node.merge([entry("0", child_id=9), entry("1", child_id=10)])
    assert node.elements["0"].child_id == 9


def test_merge_is_idempotent():
    elements = {"0": entry("0", child_id=1), "1": entry("1")}
    node = CachedIndexNode(node_id=1, level=1, elements=dict(elements))
    node.merge(elements.values())
    assert set(node.elements) == {"0", "1"}


def test_entries_list_real_and_super_elements():
    node = CachedIndexNode(node_id=1, level=0,
                           elements={"0": entry("0"), "1": entry("1", object_id=2)})
    entries = node.entries()
    assert len(entries) == 2
    assert [e.is_super for e in entries].count(True) == 1
    assert [e.object_id for e in entries if not e.is_super] == [2]


def test_copy_is_independent():
    node = CachedIndexNode(node_id=1, level=0, elements={"0": entry("0")})
    clone = node.copy()
    clone.elements["1"] = entry("1")
    assert "1" not in node.elements


def test_frontier_target_constructors():
    rect = Rect(0, 0, 0.2, 0.2)
    node = FrontierTarget.for_node(3, rect, priority=0.5)
    obj = FrontierTarget.for_object(9, rect, parent_node_id=3)
    sup = FrontierTarget.for_super(3, "01", rect)
    assert node.kind is TargetKind.NODE and node.node_id == 3
    assert obj.kind is TargetKind.OBJECT and obj.parent_node_id == 3
    assert sup.kind is TargetKind.SUPER and sup.code == "01"
    model = SizeModel()
    assert node.size_bytes(model) == model.frontier_entry_bytes()


def test_item_keys():
    assert item_key_for_node(4) == "node:4"
    assert item_key_for_object(4) == "obj:4"
    assert item_key_for_node(4) != item_key_for_object(4)


def test_cached_object_fields():
    obj = CachedObject(object_id=1, mbr=Rect(0, 0, 0.1, 0.1), size_bytes=512)
    assert obj.size_bytes == 512
