"""Tests for repro.rtree.entry."""

import pytest

from repro.geometry import Rect
from repro.rtree.entry import Entry


def test_entry_requires_exactly_one_reference():
    with pytest.raises(ValueError):
        Entry(mbr=Rect(0, 0, 1, 1))
    with pytest.raises(ValueError):
        Entry(mbr=Rect(0, 0, 1, 1), child_id=1, object_id=2)


def test_leaf_entry_flag():
    leaf = Entry(mbr=Rect(0, 0, 0.1, 0.1), object_id=7)
    node = Entry(mbr=Rect(0, 0, 0.1, 0.1), child_id=3)
    assert leaf.is_leaf_entry
    assert not node.is_leaf_entry


def test_entry_key_is_stable_and_distinct():
    leaf = Entry(mbr=Rect(0, 0, 0.1, 0.1), object_id=7)
    node = Entry(mbr=Rect(0, 0, 0.1, 0.1), child_id=7)
    assert leaf.key() == "obj:7"
    assert node.key() == "node:7"
    assert leaf.key() != node.key()
