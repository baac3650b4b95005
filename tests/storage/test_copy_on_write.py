"""Tests for the paged backend's copy-on-write overlay."""

import os

import pytest

from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.rtree.entry import ObjectRecord
from repro.geometry import Rect
from repro.storage import ReadOnlyStorageError, StorageError
from repro.storage.paged import load_tree, read_header, save_tree

from tests.conftest import make_records


@pytest.fixture()
def store_path(tmp_path):
    records = make_records(150, seed=21)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    path = str(tmp_path / "cow.rpro")
    save_tree(tree, path, meta={"dataset": "TEST"})
    return path


def test_read_only_tree_still_refuses_mutation(store_path):
    tree = load_tree(store_path)
    with pytest.raises(ReadOnlyStorageError, match="copy_on_write"):
        tree.insert(ObjectRecord(object_id=999,
                                 mbr=Rect(0.1, 0.1, 0.2, 0.2),
                                 size_bytes=100))
    with pytest.raises(ReadOnlyStorageError):
        tree.store.allocate(level=0)
    with pytest.raises(ReadOnlyStorageError):
        tree.store.free(tree.root_id)
    with pytest.raises(ReadOnlyStorageError):
        tree.store.edit(tree.root_id)


def test_cow_mutations_survive_buffer_eviction(store_path):
    # A 2-page buffer evicts constantly; without the overlay the in-place
    # mutations would be lost on re-decode.
    tree = load_tree(store_path, buffer_pages=2, copy_on_write=True)
    for object_id in range(150, 190):
        x = (object_id - 150) / 40.0
        tree.insert(ObjectRecord(object_id=object_id,
                                 mbr=Rect(x, x, min(1.0, x + 0.003),
                                          min(1.0, x + 0.003)),
                                 size_bytes=500))
    for object_id in range(0, 60, 3):
        assert tree.delete(object_id)
    assert_tree_valid(tree)
    assert len(tree) == 150 + 40 - 20
    # The file itself is untouched: a fresh read-only load sees the original.
    original = load_tree(store_path)
    assert len(original) == 150
    assert_tree_valid(original)


def test_cow_tree_can_be_recheckpointed(store_path, tmp_path):
    tree = load_tree(store_path, copy_on_write=True)
    tree.insert(ObjectRecord(object_id=500, mbr=Rect(0.4, 0.4, 0.41, 0.41),
                             size_bytes=750))
    assert tree.delete(3)
    out = str(tmp_path / "next.rpro")
    header = save_tree(tree, out)
    assert header["meta"] == {"dataset": "TEST"}  # meta carries over
    reloaded = load_tree(out)
    assert sorted(reloaded.objects) == sorted(tree.objects)
    assert_tree_valid(reloaded)


def test_cow_logical_counters_match_memory_semantics(store_path):
    tree = load_tree(store_path, copy_on_write=True)
    writes_before = tree.store.writes
    node = tree.store.allocate(level=0)
    assert tree.store.writes == writes_before + 1
    assert node.node_id in tree.store
    assert node.node_id in tree.store.node_ids()
    tree.store.free(node.node_id)
    assert node.node_id not in tree.store
    with pytest.raises(KeyError):
        tree.store.free(node.node_id)


def test_cow_freed_file_page_is_tombstoned(store_path):
    tree = load_tree(store_path, copy_on_write=True)
    # Delete enough objects to force a condense that frees a file page.
    victims = sorted(tree.objects)[:80]
    pages_before = set(tree.store.node_ids())
    for object_id in victims:
        tree.delete(object_id)
    pages_after = set(tree.store.node_ids())
    freed = pages_before - pages_after
    assert freed, "expected at least one page to be condensed away"
    for node_id in freed:
        assert node_id not in tree.store
        with pytest.raises(KeyError):
            tree.store.peek(node_id)
    assert_tree_valid(tree)


def test_truncated_store_raises_storage_error(store_path, tmp_path):
    header = read_header(store_path)
    truncated = str(tmp_path / "truncated.rpro")
    size = os.path.getsize(store_path)
    with open(store_path, "rb") as source, open(truncated, "wb") as out:
        out.write(source.read(size - header["page_size"] * 2))
    with pytest.raises(StorageError, match="corrupt or truncated"):
        load_tree(truncated)
