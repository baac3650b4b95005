"""Round-trip tests for the persistence subsystem.

Save → load → save of a populated tree and of a populated proactive cache
must be byte-stable, and every individual codec must reconstruct its input
exactly.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.cache import ProactiveCache
from repro.core.items import CachedIndexNode, CachedObject, CacheEntry
from repro.core.replacement import make_policy
from repro.geometry import Rect
from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node
from repro.rtree.serialize import (
    decode_node,
    decode_object,
    encode_node,
    encode_object,
)
from repro.storage import load_state, load_tree, read_header, save_state, save_tree
from repro.storage.snapshot import dumps_state

from tests.conftest import make_records


def _file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# --------------------------------------------------------------------------- #
# codecs
# --------------------------------------------------------------------------- #
def test_node_codec_roundtrip_preserves_everything():
    rng = random.Random(11)
    entries = []
    for index in range(17):
        x, y = rng.random(), rng.random()
        mbr = Rect(x, y, min(1.0, x + rng.random() * 0.1),
                   min(1.0, y + rng.random() * 0.1))
        if index % 2:
            entries.append(Entry(mbr=mbr, object_id=1000 + index))
        else:
            entries.append(Entry(mbr=mbr, child_id=index))
    node = Node(node_id=42, level=3, entries=entries, parent_id=7)
    decoded = decode_node(encode_node(node))
    assert decoded.node_id == node.node_id
    assert decoded.level == node.level
    assert decoded.parent_id == node.parent_id
    assert decoded.entries == node.entries
    # Entry order is part of the format: re-encoding is byte-identical.
    assert encode_node(decoded) == encode_node(node)


def test_node_codec_none_parent():
    node = Node(node_id=1, level=0,
                entries=[Entry(mbr=Rect(0.1, 0.1, 0.2, 0.2), object_id=5)])
    assert decode_node(encode_node(node)).parent_id is None


def test_object_codec_roundtrip():
    record = ObjectRecord(object_id=9, mbr=Rect(0.25, 0.5, 0.75, 1.0),
                          size_bytes=12_345)
    assert decode_object(encode_object(record)) == record


def test_node_codec_rejects_garbage():
    blob = bytearray(encode_node(Node(
        node_id=1, level=0,
        entries=[Entry(mbr=Rect(0.1, 0.1, 0.2, 0.2), object_id=5)])))
    blob[24] = 99  # entry kind byte
    with pytest.raises(ValueError):
        decode_node(bytes(blob))


# --------------------------------------------------------------------------- #
# whole-tree round trips (property style over several shapes)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("count,seed,page_bytes", [
    (60, 1, 256), (250, 2, 512), (400, 3, 1024),
])
def test_tree_save_load_save_is_byte_stable(tmp_path, count, seed, page_bytes):
    tree = bulk_load_str(make_records(count, seed=seed),
                         size_model=SizeModel(page_bytes=page_bytes))
    first = tmp_path / "a.rpro"
    second = tmp_path / "b.rpro"
    save_tree(tree, str(first), meta={"seed": seed})
    loaded = load_tree(str(first), buffer_pages=4)
    assert_tree_valid(loaded)
    save_tree(loaded, str(second))
    assert _file_digest(first) == _file_digest(second)
    # And a third generation from the second file, for good measure.
    third = tmp_path / "c.rpro"
    save_tree(load_tree(str(second)), str(third))
    assert _file_digest(second) == _file_digest(third)


def test_tree_roundtrip_preserves_structure(tmp_path):
    tree = bulk_load_str(make_records(150, seed=9),
                         size_model=SizeModel(page_bytes=256))
    path = tmp_path / "t.rpro"
    save_tree(tree, str(path))
    loaded = load_tree(str(path))
    assert loaded.root_id == tree.root_id
    assert loaded.height == tree.height
    assert loaded.objects == tree.objects
    assert loaded.max_entries == tree.max_entries
    assert loaded.min_entries == tree.min_entries
    assert loaded.size_model == tree.size_model
    assert sorted(loaded.store.node_ids()) == sorted(tree.store.node_ids())
    for node_id in tree.store.node_ids():
        original = tree.store.peek(node_id)
        restored = loaded.store.peek(node_id)
        assert restored.entries == original.entries
        assert restored.level == original.level
        assert restored.parent_id == original.parent_id


def test_dynamic_tree_roundtrip(tmp_path, dynamic_tree):
    path = tmp_path / "dyn.rpro"
    save_tree(dynamic_tree, str(path))
    loaded = load_tree(str(path))
    assert_tree_valid(loaded)
    assert loaded.objects == dynamic_tree.objects


def test_header_meta_roundtrip(tmp_path):
    tree = bulk_load_str(make_records(40, seed=4),
                         size_model=SizeModel(page_bytes=256))
    path = tmp_path / "m.rpro"
    save_tree(tree, str(path), meta={"dataset": "NE", "object_count": 40})
    header = read_header(str(path))
    assert header["meta"] == {"dataset": "NE", "object_count": 40}


# --------------------------------------------------------------------------- #
# cache snapshot round trips
# --------------------------------------------------------------------------- #
def _populated_cache(seed: int, policy_name: str = "GRD3") -> ProactiveCache:
    """A cache grown through a random but deterministic insert/touch workload."""
    rng = random.Random(seed)
    cache = ProactiveCache(capacity_bytes=40_000, size_model=SizeModel(),
                           replacement_policy=make_policy(policy_name))
    node_ids = []
    for step in range(60):
        cache.tick()
        node_id = step + 1
        elements = {}
        for code in ("0", "10", "11")[:rng.randint(1, 3)]:
            x, y = rng.random() * 0.9, rng.random() * 0.9
            elements[code] = CacheEntry(
                mbr=Rect(x, y, x + 0.05, y + 0.05), code=code,
                child_id=None if rng.random() < 0.5 else 500 + step,
                object_id=None)
        parent = rng.choice(node_ids) if node_ids and rng.random() < 0.6 else None
        if cache.insert_node_snapshot(
                CachedIndexNode(node_id=node_id, level=rng.randint(0, 3),
                                elements=elements), parent):
            node_ids.append(node_id)
        if node_ids and rng.random() < 0.7:
            x, y = rng.random() * 0.9, rng.random() * 0.9
            cache.insert_object(
                CachedObject(object_id=2000 + step, mbr=Rect(x, y, x + 0.01, y + 0.01),
                             size_bytes=rng.randint(200, 4000)),
                rng.choice(node_ids))
        if rng.random() < 0.4 and cache.items:
            cache.touch(rng.choice(list(cache.items)))
    cache.validate()
    return cache


@pytest.mark.parametrize("seed,policy", [(1, "GRD3"), (2, "LRU"), (3, "FAR")])
def test_cache_snapshot_save_load_save_is_byte_stable(tmp_path, seed, policy):
    cache = _populated_cache(seed, policy)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(cache.state_dict(), str(first))
    restored = ProactiveCache.from_state_dict(load_state(str(first)),
                                              size_model=cache.size_model)
    save_state(restored.state_dict(), str(second))
    assert _file_digest(first) == _file_digest(second)


def test_cache_snapshot_restores_full_state():
    cache = _populated_cache(7)
    restored = ProactiveCache.from_state_dict(cache.state_dict(),
                                              size_model=cache.size_model)
    restored.validate()
    assert restored.clock == cache.clock
    assert restored.used_bytes == cache.used_bytes
    assert restored.index_bytes() == cache.index_bytes()
    assert restored.object_bytes() == cache.object_bytes()
    assert restored.evictions == cache.evictions
    assert restored.rejected_inserts == cache.rejected_inserts
    assert list(restored.items) == list(cache.items)
    assert restored.leaf_keys() == cache.leaf_keys()
    assert restored.replacement_policy.name == cache.replacement_policy.name
    for key, state in cache.items.items():
        twin = restored.items[key]
        assert twin.insert_time == state.insert_time
        assert twin.hit_queries == state.hit_queries
        assert twin.last_access == state.last_access
        assert twin.parent_key == state.parent_key
        assert twin.cached_children == state.cached_children
    assert restored.content_digest() == cache.content_digest()


def test_cache_digest_changes_with_state():
    cache = _populated_cache(5)
    digest = cache.content_digest()
    cache.tick()
    assert cache.content_digest() != digest


def test_state_dict_is_json_canonical():
    cache = _populated_cache(6)
    text = dumps_state(cache.state_dict())
    assert dumps_state(ProactiveCache.from_state_dict(
        cache.state_dict(), size_model=cache.size_model).state_dict()) == text
