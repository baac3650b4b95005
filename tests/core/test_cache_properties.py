"""Property-style tests: random cache workloads never break the invariants.

A seeded random sequence of snapshot inserts, merges, object inserts,
touches, ticks and subtree evictions is thrown at the proactive cache under
every replacement policy; after every operation ``ProactiveCache.validate()``
must hold (byte accounting in sync, no unreachable items, parent/child links
consistent).  A dedicated test drives the GRD3 step-(6) reinsert path.
"""

import random

import pytest

from repro.core.cache import ProactiveCache
from repro.core.items import (
    CacheEntry,
    CachedIndexNode,
    CachedObject,
    item_key_for_node,
    item_key_for_object,
)
from repro.core.replacement import GRD3Policy, make_policy
from repro.geometry import Point, Rect
from repro.rtree.sizes import SizeModel

from tests.conftest import cached_node_ids


MODEL = SizeModel()
POLICIES = ("LRU", "MRU", "FAR", "GRD1", "GRD2", "GRD3")


def random_snapshot(rng, node_id, level, entry_range=(1, 6)):
    elements = {}
    for index in range(rng.randint(*entry_range)):
        code = format(index, "b").zfill(3)
        x, y = rng.random() * 0.9, rng.random() * 0.9
        mbr = Rect(x, y, x + 0.05, y + 0.05)
        if rng.random() < 0.3:
            elements[code] = CacheEntry(mbr=mbr, code=code)  # super entry
        else:
            elements[code] = CacheEntry(mbr=mbr, code=code,
                                        object_id=node_id * 1000 + index)
    return CachedIndexNode(node_id=node_id, level=level, elements=elements)


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("seed", (1, 7, 42))
def test_random_workload_preserves_invariants(policy_name, seed):
    rng = random.Random(seed)
    cache = ProactiveCache(capacity_bytes=12_000, size_model=MODEL,
                           replacement_policy=make_policy(policy_name))
    context = {"client_position": Point(0.5, 0.5)}
    node_ids = list(range(1, 25))

    for step in range(300):
        cache.tick()
        op = rng.random()
        cached_nodes = sorted(cached_node_ids(cache))
        if op < 0.35:
            # Insert or merge a node snapshot (random parent, maybe None).
            node_id = rng.choice(node_ids)
            parent = rng.choice([None] + cached_nodes) if cached_nodes else None
            if parent == node_id:
                parent = None
            level = 1 if parent is None else 0
            cache.insert_node_snapshot(random_snapshot(rng, node_id, level),
                                       parent, context)
        elif op < 0.6 and cached_nodes:
            # Insert an object under a random cached node.
            parent = rng.choice(cached_nodes)
            object_id = rng.randint(1, 400)
            size = rng.randint(100, 1500)
            x, y = rng.random(), rng.random()
            cache.insert_object(CachedObject(object_id=object_id,
                                             mbr=Rect(x, y, x, y), size_bytes=size),
                                parent, context)
        elif op < 0.8:
            # Touch a random (possibly absent) item.
            if rng.random() < 0.5 and cached_nodes:
                cache.touch(item_key_for_node(rng.choice(cached_nodes)))
            else:
                cache.touch(item_key_for_object(rng.randint(1, 400)))
        elif cache.items:
            # Evict a random subtree through the public API.
            cache.evict_subtree(rng.choice(sorted(cache.items)))
        cache.validate()
        # The documented overrun allowance is at most one merged node.
        assert cache.used_bytes <= cache.capacity_bytes + 2_048

    cache.validate()


def test_grd3_step6_reinsert_keeps_cache_valid():
    """Drive the step-(6) correction: one dominant item is swapped back in.

    Step (6) only runs when nothing is protected, i.e. when the trigger is a
    root-level snapshot insert.  The geometry below makes the hot object the
    *last* eviction victim, worth more than everything that remains, so GRD3
    must evict the rest, reinsert the hot object and reject the newcomer.
    """
    cache = ProactiveCache(capacity_bytes=10_000, size_model=MODEL,
                           replacement_policy=GRD3Policy())
    parent = CachedIndexNode(node_id=1, level=0, elements={
        "0": CacheEntry(mbr=Rect(0, 0, 0.1, 0.1), code="0", object_id=10)})
    assert cache.insert_node_snapshot(parent, None)
    # One big, frequently hit object: high access probability, high benefit.
    assert cache.insert_object(CachedObject(object_id=10, mbr=Rect(0, 0, 0.1, 0.1),
                                            size_bytes=3_000), 1)
    hot_key = item_key_for_object(10)
    for _ in range(10):
        cache.tick()
        cache.touch(hot_key)
    # A crowd of cold root-level snapshots that will be evicted first.
    for node_id in range(2, 6):
        cache.tick()
        cache.insert_node_snapshot(CachedIndexNode(node_id=node_id, level=0, elements={
            "0": CacheEntry(mbr=Rect(0.2, 0.2, 0.3, 0.3), code="0",
                            object_id=node_id * 100)}), None)
    for _ in range(25):
        cache.tick()  # let the cold snapshots' probabilities decay
    cache.validate()
    used_before = cache.used_bytes

    # A huge root-level snapshot whose insertion demands evicting the cold
    # snapshots AND the hot object — but not so much room that the hot
    # object could never come back (its size stays under the new limit).
    big = CachedIndexNode(node_id=50, level=0, elements={
        format(index, "b").zfill(9): CacheEntry(
            mbr=Rect(0.4, 0.4, 0.5, 0.5), code=format(index, "b").zfill(9),
            object_id=5_000 + index)
        for index in range(194)})
    big_size = big.size_bytes(MODEL)
    limit = cache.capacity_bytes - big_size
    assert used_before - 4 * 40 > limit          # evicting the colds is not enough
    assert 3_000 <= limit                        # the hot object fits back in

    accepted = cache.insert_node_snapshot(big, None)
    cache.validate()
    # Step (6) swapped the dominant item back in instead of the newcomer.
    assert not accepted
    assert cache.has_object(10), "step (6) must reinsert the dominant item"
    assert not cache.has_node(50)
    assert cache.has_node(1)                     # the hot object's parent survives
    assert not any(cache.has_node(node_id) for node_id in range(2, 6))
    assert cache.evictions >= 5                  # 4 cold snapshots + the hot object
    assert cache.used_bytes <= cache.capacity_bytes
