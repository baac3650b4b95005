"""Heap-based victim selection must be byte-for-byte identical to the scans.

PR 2 replaced the per-eviction ``leaf_items()`` + ``min()`` rescans in every
replacement policy with per-call lazy min-heaps.  These tests pin the
optimisation to the seed behaviour: reference implementations of the naive
scans (ported verbatim from the seed ``make_room`` bodies, modulo the
``restore_item`` accessor for GRD3's step (6)) replay the *same* random
workload on a second cache, and the full eviction sequences — order
included — must match exactly, for all six policies across multiple seeds.

PR 19 stretched GRD3's heap from one ``make_room`` call to one *tick* of one
store, so the second half of this file replays whole ticks — several
``make_room`` calls at one clock with hits, merges, refreshes, protected
parents, a call that fails and a warm restart in between — on the client's
``ProactiveCache`` and on the router's ``FactStore``, against the same naive
per-call scan.
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
from repro.core.replacement import (
    FARPolicy,
    GRD1Policy,
    GRD2Policy,
    GRD3Policy,
    LRUPolicy,
    MRUPolicy,
)
from repro.geometry import Point, Rect
from repro.rtree.sizes import SizeModel
from repro.sharding.result_cache import FactStore, GlobalFact, HitSetFact

from tests.conftest import cached_node_ids


MODEL = SizeModel()


# --------------------------------------------------------------------- #
# reference (seed) implementations: naive scans, recursion and all
# --------------------------------------------------------------------- #
def _subtree_contains(cache, state, protect):
    if state.key in protect:
        return True
    for child_key in state.cached_children:
        child = cache.items.get(child_key)
        if child is not None and _subtree_contains(cache, child, protect):
            return True
    return False


class _NaiveScanMixin:
    """The seed base-class ``make_room``: rescan all leaves every round."""

    def make_room(self, cache, bytes_needed, context, protect):
        target = cache.capacity_bytes - bytes_needed
        while cache.used_bytes > target:
            candidates = [state for state in cache.leaf_items()
                          if state.key not in protect]
            if not candidates:
                return False
            victim = min(candidates, key=lambda s: (self.score(s, cache, context), s.key))
            cache.evict(victim.key)
        return True


class NaiveLRU(_NaiveScanMixin, LRUPolicy):
    pass


class NaiveMRU(_NaiveScanMixin, MRUPolicy):
    pass


class NaiveFAR(_NaiveScanMixin, FARPolicy):
    pass


def _leaf_items(cache):
    """``leaf_items()`` spelled through the protocol (``FactStore`` has only the keys)."""
    return [cache.items[key] for key in cache.leaf_keys()]


class NaiveGRD3(GRD3Policy):
    """The seed GRD3 ``make_room``: leaf rescans and the step-(6) loop."""

    def make_room(self, cache, bytes_needed, context, protect):
        limit = cache.capacity_bytes - bytes_needed
        oversized = [state.key for state in list(cache.items.values())
                     if state.size_bytes > limit
                     and not _subtree_contains(cache, state, protect)]
        for key in oversized:
            if key in cache.items:
                cache.evict_subtree(key)

        removed = []
        while cache.used_bytes > limit:
            candidates = [state for state in _leaf_items(cache) if state.key not in protect]
            if not candidates:
                return False
            victim = min(candidates,
                         key=lambda s: (s.access_probability(cache.clock), s.key))
            removed.append(victim)
            cache.evict(victim.key)

        if removed and not protect:
            last = removed[-1]
            remaining_benefit = sum(
                state.access_probability(cache.clock) * state.size_bytes
                for state in cache.items.values())
            last_benefit = last.access_probability(cache.clock) * last.size_bytes
            can_reinsert = (last.parent_key is None or last.parent_key in cache.items)
            if last_benefit > remaining_benefit and last.size_bytes <= limit and can_reinsert:
                while True:
                    evictable = [state for state in _leaf_items(cache)
                                 if state.key != last.parent_key]
                    if not evictable:
                        break
                    for state in evictable:
                        cache.evict(state.key)
                if last.parent_key is None or last.parent_key in cache.items:
                    cache.restore_item(last)
        return True


class NaiveGRD2(GRD2Policy):
    """The seed GRD2: recursive EBRS recomputed for every candidate, every round."""

    def _naive_benefit_and_size(self, state, cache):
        prob = state.access_probability(cache.clock)
        benefit = prob * state.size_bytes
        size = state.size_bytes
        for child_key in state.cached_children:
            child = cache.items.get(child_key)
            if child is None:
                continue
            child_benefit, child_size = self._naive_benefit_and_size(child, cache)
            benefit += child_benefit
            size += child_size
        return benefit, size

    def _naive_ebrs(self, state, cache):
        benefit, size = self._naive_benefit_and_size(state, cache)
        return benefit / size if size else 0.0

    def make_room(self, cache, bytes_needed, context, protect):
        limit = cache.capacity_bytes - bytes_needed
        if bytes_needed > cache.capacity_bytes:
            return False
        while cache.used_bytes > limit:
            candidates = [state for state in cache.items.values()
                          if state.key not in protect
                          and not _subtree_contains(cache, state, protect)]
            if not candidates:
                return False
            victim = min(candidates,
                         key=lambda s: (self._naive_ebrs(s, cache), not s.is_leaf_item, s.key))
            cache.evict_subtree(victim.key)
        return True


class NaiveGRD1(GRD1Policy):
    """The seed GRD1: full rescan of every item per eviction round."""

    def make_room(self, cache, bytes_needed, context, protect):
        limit = cache.capacity_bytes - bytes_needed
        if bytes_needed > cache.capacity_bytes:
            return False
        while cache.used_bytes > limit:
            candidates = [state for state in cache.items.values()
                          if not _subtree_contains(cache, state, protect)]
            if not candidates:
                return False
            victim = min(candidates,
                         key=lambda s: (s.access_probability(cache.clock), s.key))
            if victim.key in cache.items:
                cache.evict_subtree(victim.key)
        return True


PAIRS = {
    "LRU": (NaiveLRU, LRUPolicy),
    "MRU": (NaiveMRU, MRUPolicy),
    "FAR": (NaiveFAR, FARPolicy),
    "GRD1": (NaiveGRD1, GRD1Policy),
    "GRD2": (NaiveGRD2, GRD2Policy),
    "GRD3": (NaiveGRD3, GRD3Policy),
}


class RecordingCache(ProactiveCache):
    """A cache that logs every eviction in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evict_log = []

    def evict(self, key):
        self.evict_log.append(key)
        super().evict(key)


def generate_ops(seed, steps=300):
    """A deterministic random op sequence, decoupled from cache state.

    Every op is pre-generated so the exact same sequence can be replayed
    against two caches whose internal decisions we want to compare.
    """
    rng = random.Random(seed)
    ops = []
    node_ids = list(range(1, 25))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40:
            node_id = rng.choice(node_ids)
            parent_choice = rng.randrange(0, 26)  # index into candidate list
            elements = {}
            for index in range(rng.randint(1, 6)):
                code = format(index, "b").zfill(3)
                x, y = rng.random() * 0.9, rng.random() * 0.9
                if rng.random() < 0.3:
                    elements[code] = CacheEntry(mbr=Rect(x, y, x + 0.05, y + 0.05),
                                                code=code)
                else:
                    elements[code] = CacheEntry(mbr=Rect(x, y, x + 0.05, y + 0.05),
                                                code=code,
                                                object_id=node_id * 1000 + index)
            ops.append(("node", node_id, parent_choice, elements))
        elif roll < 0.70:
            x, y = rng.random(), rng.random()
            ops.append(("object", rng.randint(1, 400), rng.randrange(0, 26),
                        rng.randint(100, 1500), Rect(x, y, x, y)))
        else:
            ops.append(("touch", rng.random() < 0.5, rng.randint(0, 10 ** 6)))
    return ops


def apply_op(cache, op, context):
    """Apply one op at the current clock; parent picks resolve against current state."""
    cached_nodes = sorted(cached_node_ids(cache))
    if op[0] == "node":
        _, node_id, parent_choice, elements = op
        candidates = [None] + cached_nodes
        parent = candidates[parent_choice % len(candidates)]
        if parent == node_id:
            parent = None
        level = 1 if parent is None else 0
        snapshot = CachedIndexNode(node_id=node_id, level=level,
                                   elements=dict(elements))
        cache.insert_node_snapshot(snapshot, parent, context)
    elif op[0] == "object":
        _, object_id, parent_choice, size, mbr = op
        if not cached_nodes:
            return
        parent = cached_nodes[parent_choice % len(cached_nodes)]
        cache.insert_object(CachedObject(object_id=object_id, mbr=mbr,
                                         size_bytes=size), parent, context)
    else:
        _, touch_node, raw = op
        if touch_node and cached_nodes:
            cache.touch(item_key_for_node(cached_nodes[raw % len(cached_nodes)]))
        else:
            cache.touch(item_key_for_object(raw % 400 + 1))


def apply_ops(cache, ops):
    """Replay an op sequence, one op per tick."""
    context = {"client_position": Point(0.5, 0.5)}
    for op in ops:
        cache.tick()
        apply_op(cache, op, context)
    return cache


@pytest.mark.parametrize("policy_name", sorted(PAIRS))
@pytest.mark.parametrize("seed", (3, 11, 42, 97))
def test_heap_victim_sequence_identical_to_naive_scan(policy_name, seed):
    naive_cls, current_cls = PAIRS[policy_name]
    ops = generate_ops(seed)
    naive = RecordingCache(capacity_bytes=11_000, size_model=MODEL,
                           replacement_policy=naive_cls())
    current = RecordingCache(capacity_bytes=11_000, size_model=MODEL,
                             replacement_policy=current_cls())
    apply_ops(naive, ops)
    apply_ops(current, ops)

    assert current.evict_log == naive.evict_log, (
        f"{policy_name}: heap-based eviction sequence diverged from naive scan")
    assert set(current.items) == set(naive.items)
    assert current.used_bytes == naive.used_bytes
    assert current.evictions == naive.evictions
    assert current.rejected_inserts == naive.rejected_inserts
    current.validate()
    naive.validate()


@pytest.mark.parametrize("seed", range(4))
def test_explicit_make_room_identical(seed):
    """Direct make_room calls (not via inserts) agree too, per policy."""
    for policy_name, (naive_cls, current_cls) in sorted(PAIRS.items()):
        ops = generate_ops(seed * 31 + 7, steps=120)
        naive = RecordingCache(capacity_bytes=60_000, size_model=MODEL,
                               replacement_policy=naive_cls())
        current = RecordingCache(capacity_bytes=60_000, size_model=MODEL,
                                 replacement_policy=current_cls())
        apply_ops(naive, ops)
        apply_ops(current, ops)
        assert set(naive.items) == set(current.items)

        context = {"client_position": Point(0.1, 0.9)}
        freed_naive = naive.replacement_policy.make_room(
            naive, naive.capacity_bytes - naive.used_bytes + 9_000, context, set())
        freed_current = current.replacement_policy.make_room(
            current, current.capacity_bytes - current.used_bytes + 9_000, context, set())
        assert freed_naive == freed_current
        assert naive.evict_log == current.evict_log, policy_name
        assert set(naive.items) == set(current.items)


# --------------------------------------------------------------------- #
# GRD3's heap lives for a tick: whole ticks against the per-call scan
# --------------------------------------------------------------------- #
def generate_ticks(seed, ticks=40):
    """Per tick a list of ops, all applied at one clock value."""
    rng = random.Random(seed)
    script = []
    for _ in range(ticks):
        ops = []
        for op in generate_ops(rng.randrange(10 ** 9), steps=rng.randint(3, 12)):
            ops.append(op)
            roll = rng.random()
            if roll < 0.15:
                ops.append(("refresh", rng.randint(0, 10 ** 6), rng.randint(50, 900)))
            elif roll < 0.22:
                ops.append(("starve", rng.randint(0, 10 ** 6), rng.randint(500, 6_000)))
            elif roll < 0.27:
                ops.append(("restore",))
        script.append(ops)
    return script


def apply_ticks(cache, script):
    """Replay ``script``; returns the cache (a warm restart replaces it)."""
    context = {"client_position": Point(0.5, 0.5)}
    failed_calls = 0
    for ops in script:
        cache.tick()
        for op in ops:
            keys = sorted(cache.items)
            if op[0] in ("node", "object", "touch"):
                apply_op(cache, op, context)
            elif op[0] == "refresh" and keys:
                # A bigger payload of the same kind: make_room(protect={key}).
                state = cache.items[keys[op[1] % len(keys)]]
                if isinstance(state.payload, CachedObject):
                    payload = CachedObject(state.payload.object_id, state.payload.mbr,
                                           state.size_bytes + op[2])
                    size = payload.size_bytes
                else:
                    payload = state.payload.copy()
                    for index in range(1 + op[2] // 100):
                        code = "1" + format(index, "b").zfill(4)
                        payload.elements[code] = CacheEntry(mbr=Rect(0, 0, 0.1, 0.1), code=code)
                    size = payload.size_bytes(MODEL)
                cache.refresh_item(state.key, payload, size, context)
            elif op[0] == "starve":
                # Nearly every leaf protected (parents among them once their
                # children go): the call evicts the few it may, then fails.
                leaves = cache.leaf_keys()
                spared = {leaves[(op[1] + step) % len(leaves)] for step in range(2)} \
                    if leaves else set()
                freed = cache.replacement_policy.make_room(
                    cache, cache.capacity_bytes - cache.used_bytes + op[2], context,
                    set(leaves) - spared)
                failed_calls += not freed
            elif op[0] == "restore":
                # What ProactiveSession.restore_state does: a rebuilt cache
                # object, the *old* policy object, the same clock.
                log = cache.evict_log
                cache = RecordingCache.from_state_dict(
                    cache.state_dict(), size_model=MODEL,
                    replacement_policy=cache.replacement_policy)
                cache.evict_log = log
    return cache, failed_calls


@pytest.mark.parametrize("seed", (5, 23, 71, 113, 2024))
def test_grd3_tick_heap_identical_to_per_call_scan(seed):
    script = generate_ticks(seed)
    naive, naive_failed = apply_ticks(
        RecordingCache(capacity_bytes=11_000, size_model=MODEL,
                       replacement_policy=NaiveGRD3()), script)
    current, current_failed = apply_ticks(
        RecordingCache(capacity_bytes=11_000, size_model=MODEL,
                       replacement_policy=GRD3Policy()), script)

    assert current.evict_log == naive.evict_log
    assert len(current.evict_log) > 100, "the script must evict many times per tick"
    assert current_failed == naive_failed
    assert current_failed, "the script must contain failing calls"
    assert current.rejected_inserts == naive.rejected_inserts
    assert current.content_digest() == naive.content_digest()
    current.validate()
    naive.validate()


def test_one_policy_object_serving_two_caches_at_the_same_clock():
    """The heap is keyed on the store as well as the clock: two caches that
    share a policy object and tick in step must not see each other's heap."""
    context = {"client_position": Point(0.5, 0.5)}

    def interleaved(policy):
        caches = [RecordingCache(capacity_bytes=9_000, size_model=MODEL,
                                 replacement_policy=policy) for _ in range(2)]
        scripts = [generate_ops(seed, steps=400) for seed in (17, 18)]
        for step in range(0, 400, 4):
            for cache in caches:
                cache.tick()
            for offset in range(4):
                for cache, ops in zip(caches, scripts):
                    apply_op(cache, ops[step + offset], context)
        return caches

    for naive, current in zip(interleaved(NaiveGRD3()), interleaved(GRD3Policy())):
        assert current.evict_log == naive.evict_log
        assert len(current.evict_log) > 100
        assert current.content_digest() == naive.content_digest()


class RecordingStore(FactStore):
    """A fact store that logs every eviction in order."""

    def __init__(self, capacity_bytes, policy):
        super().__init__(capacity_bytes)
        self._policy = policy
        self.evict_log = []

    def evict(self, key):
        self.evict_log.append(key)
        super().evict(key)


def apply_fact_ticks(store, seed, ticks=60):
    """Seeded router-cache traffic: per tick several lookups (hits), admits,
    grown facts (``resize`` protects the fact it grew) and a starved call."""
    rng = random.Random(seed)
    failed_calls = 0
    for _ in range(ticks):
        store.tick()
        for _ in range(rng.randint(2, 10)):
            key = f"w:{rng.randrange(40)}"
            state = store.lookup(key)
            roll = rng.random()
            if state is None:
                fact = GlobalFact(value=1, stamp=0) if roll < 0.3 \
                    else HitSetFact(rect=Rect(0.0, 0.0, 1.0, 1.0))
                store.admit(key, fact)
            elif roll < 0.5 and isinstance(state.payload, HitSetFact):
                state.payload.shards[len(state.payload.shards)] = (True, 0)
                store.resize(state, state.payload.size_bytes)
            elif roll < 0.6:
                keys = store.leaf_keys()
                freed = store._policy.make_room(
                    store, store.capacity_bytes - store.used_bytes + rng.randint(60, 400),
                    {}, set(keys) - {keys[rng.randrange(len(keys))]})
                failed_calls += not freed
    return failed_calls


@pytest.mark.parametrize("seed", (1, 8, 64))
def test_grd3_tick_heap_on_the_fact_store(seed):
    naive = RecordingStore(1_200, NaiveGRD3())
    current = RecordingStore(1_200, GRD3Policy())
    naive_failed = apply_fact_ticks(naive, seed)
    current_failed = apply_fact_ticks(current, seed)

    assert current.evict_log == naive.evict_log
    assert len(current.evict_log) > 60
    assert current_failed == naive_failed and current_failed
    assert list(current.items) == list(naive.items)
    assert [(s.hit_queries, s.insert_time, s.size_bytes) for s in current.items.values()] \
        == [(s.hit_queries, s.insert_time, s.size_bytes) for s in naive.items.values()]
    assert (current.used_bytes, current.evictions) == (naive.used_bytes, naive.evictions)
