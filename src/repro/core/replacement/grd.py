"""The GRD family of replacement algorithms (paper Section 5).

The cache replacement problem under the "evict an item ⇒ evict its cached
descendants" constraint is a constrained 0/1 knapsack.  The paper derives:

* **GRD1** — plain greedy on ``benefit/size`` ignoring the constraint
  (the classical 2-approximation for the unconstrained problem);
* **GRD2** — greedy on *expected bitwise response-time saving*
  ``EBRS(i)`` (Equation 3), which respects the constraint;
* **GRD3** — the efficient equivalent of GRD2 (Definition 5.1): only leaf
  items are candidates and they are ranked by ``prob(i)`` alone, so no
  ``EBRS``/``SIZE`` bookkeeping is needed.  Theorem 5.5 shows GRD3 is a
  2-approximation of the constrained optimum.

GRD3 is the production policy; GRD1/GRD2 are retained for the equivalence
and approximation tests and for the ablation benchmark.

All three run their victim loops on lazy min-heaps instead of rescanning
every candidate per eviction, with ties broken on the item key, which keeps
the victim sequences byte-for-byte identical to the naive scans they replace
— the equivalence tests assert exactly that.  GRD1 and GRD2 build a heap per
``make_room`` call (GRD2 re-pushes the victim's ancestors whose subtree EBRS
changed and invalidates stale entries lazily).

GRD3's heap lives for one *tick* of one store — every insert of one query's
response shares it.  Within a tick the clock stands still and hits only land,
so ``prob(i)`` of an item can only rise: an entry scored earlier carries a
score no higher than the item's current one and surfaces no later than a
fresh entry would.  Each entry therefore carries the two integers it was
scored from (``hit_queries``, ``insert_time``); a popped entry whose stamps
no longer match its item is re-scored and pushed back, one whose item is gone
or has cached children again is dropped, and one whose stamps match is the
true minimum.  Hits need no notification; the only thing the store announces
is an item that *became* a leaf (admitted, restored, or promoted when its
last cached child went), through :attr:`EvictableStore.new_leaves`.  The
heap is keyed on the store's identity (that of its ``new_leaves`` list) and
its clock: a warm restart hands the old policy object to a rebuilt cache.

All subtree walks (EBRS sums, protection closures, subtree evictions) are
iterative so tall snapshot chains cannot exhaust the recursion limit.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.replacement.base import EvictableStore, ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import CacheItemState, ProactiveCache


def _protected_closure(cache: EvictableStore, protect: Set[str]) -> FrozenSet[str]:
    """Keys whose removal would (transitively) remove a protected item.

    An item's subtree contains a protected key exactly when the item is that
    key or one of its ancestors, so the closure is the union of the
    ancestor-or-self chains of every protected key — an O(depth) walk per
    key instead of an O(subtree) scan per candidate.
    """
    closure: Set[str] = set()
    items = cache.items
    for key in protect:
        current = key
        while current is not None and current not in closure:
            closure.add(current)
            state = items.get(current)
            if state is None:
                break
            current = state.parent_key
    return frozenset(closure)


def _subtree_sums(cache: "ProactiveCache", clock: int,
                  root_key: Optional[str] = None) -> Dict[str, Tuple[float, int]]:
    """``{key: (benefit, size)}`` subtree aggregates, computed iteratively.

    ``benefit`` is ``Σ prob(i) · size(i)`` and ``size`` is ``Σ size(i)`` over
    the item and all cached descendants (the EBRS numerator/denominator of
    Equation 3).  With ``root_key`` the walk is limited to that subtree;
    otherwise every cached item is covered.
    """
    items = cache.items
    sums: Dict[str, Tuple[float, int]] = {}
    roots = [root_key] if root_key is not None else list(items)
    for root in roots:
        if root in sums or root not in items:
            continue
        stack = [root]
        while stack:
            key = stack[-1]
            if key in sums:
                stack.pop()
                continue
            state = items[key]
            pending = [child for child in state.cached_children
                       if child not in sums and child in items]
            if pending:
                stack.extend(pending)
                continue
            benefit = state.access_probability(clock) * state.size_bytes
            size = state.size_bytes
            for child_key in state.cached_children:
                child_sums = sums.get(child_key)
                if child_sums is None:
                    continue
                benefit += child_sums[0]
                size += child_sums[1]
            sums[key] = (benefit, size)
            stack.pop()
    return sums


#: One victim-heap entry: ``(prob, key, hit_queries, insert_time)``.  The two
#: integer stamps are what ``prob`` was computed from, so an entry is current
#: exactly when they still equal the item's.
_HeapEntry = Tuple[float, str, int, int]


class GRD3Policy(ReplacementPolicy):
    """Definition 5.1: evict leaf items with the lowest access probability."""

    name = "GRD3"

    def __init__(self) -> None:
        # The victim heap of one tick of one store (see the module docstring).
        # The store is remembered by its ``new_leaves`` list, not by itself:
        # it owns this policy, and a reference back would leave every
        # dropped cache to the cycle collector.
        self._heap: List[_HeapEntry] = []
        self._heap_leaves: Optional[List[str]] = None
        self._heap_clock = -1

    def score(self, state: "CacheItemState", cache: "ProactiveCache", context: dict) -> float:
        return state.access_probability(cache.clock)

    def make_room(self, cache: EvictableStore, bytes_needed: int,
                  context: dict, protect: Set[str]) -> bool:
        # Step (1): an item larger than the space that will remain can never
        # stay; drop such items (with their descendants) outright.  Only a
        # store that may hold one is scanned.
        limit = cache.capacity_bytes - bytes_needed
        items = cache.items
        if cache.largest_item_bytes > limit:
            closure = _protected_closure(cache, protect) if protect else frozenset()
            oversized: List[str] = []
            largest = 0
            for state in items.values():
                if state.size_bytes > limit and state.key not in closure:
                    oversized.append(state.key)
                elif state.size_bytes > largest:
                    largest = state.size_bytes
            for key in oversized:
                if key in items:
                    cache.evict_subtree(key)
            cache.largest_item_bytes = largest

        clock = cache.clock
        new_leaves = cache.new_leaves
        heap = self._heap
        if new_leaves is not self._heap_leaves or clock != self._heap_clock:
            heap = []
            for key in cache.leaf_keys():
                state = items[key]
                hits, born = state.hit_queries, state.insert_time
                heap.append((hits / max(1, clock - born + 1), key, hits, born))
            heapq.heapify(heap)
            self._heap, self._heap_leaves, self._heap_clock = heap, new_leaves, clock
            new_leaves.clear()

        last: Optional["CacheItemState"] = None
        held: List[_HeapEntry] = []
        fits = True
        while cache.used_bytes > limit:
            while new_leaves:
                key = new_leaves.pop()
                state = items.get(key)
                if state is not None and not state.cached_children:
                    hits, born = state.hit_queries, state.insert_time
                    heapq.heappush(
                        heap, (hits / max(1, clock - born + 1), key, hits, born))
            if not heap:
                fits = False
                break
            entry = heapq.heappop(heap)
            key = entry[1]
            state = items.get(key)
            if state is None or state.cached_children:
                continue
            if entry[2] != state.hit_queries or entry[3] != state.insert_time:
                # Hit (or evicted and re-admitted) since it was scored: its
                # score only rose, so it surfaced no later than it should.
                # Score it again like a new leaf.
                new_leaves.append(key)
            elif key in protect:
                held.append(entry)
            else:
                last = state
                cache.evict(key)
        for entry in held:
            heapq.heappush(heap, entry)
        if not fits:
            return False

        # Step (6): if the most recently removed item alone is worth more than
        # everything that remains, keep it instead.  This correction only
        # matters when a single high-value item dominates the cache; it is
        # what preserves the 2-approximation bound.  It is applied only when
        # nothing is protected (the common batch-eviction case) and when the
        # swap is strictly beneficial.
        if last is not None and not protect:
            self._reinsert_dominant(cache, last, limit)
        return True

    def _reinsert_dominant(self, cache: EvictableStore,
                           last: "CacheItemState", limit: int) -> None:
        """The step-(6) swap: clear the cache down to ``last``'s parent chain.

        Runs on the incremental leaf set as a cascading worklist — no
        ``leaf_items()`` rebuild per eviction round — and re-admits ``last``
        through ``restore_item`` so the leaf set and byte aggregates stay
        consistent and the item remains reachable from its (never-evicted)
        parent.
        """
        clock = cache.clock
        remaining_benefit = sum(
            state.hit_queries / max(1, clock - state.insert_time + 1) * state.size_bytes
            for state in cache.items.values())
        last_benefit = (last.hit_queries / max(1, clock - last.insert_time + 1)
                        * last.size_bytes)
        parent_key = last.parent_key
        can_reinsert = parent_key is None or parent_key in cache.items
        if not (last_benefit > remaining_benefit
                and last.size_bytes <= limit and can_reinsert):
            return
        items = cache.items
        worklist = [key for key in cache.leaf_keys() if key != parent_key]
        while worklist:
            key = worklist.pop()
            state = items.get(key)
            if state is None or state.cached_children:
                continue
            grandparent_key = state.parent_key
            cache.evict(key)
            if grandparent_key is not None and grandparent_key != parent_key:
                grandparent = items.get(grandparent_key)
                if grandparent is not None and not grandparent.cached_children:
                    worklist.append(grandparent_key)
        if parent_key is None or parent_key in cache.items:
            cache.restore_item(last)


class GRD2Policy(ReplacementPolicy):
    """EBRS-based greedy (kept for the GRD2 ≡ GRD3 equivalence experiments)."""

    name = "GRD2"

    def score(self, state: "CacheItemState", cache: "ProactiveCache", context: dict) -> float:
        return self.ebrs(state, cache)

    def ebrs(self, state: "CacheItemState", cache: "ProactiveCache") -> float:
        """Expected bitwise response-time saving of the item (Equation 3)."""
        benefit, size = self._benefit_and_size(state, cache)
        return benefit / size if size else 0.0

    def _benefit_and_size(self, state: "CacheItemState",
                          cache: "ProactiveCache") -> Tuple[float, int]:
        sums = _subtree_sums(cache, cache.clock, root_key=state.key)
        return sums.get(state.key, (0.0, 0))

    def make_room(self, cache: "ProactiveCache", bytes_needed: int,
                  context: dict, protect: Set[str]) -> bool:
        limit = cache.capacity_bytes - bytes_needed
        if bytes_needed > cache.capacity_bytes:
            return False
        if cache.used_bytes <= limit:
            return True
        closure = _protected_closure(cache, protect) if protect else frozenset()
        items = cache.items
        clock = cache.clock
        sums = _subtree_sums(cache, clock)

        def entry_for(state: "CacheItemState") -> Tuple[float, bool, str]:
            benefit, size = sums[state.key]
            # Ties between an item and its own ancestors (Lemma 5.4 allows
            # equality) are broken in favour of the leaf, which keeps GRD2's
            # victim sequence identical to GRD3's.
            return (benefit / size if size else 0.0,
                    not state.is_leaf_item, state.key)

        valid: Dict[str, Tuple[float, bool, str]] = {}
        heap: List[Tuple[float, bool, str]] = []
        for key, state in items.items():
            if key in closure:
                continue
            entry = entry_for(state)
            valid[key] = entry
            heap.append(entry)
        heapq.heapify(heap)

        while cache.used_bytes > limit:
            if not heap:
                return False
            entry = heapq.heappop(heap)
            key = entry[2]
            state = items.get(key)
            if state is None or valid.get(key) != entry:
                # Stale: the item went down with an earlier victim's subtree,
                # or an ancestor rescore superseded this heap entry.
                continue
            ancestors: List[str] = []
            current = state.parent_key
            while current is not None:
                ancestors.append(current)
                current = items[current].parent_key
            cache.evict_subtree(key)
            # Evicting the subtree changed the EBRS of every ancestor (and
            # may have promoted the direct parent to a leaf): rescore them
            # bottom-up from the memoised child sums.
            for ancestor_key in ancestors:
                ancestor = items.get(ancestor_key)
                if ancestor is None:  # pragma: no cover - ancestors survive
                    break
                benefit = ancestor.access_probability(clock) * ancestor.size_bytes
                size = ancestor.size_bytes
                for child_key in ancestor.cached_children:
                    child_benefit, child_size = sums[child_key]
                    benefit += child_benefit
                    size += child_size
                sums[ancestor_key] = (benefit, size)
                if ancestor_key not in closure:
                    fresh = (benefit / size if size else 0.0,
                             not ancestor.is_leaf_item, ancestor_key)
                    valid[ancestor_key] = fresh
                    heapq.heappush(heap, fresh)
        return True


class GRD1Policy(ReplacementPolicy):
    """Unconstrained benefit/size greedy (baseline for the approximation study).

    It ranks every item by ``prob * size / size = prob`` and evicts the worst,
    but — unlike GRD2/GRD3 — it does not account for descendants, so when it
    picks a non-leaf item the descendants are removed as a side effect of the
    structural constraint (they would be unreachable otherwise).
    """

    name = "GRD1"

    def score(self, state: "CacheItemState", cache: "ProactiveCache", context: dict) -> float:
        return state.access_probability(cache.clock)

    def make_room(self, cache: "ProactiveCache", bytes_needed: int,
                  context: dict, protect: Set[str]) -> bool:
        limit = cache.capacity_bytes - bytes_needed
        if bytes_needed > cache.capacity_bytes:
            return False
        closure = _protected_closure(cache, protect) if protect else frozenset()
        items = cache.items
        clock = cache.clock
        heap = [(state.access_probability(clock), key)
                for key, state in items.items() if key not in closure]
        heapq.heapify(heap)
        while cache.used_bytes > limit:
            if not heap:
                return False
            _, key = heapq.heappop(heap)
            if key not in items:
                # Already gone: it sat inside an earlier victim's subtree.
                continue
            cache.evict_subtree(key)
        return True
