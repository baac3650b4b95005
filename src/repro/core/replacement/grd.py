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

All three run their victim loops on per-call min-heaps instead of rescanning
every candidate per eviction.  Scores are stable within a ``make_room`` call
(the clock is frozen and no hits land mid-eviction), so the heaps only need
two kinds of maintenance: GRD3 pushes a parent when evictions promote it to
a leaf, and GRD2 re-pushes the victim's ancestors whose subtree EBRS changed
(stale heap entries are invalidated lazily).  Ties break on the item key in
every heap, which keeps the victim sequences byte-for-byte identical to the
naive scans they replace — the equivalence tests assert exactly that.  All
subtree walks (EBRS sums, protection closures, subtree evictions) are
iterative so tall snapshot chains cannot exhaust the recursion limit.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.replacement.base import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import CacheItemState, ProactiveCache


def _protected_closure(cache: "ProactiveCache", protect: Set[str]) -> FrozenSet[str]:
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


class GRD3Policy(ReplacementPolicy):
    """Definition 5.1: evict leaf items with the lowest access probability."""

    name = "GRD3"

    def score(self, state: "CacheItemState", cache: "ProactiveCache", context: dict) -> float:
        return state.access_probability(cache.clock)

    def make_room(self, cache: "ProactiveCache", bytes_needed: int,
                  context: dict, protect: Set[str]) -> bool:
        # Step (1): an item larger than the space that will remain can never
        # stay; drop such items (with their descendants) outright.
        limit = cache.capacity_bytes - bytes_needed
        closure = _protected_closure(cache, protect) if protect else frozenset()
        oversized = [state.key for state in list(cache.items.values())
                     if state.size_bytes > limit and state.key not in closure]
        for key in oversized:
            if key in cache.items:
                cache.evict_subtree(key)

        items = cache.items
        clock = cache.clock
        heap = [(state.access_probability(clock), state.key)
                for state in cache.leaf_items() if state.key not in protect]
        heapq.heapify(heap)
        removed: List["CacheItemState"] = []
        while cache.used_bytes > limit:
            if not heap:
                return False
            _, key = heapq.heappop(heap)
            state = items[key]
            removed.append(state)
            parent_key = state.parent_key
            cache.evict(key)
            if parent_key is not None and parent_key not in protect:
                parent = items.get(parent_key)
                if parent is not None and not parent.cached_children:
                    heapq.heappush(
                        heap, (parent.access_probability(clock), parent_key))

        # Step (6): if the most recently removed item alone is worth more than
        # everything that remains, keep it instead.  This correction only
        # matters when a single high-value item dominates the cache; it is
        # what preserves the 2-approximation bound.  It is applied only when
        # nothing is protected (the common batch-eviction case) and when the
        # swap is strictly beneficial.
        if removed and not protect:
            self._reinsert_dominant(cache, removed[-1], limit)
        return True

    def _reinsert_dominant(self, cache: "ProactiveCache",
                           last: "CacheItemState", limit: int) -> None:
        """The step-(6) swap: clear the cache down to ``last``'s parent chain.

        Runs on the incremental leaf set as a cascading worklist — no
        ``leaf_items()`` rebuild per eviction round — and re-admits ``last``
        through :meth:`ProactiveCache.restore_item` so the leaf set and byte
        aggregates stay consistent and the item remains reachable from its
        (never-evicted) parent.
        """
        clock = cache.clock
        remaining_benefit = sum(
            state.access_probability(clock) * state.size_bytes
            for state in cache.items.values())
        last_benefit = last.access_probability(clock) * last.size_bytes
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
