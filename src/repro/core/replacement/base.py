"""Replacement-policy interface for the constrained proactive cache."""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Set, runtime_checkable

from repro.geometry import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import CacheItemState, ProactiveCache


@dataclass(slots=True)
class EvictionContext:
    """Ambient information some policies need when scoring victims.

    ``client_position`` is required by FAR (evict the item farthest from the
    user); the other policies ignore it.
    """

    client_position: Optional[Point] = None


@runtime_checkable
class EvictableStore(Protocol):
    """The slice of a cache that GRD3 evicts from.

    :class:`~repro.core.cache.ProactiveCache` (the client's hierarchical
    cache) and :class:`~repro.sharding.result_cache.FactStore` (the router's
    flat fact store) both satisfy it structurally — neither inherits from
    it; ``tests/test_seams.py`` pins that.  Whatever
    :meth:`GRD3Policy.make_room <repro.core.replacement.grd.GRD3Policy.make_room>`
    reads or calls on its store is a member here.
    """

    items: Dict[str, "CacheItemState"]
    used_bytes: int
    capacity_bytes: int
    #: The query clock; it only moves forward, one ``tick`` per query.
    clock: int
    #: An upper bound on the largest resident item's ``size_bytes``; the
    #: store raises it, GRD3's step (1) tightens it when it scans.
    largest_item_bytes: int
    #: Keys that became leaf items since the tick began or the policy last
    #: drained the list.  One list object for the store's lifetime, emptied
    #: in place on every tick: GRD3 recognises the store by it.
    new_leaves: List[str]

    def leaf_keys(self) -> List[str]: ...

    def evict(self, key: str) -> None: ...

    def evict_subtree(self, key: str) -> List[str]: ...

    def restore_item(self, state: "CacheItemState") -> None: ...


class ReplacementPolicy(abc.ABC):
    """A policy decides which *leaf items* to evict to make room.

    Subclasses implement :meth:`score`; a lower score means "evict sooner".
    ``make_room`` evicts the lowest-scoring leaf item until the requested
    number of bytes fits (or nothing evictable remains).

    Victim selection runs on a per-call min-heap over the leaf items instead
    of rescanning the whole leaf set every round: the clock is fixed for the
    duration of a ``make_room`` call and no hits land mid-eviction, so every
    leaf's score is stable and only *new* leaves (parents whose last cached
    child was just evicted) ever enter the candidate set.  Ties break on the
    item key, which keeps the victim sequence byte-for-byte identical to the
    naive min-scan this replaces.
    """

    name = "base"

    @abc.abstractmethod
    def score(self, state: "CacheItemState", cache: "ProactiveCache",
              context: dict) -> float:
        """Eviction priority of a leaf item; lower scores are evicted first."""

    def make_room(self, cache: "ProactiveCache", bytes_needed: int,
                  context: dict, protect: Set[str]) -> bool:
        """Evict until ``bytes_needed`` additional bytes fit in the cache."""
        target = cache.capacity_bytes - bytes_needed
        if cache.used_bytes <= target:
            return True
        items = cache.items
        heap = [(self.score(state, cache, context), state.key)
                for state in cache.leaf_items() if state.key not in protect]
        heapq.heapify(heap)
        while cache.used_bytes > target:
            if not heap:
                return False
            _, key = heapq.heappop(heap)
            parent_key = items[key].parent_key
            cache.evict(key)
            if parent_key is not None and parent_key not in protect:
                parent = items.get(parent_key)
                if parent is not None and not parent.cached_children:
                    heapq.heappush(
                        heap, (self.score(parent, cache, context), parent_key))
        return True
