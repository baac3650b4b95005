"""The proactive cache: items, metadata and constrained eviction.

The cache holds two kinds of items — index-node snapshots and data objects —
organised in the same hierarchy as the R-tree itself: a node snapshot's
parent item is the snapshot of its R-tree parent, and a cached object's
parent is the leaf-node snapshot that owns it.  Section 5's constraint
("if item *i* is removed, all its descendants must be removed") is enforced
structurally: only *leaf items* (items with no cached children) can be chosen
as victims, and cascading bookkeeping keeps the leaf set correct.

Per-item metadata matches Section 5.2: size, insertion time (query sequence
number), hit-query count, parent id and number of cached children.

All aggregate views the replacement policies and the session sit in hot
loops on — the leaf set, ``used_bytes``, the index/object byte split, the set
of cached object ids and an upper bound on the largest resident item — are
maintained incrementally on every insert/evict instead of being recomputed by
scanning ``items``, and ``evict_subtree`` walks an explicit stack so
arbitrarily deep snapshot chains cannot exhaust the interpreter's recursion
limit.  The cache also announces every item that *becomes* a leaf during the
current tick in ``new_leaves``; that is all GRD3 needs to keep one victim
heap per tick (see :mod:`repro.core.replacement.grd`) — hits are not
announced, so the query walk may record them on the item states directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.core.items import (
    CachedIndexNode,
    CachedObject,
    CacheEntry,
    item_key_for_node,
    item_key_for_object,
)
from repro.obs import instrument as obs
from repro.rtree.sizes import SizeModel


Payload = Union[CachedIndexNode, CachedObject]


@dataclass(slots=True)
class CacheItemState:
    """A cached item plus the metadata needed by the replacement policies."""

    key: str
    payload: Payload
    size_bytes: int
    insert_time: int
    parent_key: Optional[str]
    # The query that caused the insertion counts as the first hit, so a fresh
    # item starts with prob = 1 and decays if it is never used again.
    hit_queries: int = 1
    last_access: int = 0
    cached_children: Set[str] = field(default_factory=set)

    @property
    def is_leaf_item(self) -> bool:
        """True when no cached item depends on this one (evictable)."""
        return not self.cached_children

    @property
    def is_index_item(self) -> bool:
        """True for index-node snapshots, False for data objects."""
        return isinstance(self.payload, CachedIndexNode)

    def access_probability(self, current_time: int) -> float:
        """``prob(i)`` of Section 5.2: hits per query the item has lived through."""
        lifetime = max(1, current_time - self.insert_time + 1)
        return self.hit_queries / lifetime


class ProactiveCache:
    """Byte-budgeted client cache of index snapshots and objects.

    Parameters
    ----------
    capacity_bytes:
        Total cache budget ``M``.
    size_model:
        Byte accounting shared with the rest of the system.
    replacement_policy:
        A policy from :mod:`repro.core.replacement`; may be ``None`` for an
        unbounded cache (useful in unit tests).
    """

    def __init__(self, capacity_bytes: int, size_model: Optional[SizeModel] = None,
                 replacement_policy: Optional["ReplacementPolicy"] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.size_model = size_model or SizeModel()
        self.replacement_policy = replacement_policy
        self.items: Dict[str, CacheItemState] = {}
        self.used_bytes = 0
        self.clock = 0
        self.evictions = 0
        self.rejected_inserts = 0
        # Consistency-protocol counters (repro.updates): items dropped
        # because the server-side original changed / expired, and payloads
        # refreshed in place.  Deliberately NOT part of state_dict(), so a
        # zero-update run's digest is byte-identical to a static run's.
        self.invalidations = 0
        self.refreshes = 0
        # Incremental aggregates: the set of evictable (childless) items as an
        # insertion-ordered dict-backed set, plus the index/object byte split.
        self._leaf_keys: Dict[str, None] = {}
        self._index_bytes = 0
        self._object_bytes = 0
        self._object_ids: Set[int] = set()
        #: An upper bound on the size of the largest resident item: raised
        #: whenever an item is admitted or grows, never lowered by an
        #: eviction (GRD3's step (1) tightens it when it scans anyway).
        self.largest_item_bytes = 0
        #: Keys that became leaf items since the tick began or the policy
        #: last drained the list (admitted, restored, or promoted when their
        #: last cached child went).
        self.new_leaves: List[str] = []

    # ------------------------------------------------------------------ #
    # clock / bookkeeping
    # ------------------------------------------------------------------ #
    def tick(self) -> int:
        """Advance the query clock (call once per issued query)."""
        self.clock += 1
        self.new_leaves.clear()
        return self.clock

    def touch(self, key: str, hits: int = 1) -> None:
        """Record that the item contributed ``hits`` times to the current query."""
        state = self.items.get(key)
        if state is None:
            return
        state.hit_queries += hits
        state.last_access = self.clock

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def get_node(self, node_id: int) -> Optional[CachedIndexNode]:
        """The cached snapshot of node ``node_id`` if present."""
        state = self.items.get(item_key_for_node(node_id))
        if state is None:
            return None
        return state.payload  # type: ignore[return-value]

    def get_object(self, object_id: int) -> Optional[CachedObject]:
        """The cached object ``object_id`` if present."""
        state = self.items.get(item_key_for_object(object_id))
        if state is None:
            return None
        return state.payload  # type: ignore[return-value]

    def has_node(self, node_id: int) -> bool:
        """True when a snapshot of the node is cached."""
        return item_key_for_node(node_id) in self.items

    def has_object(self, object_id: int) -> bool:
        """True when the object is cached."""
        return item_key_for_object(object_id) in self.items

    def cached_object_ids(self) -> Set[int]:
        """Ids of all cached objects (a copy; maintained incrementally)."""
        return self._object_ids.copy()

    def cached_node_ids(self) -> Set[int]:
        """Ids of all cached node snapshots."""
        return {state.payload.node_id for state in self.items.values()
                if state.is_index_item}

    def leaf_keys(self) -> List[str]:
        """Keys of all currently evictable items (maintained incrementally)."""
        return list(self._leaf_keys)

    def leaf_items(self) -> List[CacheItemState]:
        """All currently evictable items."""
        items = self.items
        return [items[key] for key in self._leaf_keys]

    def index_bytes(self) -> int:
        """Bytes occupied by index snapshots."""
        return self._index_bytes

    def object_bytes(self) -> int:
        """Bytes occupied by data objects."""
        return self._object_bytes

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, key: str) -> bool:
        return key in self.items

    # ------------------------------------------------------------------ #
    # internal bookkeeping helpers
    # ------------------------------------------------------------------ #
    def _register(self, state: CacheItemState) -> None:
        """Add ``state`` to items, aggregates and the parent/leaf structure."""
        self.items[state.key] = state
        self.used_bytes += state.size_bytes
        payload = state.payload
        if isinstance(payload, CachedIndexNode):
            self._index_bytes += state.size_bytes
        else:
            self._object_bytes += state.size_bytes
            self._object_ids.add(payload.object_id)
        if state.size_bytes > self.largest_item_bytes:
            self.largest_item_bytes = state.size_bytes
        self._leaf_keys[state.key] = None
        self.new_leaves.append(state.key)
        if state.parent_key is not None:
            parent = self.items[state.parent_key]
            parent.cached_children.add(state.key)
            self._leaf_keys.pop(state.parent_key, None)

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert_node_snapshot(self, snapshot: CachedIndexNode,
                             parent_node_id: Optional[int],
                             context: Optional[dict] = None) -> bool:
        """Insert (or merge) an index-node snapshot.

        Returns False when the snapshot had to be rejected, e.g. because its
        parent is not cached (which would make it unreachable) or because it
        cannot fit even after eviction.
        """
        key = item_key_for_node(snapshot.node_id)
        parent_key = item_key_for_node(parent_node_id) if parent_node_id is not None else None
        if parent_key is not None and parent_key not in self.items:
            self.rejected_inserts += 1
            return False

        existing = self.items.get(key)
        if existing is not None:
            cached_node: CachedIndexNode = existing.payload  # type: ignore[assignment]
            old_size = existing.size_bytes
            # A re-shipped snapshot means the node served the current query:
            # refresh the replacement metadata or frequently merged nodes
            # decay under GRD scoring as if they were never touched.  Skip
            # the hit bump when the walk already touched the node this query
            # — prob(i) counts queries served, not touches.
            if existing.last_access < self.clock:
                existing.hit_queries += 1
            existing.last_access = self.clock
            cached_node.merge(snapshot.elements.values())
            new_size = cached_node.size_bytes(self.size_model)
            delta = new_size - old_size
            if delta > 0 and not self._make_room(delta, context, protect={key}):
                # Could not grow: keep the merged payload but accept overrun
                # of at most one node (a few hundred bytes).
                pass
            existing.size_bytes = new_size
            if new_size > self.largest_item_bytes:
                self.largest_item_bytes = new_size
            self.used_bytes += delta
            self._index_bytes += delta
            return True

        size = snapshot.size_bytes(self.size_model)
        if not self._make_room(size, context, protect={parent_key} if parent_key else set()):
            self.rejected_inserts += 1
            return False
        if parent_key is not None and parent_key not in self.items:
            # The parent was evicted while making room; the snapshot would be
            # unreachable, so drop it.
            self.rejected_inserts += 1
            return False
        state = CacheItemState(key=key, payload=snapshot.copy(), size_bytes=size,
                               insert_time=self.clock, parent_key=parent_key,
                               last_access=self.clock)
        self._register(state)
        return True

    def insert_object(self, cached_object: CachedObject, parent_node_id: Optional[int],
                      context: Optional[dict] = None) -> bool:
        """Insert a data object under its owning leaf node."""
        key = item_key_for_object(cached_object.object_id)
        if key in self.items:
            self.items[key].last_access = self.clock
            return True
        parent_key = item_key_for_node(parent_node_id) if parent_node_id is not None else None
        if parent_key is not None and parent_key not in self.items:
            self.rejected_inserts += 1
            return False
        size = cached_object.size_bytes
        protect = {parent_key} if parent_key else set()
        if not self._make_room(size, context, protect=protect):
            self.rejected_inserts += 1
            return False
        if parent_key is not None and parent_key not in self.items:
            self.rejected_inserts += 1
            return False
        state = CacheItemState(key=key, payload=cached_object, size_bytes=size,
                               insert_time=self.clock, parent_key=parent_key,
                               last_access=self.clock)
        self._register(state)
        return True

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    def evict(self, key: str) -> None:
        """Remove an item (must be a leaf item) and update the bookkeeping."""
        state = self.items[key]
        if state.cached_children:
            raise ValueError(f"cannot evict {key}: it still has cached children")
        del self.items[key]
        self._leaf_keys.pop(key, None)
        self.used_bytes -= state.size_bytes
        payload = state.payload
        if isinstance(payload, CachedIndexNode):
            self._index_bytes -= state.size_bytes
        else:
            self._object_bytes -= state.size_bytes
            self._object_ids.discard(payload.object_id)
        self.evictions += 1
        if obs.ENABLED:
            obs.active().count("repro_cache_evictions_total", 1.0)
        if state.parent_key is not None:
            parent = self.items.get(state.parent_key)
            if parent is not None:
                parent.cached_children.discard(key)
                if not parent.cached_children:
                    self._leaf_keys[state.parent_key] = None
                    self.new_leaves.append(state.parent_key)

    def evict_subtree(self, key: str) -> List[str]:
        """Remove an item together with all its cached descendants.

        Returns the keys removed, in leaf-to-root order (every descendant
        before its ancestor).  Iterative so that snapshot chains deeper than
        the interpreter's recursion limit are handled.
        """
        removed: List[str] = []
        if key not in self.items:
            return removed
        # Depth-first preorder; reversing it yields a valid leaf-to-root
        # eviction order (children always appear after their parent).
        order: List[str] = []
        stack = [key]
        while stack:
            current = stack.pop()
            state = self.items.get(current)
            if state is None:
                continue
            order.append(current)
            stack.extend(state.cached_children)
        for current in reversed(order):
            self.evict(current)
            removed.append(current)
        return removed

    def invalidate_subtree(self, key: str) -> List[str]:
        """Drop an item and its cached descendants because it went stale.

        Same structural walk as :meth:`evict_subtree` (the incremental leaf
        set, byte split and eviction heaps all stay coherent), but tracked
        separately in :attr:`invalidations` so consistency-protocol drops
        can be told apart from capacity evictions in reports.
        """
        removed = self.evict_subtree(key)
        self.invalidations += len(removed)
        if obs.ENABLED and removed:
            obs.active().count("repro_cache_invalidations_total",
                               float(len(removed)))
        return removed

    def refresh_item(self, key: str, payload: Payload, size_bytes: int,
                     context: Optional[dict] = None) -> None:
        """Replace a cached item's payload with freshly shipped content.

        Used by the versioned consistency protocol when the server says a
        cached page or object changed in place.  Replacement metadata (hit
        count, insert time, hierarchy links) survives — a refresh is not a
        query hit.  When the fresh payload is bigger, the policy tries to
        make room first; like the snapshot-merge path, an overrun is
        accepted rather than dropping a just-validated item.
        """
        state = self.items[key]
        if type(payload) is not type(state.payload):
            raise ValueError(f"cannot refresh {key} with a "
                             f"{type(payload).__name__} payload")
        delta = size_bytes - state.size_bytes
        if delta > 0:
            self._make_room(delta, context, protect={key})
        state.payload = payload
        state.size_bytes = size_bytes
        if size_bytes > self.largest_item_bytes:
            self.largest_item_bytes = size_bytes
        self.used_bytes += delta
        if state.is_index_item:
            self._index_bytes += delta
        else:
            self._object_bytes += delta
        self.refreshes += 1
        if obs.ENABLED:
            obs.active().count("repro_cache_refreshes_total", 1.0)

    def restore_item(self, state: CacheItemState) -> None:
        """Re-admit a previously evicted item (GRD3's step-(6) correction).

        The item is restored childless; its parent (if any) must already be
        cached.  All incremental aggregates are maintained, unlike a raw
        ``items[key] = state`` write.
        """
        if state.parent_key is not None and state.parent_key not in self.items:
            raise ValueError(
                f"cannot restore {state.key}: parent {state.parent_key} not cached")
        state.cached_children = set()
        self._register(state)

    def _make_room(self, bytes_needed: int, context: Optional[dict],
                   protect: Set[str]) -> bool:
        """Free space so that ``bytes_needed`` more bytes fit."""
        if bytes_needed > self.capacity_bytes:
            return False
        if self.used_bytes + bytes_needed <= self.capacity_bytes:
            return True
        if self.replacement_policy is None:
            return False
        freed = self.replacement_policy.make_room(self, bytes_needed, context or {}, protect)
        return freed and self.used_bytes + bytes_needed <= self.capacity_bytes

    # ------------------------------------------------------------------ #
    # snapshot / restore (warm-restart persistence)
    # ------------------------------------------------------------------ #
    # repro: allow[STM01] size_model is constructor config; used_bytes,
    # _leaf_keys, _index_bytes, _object_bytes, _object_ids,
    # largest_item_bytes and new_leaves are derived aggregates rebuilt by
    # _register on load; invalidations/refreshes are consistency counters
    # deliberately excluded so static-workload digests match.
    def state_dict(self) -> dict:
        """The cache's complete state as JSON-serialisable primitives.

        Captures everything a warm restart needs to continue *exactly* where
        the session stopped: the byte budget, the query clock, the eviction
        counters, every item with its replacement metadata (insert time, hit
        count, last access) and — crucially — the two orderings the policies
        are sensitive to: the ``items`` insertion order and the leaf-set
        order (GRD3's step-(6) worklist pops leaves in that order).  Floats
        round-trip exactly through JSON, so ``save → load → save`` of a
        snapshot is byte-stable.
        """
        return {
            "format": 1,
            "capacity_bytes": self.capacity_bytes,
            "clock": self.clock,
            "evictions": self.evictions,
            "rejected_inserts": self.rejected_inserts,
            "replacement_policy": (self.replacement_policy.name
                                   if self.replacement_policy is not None else None),
            "items": [self._item_dict(state) for state in self.items.values()],
            "leaf_order": list(self._leaf_keys),
        }

    @staticmethod
    def _item_dict(state: CacheItemState) -> dict:
        payload = state.payload
        if isinstance(payload, CachedIndexNode):
            encoded = {
                "kind": "node",
                "node_id": payload.node_id,
                "level": payload.level,
                "elements": [
                    {"code": element.code,
                     "mbr": [element.mbr.min_x, element.mbr.min_y,
                             element.mbr.max_x, element.mbr.max_y],
                     "child_id": element.child_id,
                     "object_id": element.object_id}
                    for element in payload.elements.values()],
            }
        else:
            encoded = {
                "kind": "object",
                "object_id": payload.object_id,
                "mbr": [payload.mbr.min_x, payload.mbr.min_y,
                        payload.mbr.max_x, payload.mbr.max_y],
                "size_bytes": payload.size_bytes,
            }
        return {
            "key": state.key,
            "payload": encoded,
            "size_bytes": state.size_bytes,
            "insert_time": state.insert_time,
            "parent_key": state.parent_key,
            "hit_queries": state.hit_queries,
            "last_access": state.last_access,
        }

    @classmethod
    def from_state_dict(cls, state: dict, size_model: Optional[SizeModel] = None,
                        replacement_policy: Optional["ReplacementPolicy"] = None,
                        ) -> "ProactiveCache":
        """Rebuild a cache from :meth:`state_dict` output.

        ``replacement_policy`` overrides the snapshot's recorded policy name;
        when omitted the recorded name is instantiated (or ``None`` kept).
        """
        from repro.geometry import Rect
        if state.get("format") != 1:
            raise ValueError(f"unsupported cache snapshot format "
                             f"{state.get('format')!r}")
        if replacement_policy is None and state.get("replacement_policy"):
            from repro.core.replacement import make_policy
            replacement_policy = make_policy(state["replacement_policy"])
        cache = cls(capacity_bytes=state["capacity_bytes"], size_model=size_model,
                    replacement_policy=replacement_policy)
        cache.clock = state["clock"]
        for item in state["items"]:
            encoded = item["payload"]
            if encoded["kind"] == "node":
                payload: Payload = CachedIndexNode(
                    node_id=encoded["node_id"], level=encoded["level"],
                    elements={e["code"]: CacheEntry(mbr=Rect(*e["mbr"]),
                                                    code=e["code"],
                                                    child_id=e["child_id"],
                                                    object_id=e["object_id"])
                              for e in encoded["elements"]})
            else:
                payload = CachedObject(object_id=encoded["object_id"],
                                       mbr=Rect(*encoded["mbr"]),
                                       size_bytes=encoded["size_bytes"])
            cache._register(CacheItemState(
                key=item["key"], payload=payload, size_bytes=item["size_bytes"],
                insert_time=item["insert_time"], parent_key=item["parent_key"],
                hit_queries=item["hit_queries"], last_access=item["last_access"]))
        # _register rebuilt a structurally correct leaf set; impose the
        # snapshot's exact iteration order on it (policy tie-breaks and the
        # GRD3 step-(6) worklist depend on it).
        saved_order = state["leaf_order"]
        if set(saved_order) != set(cache._leaf_keys):
            raise ValueError("cache snapshot leaf_order does not match the "
                             "reconstructed leaf set")
        cache._leaf_keys = {key: None for key in saved_order}
        cache.evictions = state["evictions"]
        cache.rejected_inserts = state["rejected_inserts"]
        return cache

    def content_digest(self) -> str:
        """A stable hex digest of the full cache state.

        Two caches with identical contents *and* identical replacement
        metadata / orderings produce the same digest — the equality the
        warm-restart tests assert between a killed-and-resumed session and
        an uninterrupted one.
        """
        import hashlib
        import json
        canonical = json.dumps(self.state_dict(), sort_keys=False,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants (used by the tests)."""
        computed = sum(state.size_bytes for state in self.items.values())
        assert computed == self.used_bytes, "used_bytes out of sync"
        index_total = sum(s.size_bytes for s in self.items.values() if s.is_index_item)
        object_total = sum(s.size_bytes for s in self.items.values() if not s.is_index_item)
        assert index_total == self._index_bytes, "index_bytes out of sync"
        assert object_total == self._object_bytes, "object_bytes out of sync"
        leaves = {key for key, state in self.items.items() if state.is_leaf_item}
        assert leaves == set(self._leaf_keys), "leaf set out of sync"
        object_ids = {state.payload.object_id for state in self.items.values()
                      if isinstance(state.payload, CachedObject)}
        assert object_ids == self._object_ids, "object-id set out of sync"
        largest = max((s.size_bytes for s in self.items.values()), default=0)
        assert largest <= self.largest_item_bytes, "largest-item bound too low"
        for key, state in self.items.items():
            if state.parent_key is not None:
                assert state.parent_key in self.items, f"{key} is unreachable"
                assert key in self.items[state.parent_key].cached_children
            for child_key in state.cached_children:
                assert child_key in self.items
                assert self.items[child_key].parent_key == key


# Imported late to avoid a circular import in type checking contexts.
from repro.core.replacement.base import ReplacementPolicy  # noqa: E402  (re-export for typing)
