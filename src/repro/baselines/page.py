"""Page (object) caching — the PAG baseline.

Objects are cached and addressed purely by identifier.  Because no query
semantics are stored, the client cannot answer any part of a spatial query
locally; it ships the query together with the identifiers of every cached
object, and the server omits those objects from its answer.  The cache hit
rate is therefore zero by construction, while downlink traffic is minimal —
exactly the trade-off Figure 6 of the paper shows.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set

from repro.core.items import CachedObject
from repro.rtree.entry import ObjectRecord


class PageCache:
    """A byte-budgeted LRU cache of data objects keyed by object id."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._objects: "OrderedDict[int, CachedObject]" = OrderedDict()
        self.used_bytes = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def object_ids(self) -> Set[int]:
        """Ids of all cached objects."""
        return set(self._objects.keys())

    def get(self, object_id: int) -> Optional[CachedObject]:
        """Fetch an object and mark it most recently used."""
        cached = self._objects.get(object_id)
        if cached is not None:
            self._objects.move_to_end(object_id)
        return cached

    def touch(self, object_id: int) -> None:
        """Mark an object as most recently used without returning it."""
        if object_id in self._objects:
            self._objects.move_to_end(object_id)

    def insert(self, record: ObjectRecord) -> bool:
        """Insert an object, evicting LRU entries as needed.

        Returns False when the object is larger than the whole cache.
        """
        if record.size_bytes > self.capacity_bytes:
            return False
        if record.object_id in self._objects:
            self._objects.move_to_end(record.object_id)
            return True
        while self.used_bytes + record.size_bytes > self.capacity_bytes and self._objects:
            _, evicted = self._objects.popitem(last=False)
            self.used_bytes -= evicted.size_bytes
            self.evictions += 1
        self._objects[record.object_id] = CachedObject(
            object_id=record.object_id, mbr=record.mbr, size_bytes=record.size_bytes)
        self.used_bytes += record.size_bytes
        return True
