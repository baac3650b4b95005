"""R-tree nodes (pages)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.geometry import Rect
from repro.rtree.entry import Entry


@dataclass(slots=True)
class Node:
    """A single R-tree node, i.e. one page of the index.

    ``level`` is 0 for leaf nodes (whose entries reference data objects) and
    grows towards the root.  ``node_id`` is the page address; proactive
    caching keys cached index snapshots by it.
    """

    node_id: int
    level: int
    entries: List[Entry] = field(default_factory=list)
    parent_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes whose entries point at data objects."""
        return self.level == 0

    @property
    def fanout(self) -> int:
        """Number of entries currently stored in the node."""
        return len(self.entries)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries in the node."""
        if not self.entries:
            raise ValueError(f"node {self.node_id} has no entries")
        return Rect.bounding(entry.mbr for entry in self.entries)

    def add(self, entry: Entry) -> None:
        """Append an entry to the node."""
        self.entries.append(entry)

    def remove_entry_for_child(self, child_id: int) -> Entry:
        """Remove and return the entry that references ``child_id``."""
        for index, entry in enumerate(self.entries):
            if entry.child_id == child_id:
                return self.entries.pop(index)
        raise KeyError(f"node {self.node_id} has no entry for child {child_id}")

    def replace_entry_for_child(self, child_id: int, new_entry: Entry) -> None:
        """Replace the entry that references ``child_id`` with ``new_entry``."""
        for index, entry in enumerate(self.entries):
            if entry.child_id == child_id:
                self.entries[index] = new_entry
                return
        raise KeyError(f"node {self.node_id} has no entry for child {child_id}")

    def copy(self) -> "Node":
        """A shallow snapshot of the node (entries are immutable)."""
        return Node(self.node_id, self.level, list(self.entries), self.parent_id)
