"""R-tree entries and the data-object record they ultimately point to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry import Rect


@dataclass(frozen=True, slots=True)
class ObjectRecord:
    """A spatial data object stored in the database.

    The paper's datasets contain postal zones (NE) and road segments (RD);
    both are represented here by their MBR plus an opaque payload size in
    bytes (object sizes follow a Zipf distribution with a 10 KB mean).
    """

    object_id: int
    mbr: Rect
    size_bytes: int


@dataclass(frozen=True, slots=True)
class Entry:
    """An entry ``(MBR, p)`` inside an R-tree node.

    ``child_id`` is the page id of the child node for intermediate entries,
    and ``object_id`` identifies the data object for leaf entries.  Exactly
    one of the two is set.
    """

    mbr: Rect
    child_id: Optional[int] = None
    object_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.child_id is None) == (self.object_id is None):
            raise ValueError("an entry must reference either a child node or an object")

    @property
    def is_leaf_entry(self) -> bool:
        """True when the entry points at a data object rather than a node."""
        return self.object_id is not None

    def key(self) -> str:
        """A stable identity string (used by caches and tests)."""
        if self.is_leaf_entry:
            return f"obj:{self.object_id}"
        return f"node:{self.child_id}"
