"""Client-side cache item types and remainder-query frontier targets."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry import Rect
from repro.rtree.sizes import SizeModel


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One element of a cached index-node snapshot.

    A cache entry is either a *real* R-tree entry (``child_id`` or
    ``object_id`` set) or a *super entry* (both unset) that summarises a
    subset of the node's entries which the client cannot expand locally.
    ``code`` is the element's designator in the node's binary partition
    tree; it is what lets two compact forms of the same node be merged into
    their common refinement.
    """

    mbr: Rect
    code: str
    child_id: Optional[int] = None
    object_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.child_id is not None and self.object_id is not None:
            raise ValueError("a cache entry cannot reference both a node and an object")

    @property
    def is_super(self) -> bool:
        """True for an unexpandable super entry."""
        return self.child_id is None and self.object_id is None

    @property
    def is_leaf_entry(self) -> bool:
        """True for a real entry referencing a data object."""
        return self.object_id is not None

    @property
    def is_node_entry(self) -> bool:
        """True for a real entry referencing a child node."""
        return self.child_id is not None

    def size_bytes(self, size_model: SizeModel) -> int:
        """Wire/cache footprint of this element."""
        if self.is_super:
            return size_model.super_entry_bytes()
        return size_model.entry_bytes


@dataclass(slots=True)
class CachedIndexNode:
    """A client-side snapshot of one R-tree node.

    The snapshot is a *cut* of the node's binary partition tree: a mixture of
    real entries and super entries keyed by partition-tree code.  The full
    form is simply the cut whose elements are all real entries.
    """

    node_id: int
    level: int
    elements: Dict[str, CacheEntry] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        """True when this is a leaf-level node (its real entries are objects)."""
        return self.level == 0

    def entries(self) -> List[CacheEntry]:
        """All cached elements of the node."""
        return list(self.elements.values())

    def real_entries(self) -> List[CacheEntry]:
        """Only the real (expandable / object) entries."""
        return [e for e in self.elements.values() if not e.is_super]

    def super_entries(self) -> List[CacheEntry]:
        """Only the super entries."""
        return [e for e in self.elements.values() if e.is_super]

    def size_bytes(self, size_model: SizeModel) -> int:
        """Cache footprint of the snapshot."""
        supers = 0
        for element in self.elements.values():
            if element.child_id is None and element.object_id is None:
                supers += 1
        return (size_model.pointer_bytes
                + supers * size_model.super_entry_bytes()
                + (len(self.elements) - supers) * size_model.entry_bytes)

    def merge(self, new_elements: Iterable[CacheEntry]) -> None:
        """Merge another cut of the same node into this snapshot.

        The result is the common refinement of the two cuts: from the union
        of elements, an element survives only if no other element's code is a
        strict extension of its own (i.e. nothing finer is known about that
        region of the node).
        """
        combined: Dict[str, CacheEntry] = dict(self.elements)
        for element in new_elements:
            existing = combined.get(element.code)
            if existing is None or existing.is_super and not element.is_super:
                combined[element.code] = element
        codes = sorted(combined)
        # In lexicographic order every strict extension of a code sorts into
        # a contiguous block immediately after it, so "something finer is
        # known" reduces to one startswith test against the next code.
        refined: Dict[str, CacheEntry] = {}
        last_index = len(codes) - 1
        for index, code in enumerate(codes):
            if index < last_index and codes[index + 1].startswith(code):
                continue
            refined[code] = combined[code]
        self.elements = refined

    def copy(self) -> "CachedIndexNode":
        """A snapshot copy (elements are immutable)."""
        return CachedIndexNode(self.node_id, self.level, dict(self.elements))


@dataclass(frozen=True, slots=True)
class CachedObject:
    """A data object held in the client cache."""

    object_id: int
    mbr: Rect
    size_bytes: int


class TargetKind(enum.Enum):
    """What a remainder-query frontier element points at."""

    NODE = "node"
    OBJECT = "object"
    SUPER = "super"


@dataclass(frozen=True, slots=True)
class FrontierTarget:
    """One element of the execution state handed over to the server.

    ``priority`` is the element's key in the client's priority queue (MINDIST
    for kNN, 0 for range / join); the server resumes with the same ordering.
    ``parent_node_id`` lets the server (and then the client, on the way back)
    attach fetched objects to the leaf node that owns them.  An OBJECT target
    with ``confirm_only`` set tells the server that the client already holds
    the object's payload and only needs its membership in the result set
    confirmed — the server must not re-ship the object bytes.
    """

    kind: TargetKind
    mbr: Rect
    priority: float = 0.0
    node_id: Optional[int] = None
    object_id: Optional[int] = None
    code: str = ""
    parent_node_id: Optional[int] = None
    confirm_only: bool = False

    @staticmethod
    def for_node(node_id: int, mbr: Rect, priority: float = 0.0) -> "FrontierTarget":
        """Frontier element referencing a whole (missing) node."""
        return FrontierTarget(kind=TargetKind.NODE, mbr=mbr, priority=priority, node_id=node_id)

    @staticmethod
    def for_object(object_id: int, mbr: Rect, parent_node_id: Optional[int],
                   priority: float = 0.0, confirm_only: bool = False) -> "FrontierTarget":
        """Frontier element referencing a (missing or unconfirmed) object."""
        return FrontierTarget(kind=TargetKind.OBJECT, mbr=mbr, priority=priority,
                              object_id=object_id, parent_node_id=parent_node_id,
                              confirm_only=confirm_only)

    @staticmethod
    def for_super(node_id: int, code: str, mbr: Rect, priority: float = 0.0) -> "FrontierTarget":
        """Frontier element referencing a super entry the client cannot expand."""
        return FrontierTarget(kind=TargetKind.SUPER, mbr=mbr, priority=priority,
                              node_id=node_id, code=code)

    def size_bytes(self, size_model: SizeModel) -> int:
        """Uplink footprint of this frontier element."""
        return size_model.frontier_entry_bytes()


# A frontier item is either a single target (range / kNN) or a pair (joins).
FrontierItem = Tuple[FrontierTarget, ...]


def item_key_for_node(node_id: int) -> str:
    """Cache item key of an index-node snapshot."""
    return f"node:{node_id}"


def item_key_for_object(object_id: int) -> str:
    """Cache item key of a data object."""
    return f"obj:{object_id}"
