"""The paged R*-tree.

The tree owns two stores:

* a :class:`PageStore` mapping node ids to :class:`~repro.rtree.node.Node`
  pages, and
* an object table mapping object ids to
  :class:`~repro.rtree.entry.ObjectRecord` payload descriptors.

Both stores use integer ids exactly as the paper uses "physical addresses":
the mobile client caches *snapshots* of these pages keyed by id, and a
remainder query's priority queue carries ids the server can resolve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Protocol, Sequence, Tuple,
    runtime_checkable,
)

from repro.geometry import Point, Rect
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node
from repro.rtree.sizes import SizeModel
from repro.rtree.split import rstar_split


# repro: allow[SLT01] DatasetUpdater._watch_store monkeypatches edit/allocate/
# free on live instances, which needs __dict__ storage.
@dataclass
class PageStore:
    """An id-addressed in-memory store of R-tree nodes (the "disk").

    This is the default :class:`~repro.storage.backend.StorageBackend`: all
    pages live in a dict, so "page reads" are pure accounting.  The paged
    file backend (:mod:`repro.storage.paged`) implements the same contract
    over an actual file.
    """

    pages: Dict[int, Node] = field(default_factory=dict)
    _next_id: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    reads: int = 0
    writes: int = 0

    def allocate(self, level: int) -> Node:
        """Create, register and return an empty node at ``level``."""
        node = Node(node_id=next(self._next_id), level=level)
        self.pages[node.node_id] = node
        self.writes += 1
        return node

    def get(self, node_id: int) -> Node:
        """Fetch a node by id; counts as a page read."""
        self.reads += 1
        return self.pages[node_id]

    def peek(self, node_id: int) -> Node:
        """Fetch a node without counting a read (used by maintenance code)."""
        return self.pages[node_id]

    def edit(self, node_id: int) -> Node:
        """Fetch a node for in-place structural mutation (no logical read).

        For the in-memory store this is :meth:`peek` — nodes are mutated in
        place.  Copy-on-write backends override it to pin a private mutable
        copy of the page, which is why every mutation path of the tree goes
        through ``edit`` rather than ``peek``.
        """
        return self.pages[node_id]

    def free(self, node_id: int) -> None:
        """Remove a node from the store."""
        del self.pages[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.pages

    def __len__(self) -> int:
        return len(self.pages)

    #: Whether the store accepts mutations (read-only backends say False).
    writable = True

    def node_ids(self) -> List[int]:
        """All stored page ids, in insertion (allocation) order."""
        return list(self.pages)

    def iter_nodes(self) -> Iterable[Node]:
        """Iterate over every stored node."""
        return self.pages.values()

    def io_stats(self) -> Dict[str, int]:
        """Physical I/O counters — always zero for the in-memory store."""
        return {"file_reads": 0, "file_writes": 0, "buffer_hits": 0}

    def reset_io_stats(self) -> None:
        """No-op: the in-memory store has no physical counters."""

    def flush(self) -> None:
        """No-op: an in-memory store has nothing to write through."""

    def close(self) -> None:
        """No-op: an in-memory store holds no external resources."""


class PageReader(Protocol):
    """The read side of a page store: what a :class:`TreeView` exposes."""

    def __contains__(self, node_id: int) -> bool: ...

    def get(self, node_id: int) -> Node: ...

    def peek(self, node_id: int) -> Node: ...


@runtime_checkable
class TreeView(Protocol):
    """The read side of an R-tree: all that sessions, the ground-truth
    kernels and the consistency protocols use of one.

    Structural: :class:`RTree` and the sharded deployment's
    :class:`~repro.sharding.router.ShardedTreeView` satisfy it without
    inheriting from it.
    """

    @property
    def size_model(self) -> SizeModel: ...

    @property
    def objects(self) -> Mapping[int, ObjectRecord]: ...

    @property
    def store(self) -> PageReader: ...

    @property
    def root_id(self) -> int: ...

    @property
    def root(self) -> Node: ...

    def node(self, node_id: int) -> Node: ...

    def object(self, object_id: int) -> ObjectRecord: ...


def subtree_keys(entries: Sequence[Entry], mbr: Rect,
                 leaf_parent: bool) -> List[Tuple[float, float, float]]:
    """R* ChooseSubtree's key of every entry for inserting ``mbr``.

    ``(overlap enlargement, area enlargement, area)`` in entry order; the
    overlap term — by how much growing the entry to cover ``mbr`` grows its
    overlap with its siblings — is computed only for the parents of leaves
    (``leaf_parent``) and is ``0.0`` higher up, where the choice is by area
    enlargement alone.  The leaf-parent case is quadratic in the
    fanout and runs once per insert, so the arithmetic is inlined on hoisted
    coordinates: no :class:`Rect` is built and no method called per sibling
    pair.  Every float equals what ``Rect.union`` / ``intersection_area`` /
    ``enlargement`` / ``area`` give (same operations, same accumulation
    order; ``tests/rtree/test_choose_subtree_differential.py``).
    """
    boxes = [(e.mbr.min_x, e.mbr.min_y, e.mbr.max_x, e.mbr.max_y)
             for e in entries]
    mx0, my0, mx1, my1 = mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y
    keys = []
    for x0, y0, x1, y1 in boxes:
        # The entry grown to cover mbr (min / max keep their first argument
        # on a tie, as Rect.union does).
        ux0 = mx0 if mx0 < x0 else x0
        uy0 = my0 if my0 < y0 else y0
        ux1 = mx1 if mx1 > x1 else x1
        uy1 = my1 if my1 > y1 else y1
        overlap_delta = 0.0
        if leaf_parent:
            # A sibling disjoint from the grown box is disjoint from the
            # entry too and would add 0.0 - 0.0; the entry itself adds
            # grown - base = +0.0, so neither needs a test of its own.
            for ox0, oy0, ox1, oy1 in boxes:
                if ox0 > ux1 or ux0 > ox1 or oy0 > uy1 or uy0 > oy1:
                    continue
                grown = (((ox1 if ox1 < ux1 else ux1)
                          - (ox0 if ox0 > ux0 else ux0))
                         * ((oy1 if oy1 < uy1 else uy1)
                            - (oy0 if oy0 > uy0 else uy0)))
                base = (((ox1 if ox1 < x1 else x1) - (ox0 if ox0 > x0 else x0))
                        * ((oy1 if oy1 < y1 else y1) - (oy0 if oy0 > y0 else y0))
                        if x0 <= ox1 and ox0 <= x1 and y0 <= oy1 and oy0 <= y1
                        else 0.0)
                overlap_delta += grown - base
        area = (x1 - x0) * (y1 - y0)
        keys.append((overlap_delta, (ux1 - ux0) * (uy1 - uy0) - area, area))
    return keys


class RTree:
    """A dynamic R*-tree over :class:`ObjectRecord` data.

    Parameters
    ----------
    size_model:
        Byte-size model; determines the node capacity (page size / entry
        size) and is reused by the caching layers.
    max_entries / min_entries:
        Optional explicit fanout bounds; by default they are derived from
        the size model (min = 40 % of max, the R* recommendation).
    splitter:
        Entry-split function; defaults to the R* split.
    forced_reinsert:
        Whether the first overflow at each level performs the R* forced
        reinsertion of the 30 % most distant entries before splitting.
    store:
        Optional empty :class:`~repro.storage.backend.StorageBackend` to
        build the tree on; defaults to a fresh in-memory :class:`PageStore`.
        To adopt an *already populated* backend use :meth:`from_storage`.
    """

    def _configure(self,
                   size_model: Optional[SizeModel],
                   max_entries: Optional[int],
                   min_entries: Optional[int],
                   splitter: Callable[[Sequence[Entry], int],
                                      Tuple[List[Entry], List[Entry]]],
                   forced_reinsert: bool) -> None:
        """Normalise and validate the shared tree parameters.

        The single source of the fanout-bound derivation, used by both
        :meth:`__init__` and :meth:`from_storage` so built and loaded trees
        can never disagree on the bounds the splitter uses.
        """
        self.size_model = size_model or SizeModel()
        self.max_entries = max_entries or self.size_model.node_capacity
        if self.max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.min_entries = min_entries or max(2, int(round(self.max_entries * 0.4)))
        self.min_entries = min(self.min_entries, self.max_entries // 2) or 1
        self.splitter = splitter
        self.forced_reinsert = forced_reinsert

    def __init__(self,
                 size_model: Optional[SizeModel] = None,
                 max_entries: Optional[int] = None,
                 min_entries: Optional[int] = None,
                 splitter: Callable[[Sequence[Entry], int], Tuple[List[Entry], List[Entry]]] = rstar_split,
                 forced_reinsert: bool = True,
                 store: Optional[PageStore] = None) -> None:
        self._configure(size_model, max_entries, min_entries, splitter,
                        forced_reinsert)
        if store is not None and len(store):
            raise ValueError("store must be empty; use RTree.from_storage to "
                             "adopt a populated backend")
        self.store = store if store is not None else PageStore()
        self.objects: Dict[int, ObjectRecord] = {}
        root = self.store.allocate(level=0)
        self.root_id = root.node_id
        self.height = 1
        self._reinsert_levels: set = set()

    @classmethod
    def from_storage(cls, store: PageStore, objects: Dict[int, ObjectRecord],
                     root_id: int, height: int,
                     size_model: Optional[SizeModel] = None,
                     max_entries: Optional[int] = None,
                     min_entries: Optional[int] = None,
                     splitter: Callable[[Sequence[Entry], int],
                                        Tuple[List[Entry], List[Entry]]] = rstar_split,
                     forced_reinsert: bool = True) -> "RTree":
        """Adopt an already populated storage backend (deserialisation hook).

        Used by :func:`repro.storage.paged.load_tree` to reconstruct a tree
        around a file-backed page store without re-inserting anything.  The
        caller is responsible for ``root_id`` / ``height`` being consistent
        with the backend's contents (``validate`` checks the invariants).
        """
        if root_id not in store:
            raise ValueError(f"root node {root_id} not present in the store")
        tree = cls.__new__(cls)
        tree._configure(size_model, max_entries, min_entries, splitter,
                        forced_reinsert)
        tree.store = store
        tree.objects = objects
        tree.root_id = root_id
        tree.height = height
        tree._reinsert_levels = set()
        return tree

    # ------------------------------------------------------------------ #
    # public read API
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.objects)

    @property
    def root(self) -> Node:
        """The root node (without counting a page read)."""
        return self.store.peek(self.root_id)

    def node(self, node_id: int) -> Node:
        """Fetch a node by page id."""
        return self.store.get(node_id)

    def object(self, object_id: int) -> ObjectRecord:
        """Fetch an object record by id."""
        return self.objects[object_id]

    def root_entry(self) -> Entry:
        """An entry referencing the root node (the traversal starting point)."""
        return Entry(mbr=self.root.mbr() if self.root.entries else Rect.unit(),
                     child_id=self.root_id)

    def all_nodes(self) -> Iterable[Node]:
        """Iterate over every node page (backend-agnostic)."""
        return self.store.iter_nodes()

    def index_bytes(self) -> int:
        """Total byte size of the index (all nodes, by the size model)."""
        return sum(self.size_model.node_bytes(node.fanout) for node in self.all_nodes())

    def dataset_bytes(self) -> int:
        """Total byte size of all data objects."""
        return sum(record.size_bytes for record in self.objects.values())

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def _check_writable(self) -> None:
        """Reject structural mutation over a read-only storage backend.

        Checked up front so a paged, buffered backend can never be left with
        half-applied in-buffer mutations before an ``allocate``/``free``
        would have raised.
        """
        if not getattr(self.store, "writable", True):
            from repro.storage.backend import ReadOnlyStorageError
            raise ReadOnlyStorageError(
                "this tree is backed by a read-only store; reload it with "
                "copy_on_write=True (or rebuild it in memory and re-save it) "
                "to mutate")

    def insert(self, record: ObjectRecord) -> None:
        """Insert a data object into the tree."""
        self._check_writable()
        if record.object_id in self.objects:
            raise ValueError(f"duplicate object id {record.object_id}")
        self.objects[record.object_id] = record
        self._reinsert_levels = set()
        entry = Entry(mbr=record.mbr, object_id=record.object_id)
        self._insert_entry(entry, target_level=0)

    def insert_all(self, records: Iterable[ObjectRecord]) -> None:
        """Insert many objects one by one (dynamic build)."""
        for record in records:
            self.insert(record)

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        leaf = self._choose_subtree(entry.mbr, target_level)
        leaf.add(entry)
        if entry.child_id is not None:
            self.store.edit(entry.child_id).parent_id = leaf.node_id
        self._handle_overflow(leaf)
        self._adjust_upwards(leaf)

    def _choose_subtree(self, mbr: Rect, target_level: int) -> Node:
        # Every node on the chosen path is mutated later (entry added at the
        # bottom, MBRs adjusted upwards), so fetch the whole path with edit.
        node = self.store.edit(self.root_id)
        while node.level > target_level:
            best_entry = self._pick_child(node, mbr)
            node = self.store.edit(best_entry.child_id)
        return node

    def _pick_child(self, node: Node, mbr: Rect) -> Entry:
        """R* ChooseSubtree: minimize overlap enlargement at the leaf level,
        area enlargement otherwise; ties go to the first entry."""
        keys = subtree_keys(node.entries, mbr, leaf_parent=node.level == 1)
        return node.entries[keys.index(min(keys))]

    def _handle_overflow(self, node: Node) -> None:
        if node.fanout <= self.max_entries:
            return
        is_root = node.node_id == self.root_id
        if (self.forced_reinsert and not is_root
                and node.level not in self._reinsert_levels):
            self._reinsert_levels.add(node.level)
            self._forced_reinsert(node)
        else:
            self._split_node(node)

    def _forced_reinsert(self, node: Node) -> None:
        """Remove the 30 % entries farthest from the node centre and reinsert."""
        center = node.mbr().center()
        count = max(1, int(round(node.fanout * 0.3)))
        ranked = sorted(node.entries,
                        key=lambda e: e.mbr.center().distance_to(center),
                        reverse=True)
        to_reinsert = ranked[:count]
        node.entries = [e for e in node.entries if e not in to_reinsert]
        self._adjust_upwards(node)
        level = node.level
        for entry in reversed(to_reinsert):  # close-reinsert order
            self._insert_entry(entry, target_level=level)

    def _split_node(self, node: Node) -> None:
        left_entries, right_entries = self.splitter(node.entries, self.min_entries)
        sibling = self.store.allocate(level=node.level)
        node.entries = list(left_entries)
        sibling.entries = list(right_entries)
        for entry in sibling.entries:
            if entry.child_id is not None:
                self.store.edit(entry.child_id).parent_id = sibling.node_id

        if node.node_id == self.root_id:
            new_root = self.store.allocate(level=node.level + 1)
            new_root.add(Entry(mbr=node.mbr(), child_id=node.node_id))
            new_root.add(Entry(mbr=sibling.mbr(), child_id=sibling.node_id))
            node.parent_id = new_root.node_id
            sibling.parent_id = new_root.node_id
            self.root_id = new_root.node_id
            self.height += 1
            return

        parent = self.store.edit(node.parent_id)
        parent.replace_entry_for_child(node.node_id,
                                       Entry(mbr=node.mbr(), child_id=node.node_id))
        parent.add(Entry(mbr=sibling.mbr(), child_id=sibling.node_id))
        sibling.parent_id = parent.node_id
        self._handle_overflow(parent)

    def _adjust_upwards(self, node: Node) -> None:
        current = node
        while current.parent_id is not None and current.node_id in self.store:
            parent = self.store.edit(current.parent_id)
            if not current.entries:
                break
            try:
                parent.replace_entry_for_child(
                    current.node_id, Entry(mbr=current.mbr(), child_id=current.node_id))
            except KeyError:
                break
            current = parent

    # ------------------------------------------------------------------ #
    # deletion
    # ------------------------------------------------------------------ #
    def delete(self, object_id: int) -> bool:
        """Remove an object; returns True if it was present."""
        self._check_writable()
        record = self.objects.pop(object_id, None)
        if record is None:
            return False
        leaf = self._find_leaf(self.store.peek(self.root_id), record)
        if leaf is None:
            return True
        leaf = self.store.edit(leaf.node_id)
        leaf.entries = [e for e in leaf.entries if e.object_id != object_id]
        self._condense(leaf)
        return True

    def _find_leaf(self, node: Node, record: ObjectRecord) -> Optional[Node]:
        if node.is_leaf:
            if any(e.object_id == record.object_id for e in node.entries):
                return node
            return None
        for entry in node.entries:
            if entry.mbr.intersects(record.mbr):
                found = self._find_leaf(self.store.peek(entry.child_id), record)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphaned: List[Tuple[int, Entry]] = []
        current = node
        while current.node_id != self.root_id:
            parent = self.store.edit(current.parent_id)
            if current.fanout < self.min_entries:
                parent.remove_entry_for_child(current.node_id)
                for entry in current.entries:
                    orphaned.append((current.level, entry))
                self.store.free(current.node_id)
            else:
                parent.replace_entry_for_child(
                    current.node_id, Entry(mbr=current.mbr(), child_id=current.node_id))
            current = parent
        # Shrink the root if it has a single child.
        root = self.store.peek(self.root_id)
        while not root.is_leaf and root.fanout == 1:
            only_child = self.store.edit(root.entries[0].child_id)
            only_child.parent_id = None
            self.store.free(root.node_id)
            self.root_id = only_child.node_id
            self.height -= 1
            root = only_child
        self._reinsert_levels = set()
        for level, entry in orphaned:
            self._insert_entry(entry, target_level=level)

    # ------------------------------------------------------------------ #
    # validation helpers (used heavily by the test-suite)
    # ------------------------------------------------------------------ #
    def validate(self, check_min_fill: bool = False) -> None:
        """Raise ``AssertionError`` if any structural invariant is violated.

        ``check_min_fill`` additionally enforces the minimum fanout on every
        non-root node; it is meaningful for dynamically built trees but not
        for STR bulk-loaded trees, whose last node per slice may legitimately
        be under-filled.
        """
        root = self.store.peek(self.root_id)
        assert root.parent_id is None, "root must not have a parent"
        seen_objects: List[int] = []
        leaf_levels: List[int] = []
        self._validate_node(root, expected_parent=None, seen=seen_objects,
                            leaf_levels=leaf_levels, is_root=True,
                            check_min_fill=check_min_fill)
        assert sorted(seen_objects) == sorted(self.objects.keys()), \
            "leaf entries must cover exactly the object table"
        assert len(set(leaf_levels)) <= 1, "all leaves must be at the same level"

    def _validate_node(self, node: Node, expected_parent: Optional[int],
                       seen: List[int], leaf_levels: List[int], is_root: bool,
                       check_min_fill: bool = False) -> None:
        assert node.parent_id == expected_parent, \
            f"node {node.node_id}: bad parent pointer"
        if not is_root:
            minimum = self.min_entries if check_min_fill else 1
            assert minimum <= node.fanout <= self.max_entries, \
                f"node {node.node_id}: fanout {node.fanout} out of bounds"
        else:
            assert node.fanout <= self.max_entries
        if node.is_leaf:
            leaf_levels.append(node.level)
            for entry in node.entries:
                assert entry.is_leaf_entry
                seen.append(entry.object_id)
                record = self.objects[entry.object_id]
                assert entry.mbr.contains(record.mbr)
            return
        for entry in node.entries:
            assert not entry.is_leaf_entry
            child = self.store.peek(entry.child_id)
            assert child.level == node.level - 1
            assert entry.mbr.contains(child.mbr()), \
                f"node {node.node_id}: entry MBR does not cover child {child.node_id}"
            self._validate_node(child, node.node_id, seen, leaf_levels, is_root=False,
                                check_min_fill=check_min_fill)
