"""Binary partition trees and compact forms of R-tree nodes (paper Section 4.2).

Every R-tree node ``n`` gets an (offline, one-time) *binary partition tree*
over its entries: the entry set is recursively split in two with the same
R*-split heuristic the tree itself uses, until singleton sets remain.  An
internal partition-tree node is a *super entry* identified by ``(n, code)``
where ``code`` is the 0/1 path from the partition-tree root.

A *compact form* ``CF(n, Qr)`` is a cut through the partition tree: entries
the query actually needed are kept verbatim while untouched regions of the
node are collapsed into super entries.  The ``d+``-level compact form
refines every cut element by ``d`` further levels (``d = 0`` is the normal
compact form, ``d = height`` is the full form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.geometry import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import rstar_split


@dataclass(frozen=True, slots=True)
class SuperEntry:
    """A coarse stand-in ``(node_id, code)`` for a subset of a node's entries."""

    node_id: int
    code: str
    mbr: Rect

    def key(self) -> str:
        """Stable identity string."""
        return f"super:{self.node_id}:{self.code}"


PartitionElement = Union[Entry, SuperEntry]


class PartitionTree:
    """The binary partition tree of one R-tree node.

    The tree is materialised as two dictionaries keyed by code:

    * ``subsets[code]`` — the list of real entries under that code;
    * ``mbrs[code]`` — the MBR of that subset.

    A code with a single entry is a *leaf* of the partition tree and maps
    directly to that real entry; the code of a real entry can be recovered
    with :meth:`entry_code`.
    """

    def __init__(self, node: Node) -> None:
        if not node.entries:
            raise ValueError(f"cannot build a partition tree for empty node {node.node_id}")
        self.node_id = node.node_id
        self.level = node.level
        self.subsets: Dict[str, List[Entry]] = {}
        self.mbrs: Dict[str, Rect] = {}
        self._entry_codes: Dict[str, str] = {}
        self._build("", list(node.entries))
        self.height = max(len(code) for code in self.subsets)
        # The tree is immutable after construction, so leaf membership and
        # the two-element child lists of internal codes can be served from
        # caches instead of being recomputed in the query-processing loops.
        self._leaf_codes: Set[str] = set(self._entry_codes.values())
        self._children_cache: Dict[str, List[PartitionElement]] = {}
        #: Per-code memo for whoever derives another representation of this
        #: tree's elements (the server's supporting-index entries).  It is
        #: kept here so that it dies with the tree: dropping a mutated
        #: node's partition tree is all the invalidation a derived form needs.
        self.derived: Dict[str, Any] = {}
        #: ``_expand_codes`` answers, filled as they are asked for; like
        #: ``derived`` the memo dies with the tree.
        self._expanded_codes: Dict[Tuple[str, int], List[str]] = {}

    def _build(self, code: str, entries: List[Entry]) -> None:
        self.subsets[code] = entries
        self.mbrs[code] = Rect.bounding(e.mbr for e in entries)
        if len(entries) == 1:
            self._entry_codes[entries[0].key()] = code
            return
        min_fill = max(1, len(entries) // 2) if len(entries) <= 3 else max(1, len(entries) // 3)
        left, right = rstar_split(entries, min_fill=min_fill)
        self._build(code + "0", left)
        self._build(code + "1", right)

    # ------------------------------------------------------------------ #
    # navigation
    # ------------------------------------------------------------------ #
    def is_leaf_code(self, code: str) -> bool:
        """True when ``code`` designates a single real entry."""
        if code in self._leaf_codes:
            return True
        # Preserve the KeyError contract for unknown codes.
        self.subsets[code]
        return False

    def entry_at(self, code: str) -> Entry:
        """The single real entry at a leaf code."""
        entries = self.subsets[code]
        if len(entries) != 1:
            raise ValueError(f"code {code!r} of node {self.node_id} is not a leaf code")
        return entries[0]

    def entry_code(self, entry: Entry) -> str:
        """The leaf code of a real entry of this node."""
        return self._entry_codes[entry.key()]

    def children(self, code: str) -> List[PartitionElement]:
        """The two children of an internal code (real entries or super entries).

        Memoised: the elements are immutable and callers only iterate the
        returned list, so the same list object is handed out every time.
        """
        cached = self._children_cache.get(code)
        if cached is not None:
            return cached
        if self.is_leaf_code(code):
            raise ValueError(f"code {code!r} is a leaf and has no children")
        elements: List[PartitionElement] = []
        for child_code in (code + "0", code + "1"):
            if self.is_leaf_code(child_code):
                elements.append(self.entry_at(child_code))
            else:
                elements.append(SuperEntry(self.node_id, child_code, self.mbrs[child_code]))
        self._children_cache[code] = elements
        return elements

    def element_at(self, code: str) -> PartitionElement:
        """The element (real entry or super entry) designated by ``code``."""
        if self.is_leaf_code(code):
            return self.entry_at(code)
        return SuperEntry(self.node_id, code, self.mbrs[code])

    def root_elements(self) -> List[PartitionElement]:
        """Starting elements for a partition-tree traversal of this node."""
        if self.is_leaf_code(""):
            return [self.entry_at("")]
        return self.children("")

    def entries_under(self, code: str) -> List[Entry]:
        """All real entries in the subset designated by ``code``."""
        return list(self.subsets[code])

    def internal_node_count(self) -> int:
        """Number of internal partition-tree nodes (``N - 1`` for N entries)."""
        return sum(1 for code in self.subsets if not self.is_leaf_code(code))

    def size_bytes(self, entry_bytes: int, pointer_bytes: int) -> int:
        """Storage overhead of this partition tree (paper Section 4.2).

        Each internal node stores one super entry (MBR + id) plus two child
        pointers.
        """
        return self.internal_node_count() * (entry_bytes + 2 * pointer_bytes)

    # ------------------------------------------------------------------ #
    # compact forms
    # ------------------------------------------------------------------ #
    def compact_form(self, expanded_codes: Set[str]) -> List[Tuple[str, PartitionElement]]:
        """The compact-form cut given the set of codes that were *expanded*.

        ``expanded_codes`` are internal codes whose children the query
        processor pushed.  The cut consists of every pushed element whose own
        code was not expanded: walking from the root, we descend through
        expanded codes and emit the first non-expanded element on each path.
        The result covers every entry of the node exactly once.

        Returns ``(code, element)`` pairs.
        """
        cut: List[Tuple[str, PartitionElement]] = []
        stack = [""]
        while stack:
            code = stack.pop()
            if self.is_leaf_code(code):
                cut.append((code, self.entry_at(code)))
            elif code in expanded_codes or code == "" and "" in expanded_codes:
                stack.append(code + "0")
                stack.append(code + "1")
            elif code == "":
                # The root itself was never expanded: the whole node collapses
                # to its two top-level children (the minimum meaningful form).
                stack.append("0")
                stack.append("1")
            else:
                cut.append((code, SuperEntry(self.node_id, code, self.mbrs[code])))
        return cut

    def full_form(self) -> List[Tuple[str, Entry]]:
        """Every real entry with its leaf code (the full form of the node)."""
        return [(code, self.entry_at(code))
                for code in sorted(self.subsets) if self.is_leaf_code(code)]

    def expand_element(self, code: str, levels: int) -> List[Tuple[str, PartitionElement]]:
        """Replace the element at ``code`` by its ``levels``-deep descendants.

        Descendants that are real entries are emitted as soon as they are
        reached, matching the paper's "d level descendant nodes or the
        entries whichever come first".
        """
        return [(descendant, self.element_at(descendant))
                for descendant in self._expand_codes(code, levels)]

    def _expand_codes(self, code: str, levels: int) -> List[str]:
        """Codes of the ``levels``-deep descendants of ``code`` (memoised:
        callers only iterate the returned list)."""
        memoised = self._expanded_codes.get((code, levels))
        if memoised is not None:
            return memoised
        self.subsets[code]  # preserve the KeyError contract for unknown codes
        leaf_codes = self._leaf_codes
        results: List[str] = []
        frontier = [(code, 0)]
        while frontier:
            current, depth = frontier.pop()
            if current in leaf_codes or depth >= levels:
                results.append(current)
            else:
                frontier.append((current + "0", depth + 1))
                frontier.append((current + "1", depth + 1))
        self._expanded_codes[(code, levels)] = results
        return results

    def d_level_form(self, expanded_codes: Set[str], d: int) -> List[Tuple[str, PartitionElement]]:
        """The ``d+``-level compact form (paper Section 4.3)."""
        refined: List[Tuple[str, PartitionElement]] = []
        for code, element in self.compact_form(expanded_codes):
            if isinstance(element, SuperEntry) and d > 0:
                refined.extend(self.expand_element(code, d))
            else:
                refined.append((code, element))
        return refined

    def subtree_codes(self, base_code: str, expanded_codes: Set[str], d: int) -> List[str]:
        """The codes of :meth:`d_level_form` restricted to the subtree at ``base_code``.

        Used when the server resumes from a super-entry frontier element: it
        only needs to (re)describe the part of the node below that element.
        :meth:`element_at` turns each code into its element.
        """
        self.subsets[base_code]  # preserve the KeyError contract for unknown codes
        leaf_codes = self._leaf_codes
        cut: List[str] = []
        stack = [base_code]
        while stack:
            code = stack.pop()
            if code in leaf_codes or code not in expanded_codes:
                cut.append(code)
            else:
                stack.append(code + "0")
                stack.append(code + "1")
        if d <= 0:
            return cut
        return [descendant for code in cut for descendant in self._expand_codes(code, d)]


def build_partition_trees(nodes: Iterable[Node]) -> Dict[int, PartitionTree]:
    """Build the partition tree of every node (offline preprocessing step)."""
    return {node.node_id: PartitionTree(node) for node in nodes if node.entries}
