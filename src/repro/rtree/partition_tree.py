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

Cost of a build.  A node of ``N`` entries has ``N`` leaf codes and ``N - 1``
internal codes.  The build converts the entries to coordinate tuples and
ranks the four R* sort keys once, then recurses over index lists through
:func:`~repro.rtree.split.split_order`: one kernel call per code of three
or more entries (a two-entry code is split in closed form), one ``Rect``
per internal code (a leaf code reuses its entry's ``mbr``).  The scaled NE
tree at 8 000 objects — 341 nodes, 8 340 entries — takes 4 980 kernel
calls and 7 999 ``Rect``s (pinned by ``tests/perf``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Set, Tuple, Union

from repro.geometry import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import entry_boxes, running_bounds, sort_keys, split_order


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
        self._build(list(node.entries))
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

    def _build(self, entries: List[Entry]) -> None:
        """Split ``entries`` recursively, filling the maps in pre-order.

        The recursion carries lists of indices into ``entries``; the boxes
        and the four sort keys (as dense ranks) are built once per node.
        A leaf code's MBR is its entry's own ``mbr``; an internal code's is
        its subset's bounds accumulated in list order, bit for bit what
        :meth:`Rect.bounding` gives: the left child's is the split's prefix
        bound, the right child's a forward pass over its entries.
        """
        boxes = entry_boxes(entries)
        keys = sort_keys(boxes)
        lower_x = keys[0]
        subsets, mbrs, entry_codes = self.subsets, self.mbrs, self._entry_codes
        root = list(range(len(entries)))
        stack = [("", root, running_bounds(boxes, root)[-1])]
        while stack:
            code, items, bounds = stack.pop()
            subsets[code] = [entries[index] for index in items]
            count = len(items)
            if count == 1:
                entry = entries[items[0]]
                mbrs[code] = entry.mbr
                entry_codes[entry.key()] = code
                continue
            mbrs[code] = Rect(*bounds)
            if count == 2:
                # The R* split of two entries, in closed form.  Each of the
                # four orderings has one candidate, {a} | {b}, whose margin
                # sum is margin(a) + margin(b) in one order or the other:
                # the same float, so the two axes' sums are bit-equal and x
                # wins the strict ``<``.  Both x orderings then give equal
                # overlaps (max / min are symmetric up to the sign of a
                # zero, which compares equal) and the same area (a
                # commutative sum), so the first, by lower x, is kept:
                # the entry with the smaller ``(min_x, max_x)`` goes left,
                # the first one on a tie.
                first, second = items
                if lower_x[second] < lower_x[first]:
                    first, second = second, first
                stack.append((code + "1", [second], boxes[second]))
                stack.append((code + "0", [first], boxes[first]))
                continue
            # Each side keeps at least a third of the entries.
            ordering, split_at, left_bounds = split_order(boxes, items, keys, count // 3)
            right = ordering[split_at:]
            stack.append((code + "1", right, running_bounds(boxes, right)[-1]))
            stack.append((code + "0", ordering[:split_at], left_bounds))

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
    def full_form(self) -> List[Tuple[str, Entry]]:
        """Every real entry with its leaf code (the full form of the node)."""
        return [(code, self.entry_at(code))
                for code in sorted(self.subsets) if self.is_leaf_code(code)]

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

    def subtree_codes(self, base_code: str, expanded_codes: Set[str], d: int) -> List[str]:
        """The codes of the ``d+``-level compact form (paper Section 4.3)
        restricted to the subtree at ``base_code``.

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
