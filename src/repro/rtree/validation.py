"""Structural invariant checks for R-trees (the dynamic-update safety net).

With server-side updates (:mod:`repro.updates`) the R-tree is no longer
write-once: every insert or delete reshapes nodes, splits pages and condenses
underfull paths.  :func:`assert_tree_valid` is the single checker the test
suites (and debugging sessions) apply after every mutation.  It walks the
whole tree from the root and asserts:

* **MBR containment** — every entry's MBR covers its child node's MBR
  (or the referenced object's MBR at leaf level);
* **fanout bounds** — no node exceeds ``max_entries``; non-root nodes hold
  at least one entry (``check_min_fill=True`` additionally enforces the
  ``min_entries`` floor, meaningful for dynamically built trees);
* **leaf depth uniformity** — every leaf sits at level 0 and the same root
  distance (the balanced-tree invariant);
* **parent links** — each child's ``parent_id`` names the node whose entry
  references it, and the root has none;
* **object-table coverage** — the leaf entries enumerate exactly the ids in
  ``tree.objects``, with no orphan pages left in the store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtree.tree import RTree


def assert_tree_valid(tree: "RTree", check_min_fill: bool = False) -> None:
    """Raise ``AssertionError`` unless every structural invariant holds.

    Safe to call after any mutation (and on freshly bulk-loaded or loaded
    trees); an empty tree (root with no entries) is valid.
    """
    root = tree.store.peek(tree.root_id)
    assert root.parent_id is None, "root must not have a parent"
    assert root.level == tree.height - 1, (
        f"root level {root.level} disagrees with height {tree.height}")
    seen_objects: List[int] = []
    seen_nodes: Set[int] = set()
    depths: Set[int] = set()
    stack = [(tree.root_id, None, 0)]
    while stack:
        node_id, expected_parent, depth = stack.pop()
        node = tree.store.peek(node_id)
        assert node_id not in seen_nodes, f"node {node_id} reachable twice"
        seen_nodes.add(node_id)
        assert node.parent_id == expected_parent, (
            f"node {node_id}: parent link {node.parent_id}, "
            f"expected {expected_parent}")
        is_root = node_id == tree.root_id
        assert node.fanout <= tree.max_entries, (
            f"node {node_id}: fanout {node.fanout} > max {tree.max_entries}")
        if not is_root:
            floor = tree.min_entries if check_min_fill else 1
            assert node.fanout >= floor, (
                f"node {node_id}: fanout {node.fanout} < {floor}")
        if node.is_leaf:
            depths.add(depth)
            assert node.level == 0, f"leaf {node_id} at level {node.level}"
            for entry in node.entries:
                assert entry.is_leaf_entry, (
                    f"leaf {node_id} holds a child pointer")
                record = tree.objects.get(entry.object_id)
                assert record is not None, (
                    f"leaf {node_id} references unknown object "
                    f"{entry.object_id}")
                assert entry.mbr.contains(record.mbr), (
                    f"leaf {node_id}: entry MBR does not cover object "
                    f"{entry.object_id}")
                seen_objects.append(entry.object_id)
            continue
        for entry in node.entries:
            assert not entry.is_leaf_entry, (
                f"inner node {node_id} holds an object entry")
            assert entry.child_id in tree.store, (
                f"node {node_id} references missing page {entry.child_id}")
            child = tree.store.peek(entry.child_id)
            assert child.level == node.level - 1, (
                f"node {node_id} (level {node.level}) has child "
                f"{child.node_id} at level {child.level}")
            assert entry.mbr.contains(child.mbr()), (
                f"node {node_id}: entry MBR does not cover child "
                f"{child.node_id}")
            stack.append((entry.child_id, node_id, depth + 1))
    assert len(depths) <= 1, f"leaves at different depths: {sorted(depths)}"
    assert sorted(seen_objects) == sorted(tree.objects), (
        "leaf entries must cover exactly the object table")
    stored = set(tree.store.node_ids())
    assert seen_nodes == stored, (
        f"orphan pages in the store: {sorted(stored - seen_nodes)}; "
        f"reachable-but-missing: {sorted(seen_nodes - stored)}")
