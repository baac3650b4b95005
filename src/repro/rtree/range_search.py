"""Window (range) query over the R-tree."""

from __future__ import annotations

from typing import List, Optional, Set

from repro.geometry import Rect
from repro.rtree.tree import TreeView


def range_search(tree: TreeView, window: Rect,
                 visited_nodes: Optional[Set[int]] = None) -> List[int]:
    """Return the ids of all objects whose MBR intersects ``window``.

    Parameters
    ----------
    tree:
        The R-tree to search.
    window:
        The query rectangle.
    visited_nodes:
        Optional set collecting the ids of every node page touched by the
        traversal; the server-side proactive cache uses this to know which
        index pages "support" the answer.
    """
    results: List[int] = []
    if not tree.root.entries:
        return results
    # The window is fixed for the whole traversal: hoist its coordinates and
    # test intersection inline instead of paying a method call per entry.
    w_min_x, w_min_y = window.min_x, window.min_y
    w_max_x, w_max_y = window.max_x, window.max_y
    node_of = tree.node
    append_result = results.append
    stack = [tree.root_id]
    push = stack.append
    while stack:
        node_id = stack.pop()
        node = node_of(node_id)
        if visited_nodes is not None:
            visited_nodes.add(node_id)
        for entry in node.entries:
            mbr = entry.mbr
            if (mbr.min_x > w_max_x or mbr.max_x < w_min_x
                    or mbr.min_y > w_max_y or mbr.max_y < w_min_y):
                continue
            object_id = entry.object_id
            if object_id is not None:
                append_result(object_id)
            else:
                push(entry.child_id)
    return results
