"""Spatial joins on R-trees: the recursive RJ algorithm and breadth-first BFRJ.

The paper's workload uses a distance *self*-join ("pairs of objects whose
mutual distance is below ``Distjoin``"); both algorithms here accept an
arbitrary pair predicate so intersection joins are available too.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Set, Tuple

from repro.geometry import Rect
from repro.rtree.tree import RTree

PairPredicate = Callable[[Rect, Rect], bool]


def distance_predicate(threshold: float) -> PairPredicate:
    """Predicate "minimum distance between the MBRs is at most ``threshold``".

    Evaluated on squared distances with inlined coordinate arithmetic — this
    predicate runs once per candidate pair in the join inner loops, so it
    avoids the ``Rect.min_dist_to_rect`` method call and its square root.
    """
    threshold_sq = threshold * threshold

    def predicate(a: Rect, b: Rect) -> bool:
        dx = a.min_x - b.max_x
        if dx < 0.0:
            dx = b.min_x - a.max_x
            if dx < 0.0:
                dx = 0.0
        dy = a.min_y - b.max_y
        if dy < 0.0:
            dy = b.min_y - a.max_y
            if dy < 0.0:
                dy = 0.0
        return dx * dx + dy * dy <= threshold_sq

    return predicate


def intersection_predicate() -> PairPredicate:
    """Predicate "the MBRs intersect"."""

    def predicate(a: Rect, b: Rect) -> bool:
        return a.intersects(b)

    return predicate


def rtree_join(left: RTree, right: RTree, predicate: PairPredicate,
               visited_left: Optional[Set[int]] = None,
               visited_right: Optional[Set[int]] = None,
               self_join: bool = False) -> List[Tuple[int, int]]:
    """The recursive R-tree join (Brinkhoff, Kriegel & Seeger).

    Returns object-id pairs satisfying ``predicate``.  For a self join
    (``self_join=True``) symmetric duplicates ``(b, a)`` and identity pairs
    ``(a, a)`` are suppressed.
    """
    results: List[Tuple[int, int]] = []
    if not left.root.entries or not right.root.entries:
        return results
    _join_nodes(left, right, left.root_id, right.root_id, predicate,
                results, visited_left, visited_right, self_join)
    return results


def _join_nodes(left: RTree, right: RTree, left_id: int, right_id: int,
                predicate: PairPredicate, results: List[Tuple[int, int]],
                visited_left: Optional[Set[int]], visited_right: Optional[Set[int]],
                self_join: bool) -> None:
    left_node = left.node(left_id)
    right_node = right.node(right_id)
    if visited_left is not None:
        visited_left.add(left_id)
    if visited_right is not None:
        visited_right.add(right_id)

    for left_entry in left_node.entries:
        for right_entry in right_node.entries:
            if not predicate(left_entry.mbr, right_entry.mbr):
                continue
            if left_entry.is_leaf_entry and right_entry.is_leaf_entry:
                pair = (left_entry.object_id, right_entry.object_id)
                if self_join:
                    if pair[0] >= pair[1]:
                        continue
                results.append(pair)
            elif left_entry.is_leaf_entry:
                _join_entry_with_node(left_entry.mbr, left_entry.object_id, right,
                                      right_entry.child_id, predicate, results,
                                      visited_right, left_side=True, self_join=self_join)
            elif right_entry.is_leaf_entry:
                _join_entry_with_node(right_entry.mbr, right_entry.object_id, left,
                                      left_entry.child_id, predicate, results,
                                      visited_left, left_side=False, self_join=self_join)
            else:
                _join_nodes(left, right, left_entry.child_id, right_entry.child_id,
                            predicate, results, visited_left, visited_right, self_join)


def _join_entry_with_node(entry_mbr: Rect, entry_object: int, tree: RTree,
                          node_id: int, predicate: PairPredicate,
                          results: List[Tuple[int, int]],
                          visited: Optional[Set[int]], left_side: bool,
                          self_join: bool) -> None:
    """Join a single leaf entry against a whole subtree (unequal heights)."""
    node = tree.node(node_id)
    if visited is not None:
        visited.add(node_id)
    for entry in node.entries:
        if not predicate(entry_mbr, entry.mbr):
            continue
        if entry.is_leaf_entry:
            pair = ((entry_object, entry.object_id) if left_side
                    else (entry.object_id, entry_object))
            if self_join:
                if pair[0] >= pair[1]:
                    continue
            results.append(pair)
        else:
            _join_entry_with_node(entry_mbr, entry_object, tree, entry.child_id,
                                  predicate, results, visited, left_side, self_join)


def bfrj_join(left: RTree, right: RTree, predicate: PairPredicate,
              visited_left: Optional[Set[int]] = None,
              visited_right: Optional[Set[int]] = None,
              self_join: bool = False) -> List[Tuple[int, int]]:
    """Breadth-First R-tree Join (Huang, Jing & Rundensteiner).

    Maintains an intermediate join index (IJI) — a FIFO of node-id pairs to
    be joined — instead of recursing.  The IJI plays the same role as the
    priority queue in best-first kNN search, which is exactly the structural
    analogy the paper's generic client-side processor relies on.
    """
    results: List[Tuple[int, int]] = []
    if not left.root.entries or not right.root.entries:
        return results

    iji = deque([(left.root_id, right.root_id)])
    while iji:
        left_id, right_id = iji.popleft()
        left_node = left.node(left_id)
        right_node = right.node(right_id)
        if visited_left is not None:
            visited_left.add(left_id)
        if visited_right is not None:
            visited_right.add(right_id)
        for left_entry in left_node.entries:
            for right_entry in right_node.entries:
                if not predicate(left_entry.mbr, right_entry.mbr):
                    continue
                if left_entry.is_leaf_entry and right_entry.is_leaf_entry:
                    pair = (left_entry.object_id, right_entry.object_id)
                    if self_join and pair[0] >= pair[1]:
                        continue
                    results.append(pair)
                elif not left_entry.is_leaf_entry and not right_entry.is_leaf_entry:
                    iji.append((left_entry.child_id, right_entry.child_id))
                elif left_entry.is_leaf_entry:
                    _join_entry_with_node(left_entry.mbr, left_entry.object_id, right,
                                          right_entry.child_id, predicate, results,
                                          visited_right, left_side=True,
                                          self_join=self_join)
                else:
                    _join_entry_with_node(right_entry.mbr, right_entry.object_id, left,
                                          left_entry.child_id, predicate, results,
                                          visited_left, left_side=False,
                                          self_join=self_join)
    return results
