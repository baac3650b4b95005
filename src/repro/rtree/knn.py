"""Best-first k-nearest-neighbour search (Hjaltason & Samet)."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Set, Tuple

from repro.geometry import Point
from repro.rtree.tree import TreeView


def knn_search(tree: TreeView, query_point: Point, k: int,
               visited_nodes: Optional[Set[int]] = None) -> List[Tuple[int, float]]:
    """Return the ``k`` nearest objects to ``query_point`` as ``(object_id, distance)``.

    The algorithm is the classic best-first search: a priority queue ``H``
    keyed by MINDIST holds to-be-explored entries; when a leaf entry is
    popped its object is reported.  ``visited_nodes`` (if given) collects the
    node pages read during the search, which is the "supporting index" the
    server ships to a proactive-caching client.

    Two hot-path refinements keep the output (results *and* visited pages)
    identical to the textbook formulation:

    * the queue is keyed by **squared** MINDIST — the square root is taken
      once per reported result, not once per entry touched;
    * a max-heap of the ``k`` smallest object-candidate distances seen so far
      provides an upper bound on the k-th result; entries whose MINDIST
      strictly exceeds it are never pushed.  Such entries could never be
      popped before the search terminates (the ``k`` closer objects drain
      first), so skipping them changes neither the reported neighbours nor
      the set of nodes visited.
    """
    if k <= 0:
        return []
    results: List[Tuple[int, float]] = []
    if not tree.root.entries:
        return results
    px = query_point.x
    py = query_point.y

    counter = itertools.count()
    next_tiebreak = counter.__next__
    push = heapq.heappush
    # (squared MINDIST, tie-break, node_id, object_id)
    heap: List[Tuple[float, int, Optional[int], Optional[int]]] = [
        (0.0, next_tiebreak(), tree.root_id, None)]
    # Negated squared distances of the k closest object candidates seen.
    bound_heap: List[float] = []
    bound = math.inf

    while heap and len(results) < k:
        dist_sq, _, node_id, object_id = heapq.heappop(heap)
        if object_id is not None:
            results.append((object_id, math.sqrt(dist_sq)))
            continue
        node = tree.node(node_id)
        if visited_nodes is not None:
            visited_nodes.add(node_id)
        for entry in node.entries:
            mbr = entry.mbr
            dx = mbr.min_x - px
            if dx < 0.0:
                dx = px - mbr.max_x
                if dx < 0.0:
                    dx = 0.0
            dy = mbr.min_y - py
            if dy < 0.0:
                dy = py - mbr.max_y
                if dy < 0.0:
                    dy = 0.0
            entry_dist_sq = dx * dx + dy * dy
            if entry_dist_sq > bound:
                continue
            entry_object_id = entry.object_id
            if entry_object_id is not None:
                push(heap, (entry_dist_sq, next_tiebreak(), None, entry_object_id))
                if len(bound_heap) < k:
                    push(bound_heap, -entry_dist_sq)
                    if len(bound_heap) == k:
                        bound = -bound_heap[0]
                elif entry_dist_sq < bound:
                    heapq.heapreplace(bound_heap, -entry_dist_sq)
                    bound = -bound_heap[0]
            else:
                push(heap, (entry_dist_sq, next_tiebreak(), entry.child_id, None))
    return results


def nearest_neighbor(tree: TreeView, query_point: Point) -> Optional[Tuple[int, float]]:
    """The single nearest neighbour, or ``None`` for an empty tree."""
    found = knn_search(tree, query_point, 1)
    return found[0] if found else None


def knn_distance(tree: TreeView, query_point: Point, k: int) -> float:
    """Distance to the k-th nearest neighbour (``inf`` if fewer than k objects)."""
    found = knn_search(tree, query_point, k)
    if len(found) < k:
        return float("inf")
    return found[-1][1]
