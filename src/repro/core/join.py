"""The remainder distance self-join: one pairwise traversal, any topology.

:func:`join_pairs` resumes a join from the pair frontier the client could
not settle locally.  Its caller supplies the routing — which targets are
still answerable (:func:`seed_pairs`), how a node side expands — so the
single server and the shard router run the same loop.  A *side* is a tuple:
``("node", node_id, code, mbr)`` or ``("object", object_id, mbr, parent_id)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.items import FrontierTarget, TargetKind
from repro.core.remainder import FrontierItem
from repro.rtree.partition_tree import SuperEntry
from repro.workload.queries import JoinQuery

Side = Tuple


def target_side(target: FrontierTarget) -> Side:
    """The join side a frontier target names."""
    if target.kind is TargetKind.OBJECT:
        return ("object", target.object_id, target.mbr, target.parent_node_id)
    if target.kind is TargetKind.NODE:
        return ("node", target.node_id, "", target.mbr)
    return ("node", target.node_id, target.code, target.mbr)


def seed_pairs(frontier: Iterable[FrontierItem],
               resolve: Callable[[FrontierTarget], Optional[Side]]
               ) -> List[Tuple[Side, Side]]:
    """Turn a join frontier (items of one or two targets) into seed pairs.

    ``resolve`` maps a target to its side, or to ``None`` when the target is
    unanswerable (stale client state); an item with any unanswerable target
    is dropped whole.  A lone target is paired with itself.
    """
    seeds: List[Tuple[Side, Side]] = []
    for item in frontier:
        sides = [resolve(target) for target in item]
        if None not in sides:
            seeds.append((sides[0], sides[-1]))
    return seeds


def element_sides(elements: Iterable[Tuple[int, object]]) -> List[Side]:
    """The sides of ``_start_node``'s ``(owner_node_id, element)`` pairs."""
    sides: List[Side] = []
    for owner, element in elements:
        if isinstance(element, SuperEntry):
            sides.append(("node", owner, element.code, element.mbr))
        elif element.is_leaf_entry:
            sides.append(("object", element.object_id, element.mbr, owner))
        else:
            sides.append(("node", element.child_id, "", element.mbr))
    return sides


def join_pairs(query: JoinQuery, seeds: Iterable[Tuple[Side, Side]],
               expand: Callable[[Side], List[Side]]
               ) -> Tuple[Dict[int, Optional[int]], int]:
    """Run the pairwise join traversal from ``seeds``.

    Returns ``(results, examined)``: ``results`` maps every object within
    ``query.threshold`` of another object (both intersecting
    ``query.window``) to its parent node id; ``examined`` counts the pairs
    popped.  ``expand(side)``, the child sides of a node side, is the only
    call out of the loop.
    """
    window = query.window
    results: Dict[int, Optional[int]] = {}
    examined = 0

    def side_key(side: Side) -> Tuple:
        if side[0] == "node":
            return ("n", side[1], side[2])
        return ("o", side[1])

    # This predicate runs once per candidate pair — the hottest loop of
    # the whole server — so the window test and the MINDIST comparison
    # are inlined on hoisted coordinates and squared distances.
    w_min_x, w_min_y = window.min_x, window.min_y
    w_max_x, w_max_y = window.max_x, window.max_y
    threshold_sq = query.threshold * query.threshold

    def qualifies(a: Side, b: Side) -> bool:
        mbr_a = a[3] if a[0] == "node" else a[2]
        mbr_b = b[3] if b[0] == "node" else b[2]
        if (mbr_a.min_x > w_max_x or mbr_a.max_x < w_min_x
                or mbr_a.min_y > w_max_y or mbr_a.max_y < w_min_y):
            return False
        if (mbr_b.min_x > w_max_x or mbr_b.max_x < w_min_x
                or mbr_b.min_y > w_max_y or mbr_b.max_y < w_min_y):
            return False
        dx = mbr_a.min_x - mbr_b.max_x
        if dx < 0.0:
            dx = mbr_b.min_x - mbr_a.max_x
            if dx < 0.0:
                dx = 0.0
        dy = mbr_a.min_y - mbr_b.max_y
        if dy < 0.0:
            dy = mbr_b.min_y - mbr_a.max_y
            if dy < 0.0:
                dy = 0.0
        return dx * dx + dy * dy <= threshold_sq

    # Stack entries are (side_a, side_b, prequalified).  Children are
    # only pushed after passing the pair predicate, so re-evaluating it
    # on pop would always succeed — the flag skips that redundant check
    # while `examined` still counts every popped pair.
    stack: List[Tuple[Side, Side, bool]] = [(a, b, False) for a, b in seeds]
    seen: Set[Tuple] = set()

    while stack:
        side_a, side_b, prequalified = stack.pop()
        examined += 1
        if not prequalified and not qualifies(side_a, side_b):
            continue
        key_a, key_b = side_key(side_a), side_key(side_b)
        pair_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        if pair_key in seen:
            continue
        seen.add(pair_key)

        a_is_object = side_a[0] == "object"
        b_is_object = side_b[0] == "object"
        if a_is_object and b_is_object:
            if side_a[1] == side_b[1]:
                continue
            for side in (side_a, side_b):
                if side[1] not in results:
                    results[side[1]] = side[3]
            continue
        if not a_is_object:
            children, other = expand(side_a), side_b
        else:
            children, other = expand(side_b), side_a
        # Inline child-vs-other predicate: `other` survived the pair
        # check above, so only the child's window test and the mutual
        # MINDIST remain.
        o_mbr = other[3] if other[0] == "node" else other[2]
        o_min_x, o_min_y = o_mbr.min_x, o_mbr.min_y
        o_max_x, o_max_y = o_mbr.max_x, o_mbr.max_y
        push = stack.append
        for child in children:
            c_mbr = child[3] if child[0] == "node" else child[2]
            if (c_mbr.min_x > w_max_x or c_mbr.max_x < w_min_x
                    or c_mbr.min_y > w_max_y or c_mbr.max_y < w_min_y):
                continue
            dx = c_mbr.min_x - o_max_x
            if dx < 0.0:
                dx = o_min_x - c_mbr.max_x
                if dx < 0.0:
                    dx = 0.0
            dy = c_mbr.min_y - o_max_y
            if dy < 0.0:
                dy = o_min_y - c_mbr.max_y
                if dy < 0.0:
                    dy = 0.0
            if dx * dx + dy * dy <= threshold_sq:
                push((child, other, True))
    return results, examined
