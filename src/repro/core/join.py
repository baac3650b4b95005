"""The remainder distance self-join: one batched traversal, any topology.

:func:`join_pairs` resumes a join from the pair frontier the client could
not settle locally.  Its caller supplies the routing — which targets are
still answerable (:func:`seed_pairs`), how a node side expands — so the
single server and the shard router run the same kernel.  A *side* is a
tagged tuple: ``("node", node_id, code, mbr)`` or
``("object", object_id, mbr, parent_id)``.

The join is an index-nested-loop join: the first side of a pair is expanded
until it is an object (the *outer* side) and only then the second (the
*inner* side).  The kernel therefore exhausts every outer side first, and
descends each distinct inner side once, carrying at every inner element the
outer objects still within the threshold (:func:`within`), instead of once
per outer object.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    Final,
    Iterable,
    List,
    Literal,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.items import FrontierTarget, TargetKind
from repro.core.remainder import FrontierItem
from repro.geometry import Rect
from repro.rtree.partition_tree import PartitionElement, SuperEntry
from repro.workload.queries import JoinQuery

NodeSide = Tuple[Literal["node"], int, str, Rect]
ObjectSide = Tuple[Literal["object"], int, Rect, Optional[int]]
Side = Union[NodeSide, ObjectSide]
#: What identifies a side: ``("node", node_id, code)`` / ``("object", id)``.
SideKey = Union[Tuple[str, int, str], Tuple[str, int]]

#: One outer object while the inner side is descended: the four MBR
#: coordinates (plain floats, what :func:`within` reads), then its *slot* —
#: its position in the order outer objects are reached, which is the clock
#: every "which came first" question below is answered on — then the object
#: id and the parent node id.
Outer = Tuple[float, float, float, float, int, int, Optional[int]]
SLOT: Final = 4
OID: Final = 5
PARENT: Final = 6


def target_side(target: FrontierTarget) -> Side:
    """The join side a frontier target names."""
    if target.kind is TargetKind.OBJECT:
        assert target.object_id is not None
        return ("object", target.object_id, target.mbr, target.parent_node_id)
    assert target.node_id is not None
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
        sides = [side for side in map(resolve, item) if side is not None]
        if len(sides) == len(item):
            seeds.append((sides[0], sides[-1]))
    return seeds


def element_sides(elements: Iterable[Tuple[int, PartitionElement]]) -> List[Side]:
    """The sides of ``_start_node``'s ``(owner_node_id, element)`` pairs."""
    sides: List[Side] = []
    for owner, element in elements:
        if isinstance(element, SuperEntry):
            sides.append(("node", owner, element.code, element.mbr))
        elif element.object_id is not None:
            sides.append(("object", element.object_id, element.mbr, owner))
        else:
            assert element.child_id is not None
            sides.append(("node", element.child_id, "", element.mbr))
    return sides


def side_mbr(side: Side) -> Rect:
    """The MBR a side carries."""
    return side[3] if side[0] == "node" else side[2]


def side_key(side: Side) -> SideKey:
    """The identity of a side (its MBR and parent are not part of it)."""
    return side[:3] if side[0] == "node" else side[:2]


def as_outer(mbr: Rect, slot: int = -1, object_id: int = -1,
             parent_id: Optional[int] = None) -> Outer:
    """An object in the form the inner descent carries it.

    With the defaults: a bare MBR as a batch of one, so that :func:`within`
    is the only place the distance arithmetic is written.
    """
    return (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y, slot, object_id, parent_id)


def within(outers: List[Outer], mbr: Rect, threshold_sq: float) -> List[Outer]:
    """The ``outers`` whose MINDIST to ``mbr`` is within the threshold, in order.

    The join's pair predicate (``Rect.min_dist_sq_to_rect`` is its reference
    formulation) for a whole batch of outer objects.  This loop runs once
    per candidate pair — on the server, the router and the client it
    is the hottest of the system — so it works on hoisted coordinates and
    squared distances and calls no function.
    """
    min_x, min_y, max_x, max_y = mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y
    near: List[Outer] = []
    for outer in outers:
        dx = min_x - outer[2]
        if dx < 0.0:
            dx = outer[0] - max_x
            if dx < 0.0:
                dx = 0.0
        dy = min_y - outer[3]
        if dy < 0.0:
            dy = outer[1] - max_y
            if dy < 0.0:
                dy = 0.0
        if dx * dx + dy * dy <= threshold_sq:
            near.append(outer)
    return near


def join_pairs(query: JoinQuery, seeds: List[Tuple[Side, Side]],
               expand: Callable[[NodeSide], List[Side]]
               ) -> Tuple[Dict[int, Optional[int]], int, List[int]]:
    """Run the join from ``seeds``.

    Returns ``(results, examined, touched)``.  ``results`` maps every object
    within ``query.threshold`` of another object (both intersecting
    ``query.window``) to its parent node id.  ``examined`` counts the
    candidate pairs: one per seed plus one per pair that passed the
    predicate.  ``touched`` lists the expanded node ids in the order a
    pair-at-a-time depth-first walk of the seeds (last seed first) first
    reaches them — the order the supporting index ships in, which the
    client's cache inserts, and so its evictions, follow.

    ``expand(side)``, the child sides of a node side, is the only call out
    of the kernel and happens once per distinct ``(node_id, code)``.
    """
    window = query.window
    threshold_sq = query.threshold * query.threshold
    examined = 0

    children_of: Dict[Tuple[int, str], List[Side]] = {}
    # When a pair-at-a-time walk first expands a node, as (2 * slot + phase,
    # tick): an outer-side expansion (phase 0) comes before the inner
    # descent (phase 1) of the next outer object reached; ticks order the
    # expansions within one of those.
    first_touch: Dict[Tuple[int, str], Tuple[int, int]] = {}
    ticks = itertools.count()

    def children(side: NodeSide, when: int) -> List[Side]:
        key = side[1:3]
        touch = (when, next(ticks))
        sides = children_of.get(key)
        if sides is None:
            sides = children_of[key] = expand(side)
            first_touch[key] = touch
        elif touch < first_touch[key]:
            first_touch[key] = touch
        return sides

    # Outer sides: exhaust every seed's first side against its second side's
    # MBR, last seed first, and hand the objects reached to the group of
    # that second side.  Seeds may repeat, overlap, or name a node pair in
    # both orientations: a pair already walked is counted and dropped.
    groups: Dict[SideKey, Tuple[Side, List[Outer]]] = {}
    walked: Set[Tuple[SideKey, SideKey]] = set()
    slots = 0
    for side_a, side_b in reversed(seeds):
        examined += 1
        if side_a[0] == "node" and side_b[0] == "object":
            # MINDIST is symmetric: descending the node against the object
            # examines the same pairs from either end, and taken from the
            # object's end every object paired with this node shares one
            # descent of it.
            side_a, side_b = side_b, side_a
        mbr_a, mbr_b = side_mbr(side_a), side_mbr(side_b)
        bound = [as_outer(mbr_b)]
        if not (mbr_a.intersects(window) and mbr_b.intersects(window)
                and within(bound, mbr_a, threshold_sq)):
            continue
        key_b = side_key(side_b)
        group = groups.get(key_b)
        if group is None:
            group = groups[key_b] = (side_b, [])
        stack = [side_a]
        while stack:
            side = stack.pop()
            key = side_key(side)
            pair = (key, key_b) if key <= key_b else (key_b, key)
            if pair in walked:
                continue
            walked.add(pair)
            if side[0] == "object":
                if key != key_b:
                    group[1].append(as_outer(side[2], slots, side[1], side[3]))
                    slots += 1
                continue
            for child in children(side, 2 * slots):
                mbr = child[3] if child[0] == "node" else child[2]
                if mbr.intersects(window) and within(bound, mbr, threshold_sq):
                    examined += 1
                    stack.append(child)

    # Inner sides: descend each once, carrying the outer objects in reach.
    # `best` keeps, per result object, the parent named by the side that a
    # pair-at-a-time walk reaches first, which is the one at the lowest slot.
    best: Dict[int, Tuple[int, Optional[int]]] = {}
    for side_b, outers in groups.values():
        descent: List[Tuple[Side, List[Outer]]] = [(side_b, outers)] if outers else []
        while descent:
            inner, outers = descent.pop()
            if inner[0] == "node":
                for child in children(inner, 2 * outers[0][SLOT] + 1):
                    mbr = child[3] if child[0] == "node" else child[2]
                    if mbr.intersects(window):
                        near = within(outers, mbr, threshold_sq)
                        if near:
                            examined += len(near)
                            descent.append((child, near))
                continue
            # An inner object: it and every outer object in reach of it,
            # itself excepted, are results.
            partners = [(outer[SLOT], outer[OID], outer[PARENT])
                        for outer in outers if outer[OID] != inner[1]]
            if partners:
                for slot, object_id, parent in [(partners[0][0], inner[1], inner[3])] + partners:
                    known = best.get(object_id)
                    if known is None or slot < known[0]:
                        best[object_id] = (slot, parent)

    touched = list(dict.fromkeys(
        key[0] for key in sorted(first_touch, key=first_touch.__getitem__)))
    results = {object_id: parent for object_id, (_, parent) in best.items()}
    return results, examined, touched
