"""The join kernel on its own: a fake ``expand``, no tree, no shards.

``join_pairs`` is checked against the pair-at-a-time reference walk
(``join_reference.py``: every pair popped, re-tested and looked up in a
seen-set) and against brute-force enumeration of object pairs, over a
hand-built two-level hierarchy.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.items import FrontierTarget
from repro.core.join import element_sides, join_pairs, seed_pairs, target_side
from repro.geometry import Rect
from repro.rtree.entry import Entry
from repro.rtree.partition_tree import SuperEntry
from repro.workload.queries import JoinQuery

from tests.core.join_reference import reference_kernel


def box(x, y, half=0.004):
    return Rect(x - half, y - half, x + half, y + half)


# Root page 1 over leaf pages 10 / 20 / 30; leaf 10 is shipped as two super
# entries ("0", "1"), the way a compact-form expansion would list it.
OBJECTS = {
    1: (box(0.20, 0.20), 10), 2: (box(0.22, 0.20), 10), 3: (box(0.30, 0.30), 10),
    4: (box(0.31, 0.31), 20), 5: (box(0.60, 0.60), 20),
    6: (box(0.62, 0.60), 30), 7: (box(0.95, 0.95), 30),   # 7 is outside the window
}
GROUPS = {(10, "0"): [1, 2], (10, "1"): [3], (20, ""): [4, 5], (30, ""): [6, 7]}


def object_side(object_id):
    mbr, parent = OBJECTS[object_id]
    return ("object", object_id, mbr, parent)


def node_side(node_id, code=""):
    members = [oid for (nid, c), ids in GROUPS.items()
               if nid == node_id and c.startswith(code) for oid in ids]
    if node_id == 1:
        members = list(OBJECTS)
    return ("node", node_id, code, Rect.bounding(OBJECTS[oid][0] for oid in members))


CHILDREN = {
    (1, ""): [node_side(10), node_side(20), node_side(30)],
    (10, ""): [node_side(10, "0"), node_side(10, "1")],
    **{key: [object_side(oid) for oid in ids] for key, ids in GROUPS.items()},
}
ROOT = node_side(1)
QUERY = JoinQuery(window=Rect(0.1, 0.1, 0.7, 0.7), threshold=0.03)


class FakeExpand:
    def __init__(self):
        self.calls = []

    def __call__(self, side):
        assert side[0] == "node", "only node sides are ever expanded"
        self.calls.append((side[1], side[2]))
        return CHILDREN[(side[1], side[2])]


def brute_force(query, object_ids):
    """Every object within the threshold of another, both in the window."""
    inside = [oid for oid in object_ids
              if OBJECTS[oid][0].intersects(query.window)]
    hits = set()
    for a, b in itertools.combinations(inside, 2):
        if OBJECTS[a][0].min_dist_to_rect(OBJECTS[b][0]) <= query.threshold:
            hits.update((a, b))
    return {oid: OBJECTS[oid][1] for oid in hits}


@pytest.mark.parametrize("seeds,reachable", [
    pytest.param([(ROOT, ROOT)], list(OBJECTS), id="root-pair"),
    pytest.param([(node_side(10), node_side(10))], [1, 2, 3], id="lone-node"),
    pytest.param([(ROOT, ROOT), (ROOT, ROOT)], list(OBJECTS), id="duplicate-seed"),
    pytest.param([(node_side(10, "1"), node_side(20)), (object_side(5), node_side(30))],
                 None, id="cross-page-pairs"),
    pytest.param([(object_side(1), object_side(1))], [1], id="identity-pair"),
    pytest.param([], [], id="empty-frontier"),
])
def test_join_pairs_matches_reference_and_brute_force(seeds, reachable):
    expand = FakeExpand()
    results, examined, touched = join_pairs(QUERY, seeds, expand)
    assert (results, examined, touched) == reference_kernel(QUERY, seeds, FakeExpand())
    assert len(expand.calls) == len(set(expand.calls)), "one expansion per node side"
    if reachable is not None:
        assert results == brute_force(QUERY, reachable)


def test_root_pair_finds_the_expected_objects():
    results, _, touched = join_pairs(QUERY, [(ROOT, ROOT)], FakeExpand())
    # 1-2 within leaf 10, 3-4 across leaves 10/20, 5-6 across leaves 20/30.
    assert results == {1: 10, 2: 10, 3: 10, 4: 20, 5: 20, 6: 30}
    # The pair-at-a-time walk descends the last child first.
    assert touched == [1, 30, 20, 10]


def test_duplicate_seed_costs_one_examined_pair_and_nothing_else():
    once = join_pairs(QUERY, [(ROOT, ROOT)], FakeExpand())
    twice = join_pairs(QUERY, [(ROOT, ROOT), (ROOT, ROOT)], FakeExpand())
    assert twice == (once[0], once[1] + 1, once[2])


def test_identity_pair_yields_nothing():
    assert join_pairs(QUERY, [(object_side(1), object_side(1))],
                      FakeExpand()) == ({}, 1, [])


def test_objects_paired_with_one_node_share_its_descent():
    # Three (node, object) seeds on leaf 20: the kernel walks them from the
    # object's end, so the leaf is expanded once for all three.
    seeds = [(node_side(20), object_side(oid)) for oid in (3, 5, 6)]
    expand = FakeExpand()
    assert join_pairs(QUERY, seeds, expand) == reference_kernel(QUERY, seeds, FakeExpand())
    assert expand.calls == [(20, "")]


def test_the_first_side_to_reach_an_object_names_its_parent():
    # A stale client can claim a parent the tree no longer agrees with; the
    # walk reports whichever side it reaches first (the later seed).
    claimed = ("object", 4, OBJECTS[4][0], 99)
    for seeds in ([(node_side(10), node_side(20)), (object_side(3), claimed)],
                  [(object_side(3), claimed), (node_side(10), node_side(20))]):
        results, examined, _ = join_pairs(QUERY, seeds, FakeExpand())
        assert (results, examined) == reference_kernel(QUERY, seeds, FakeExpand())[:2]
    assert results[4] == 20 and join_pairs(QUERY, seeds[::-1], FakeExpand())[0][4] == 99


def test_seed_pairs_pairs_lone_targets_and_drops_unanswerable_items():
    node = FrontierTarget.for_node(10, node_side(10)[3])
    part = FrontierTarget.for_super(10, "1", node_side(10, "1")[3])
    live = FrontierTarget.for_object(4, OBJECTS[4][0], 20)
    dead = FrontierTarget.for_object(99, box(0.3, 0.3), 20)

    def resolve(target):
        return None if target is dead else target_side(target)

    seeds = seed_pairs([(node,), (part, live), (dead,), (live, dead), (dead, node)],
                       resolve)
    assert seeds == [(node_side(10), node_side(10)),
                     (node_side(10, "1"), object_side(4))]
    results, _, _ = join_pairs(QUERY, seeds, FakeExpand())
    assert results == brute_force(QUERY, [1, 2, 3, 4])


def test_element_sides_converts_every_element_kind():
    elements = [(7, SuperEntry(node_id=7, code="0", mbr=box(0.2, 0.2))),
                (7, Entry(mbr=box(0.4, 0.4), child_id=8)),
                (9, Entry(mbr=box(0.2, 0.2), object_id=1))]
    assert element_sides(elements) == [("node", 7, "0", box(0.2, 0.2)),
                                       ("node", 8, "", box(0.4, 0.4)),
                                       ("object", 1, box(0.2, 0.2), 9)]
