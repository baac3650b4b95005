"""Optimised query kernels must return exactly what the seed kernels did.

The PR 2 rewrites — squared-distance kNN with k-th-best pruning, the
inlined range-search window test, the squared join predicate and the
prefix/suffix-bounds R* split — all claim decision identity with the seed
implementations.  These tests keep verbatim ports of the seed algorithms
and compare outputs (including visited-node sets, which feed the supporting
index the server ships) on randomized trees and queries.
"""

import heapq
import itertools
import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree, assert_tree_valid, bulk_load_str
from repro.rtree.entry import Entry, ObjectRecord
from tests.rtree.rtree_join import bfrj_join, distance_predicate, rtree_join
from tests.geometry.rect_reference import intersection_area, margin as rect_margin
from repro.rtree.knn import knn_search
from repro.rtree.range_search import range_search
from repro.rtree.sizes import SizeModel
from repro.rtree.split import rstar_split


def make_tree(count, seed, page_bytes=512):
    rng = random.Random(seed)
    records = []
    for object_id in range(count):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * 0.01, rng.random() * 0.01
        records.append(ObjectRecord(
            object_id=object_id,
            mbr=Rect(x, y, min(1.0, x + w), min(1.0, y + h)),
            size_bytes=1000))
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=page_bytes))
    assert_tree_valid(tree)
    return tree, records


# --------------------------------------------------------------------- #
# reference (seed) kernels
# --------------------------------------------------------------------- #
def seed_knn_search(tree, query_point, k, visited_nodes=None):
    if k <= 0:
        return []
    results = []
    if not tree.root.entries:
        return results
    counter = itertools.count()
    heap = []
    heapq.heappush(heap, (0.0, next(counter), tree.root_id, None))
    while heap and len(results) < k:
        distance, _, node_id, object_id = heapq.heappop(heap)
        if object_id is not None:
            results.append((object_id, distance))
            continue
        node = tree.node(node_id)
        if visited_nodes is not None:
            visited_nodes.add(node_id)
        for entry in node.entries:
            entry_distance = entry.mbr.min_dist_to_point(query_point)
            if entry.is_leaf_entry:
                heapq.heappush(heap, (entry_distance, next(counter), None, entry.object_id))
            else:
                heapq.heappush(heap, (entry_distance, next(counter), entry.child_id, None))
    return results


def seed_range_search(tree, window, visited_nodes=None):
    results = []
    if not tree.root.entries:
        return results
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        node = tree.node(node_id)
        if visited_nodes is not None:
            visited_nodes.add(node_id)
        for entry in node.entries:
            if not entry.mbr.intersects(window):
                continue
            if entry.is_leaf_entry:
                results.append(entry.object_id)
            else:
                stack.append(entry.child_id)
    return results


def seed_distance_predicate(threshold):
    def predicate(a, b):
        return a.min_dist_to_rect(b) <= threshold
    return predicate


def seed_rstar_split(entries, min_fill):
    entries = list(entries)
    total = len(entries)
    min_fill = max(1, min(min_fill, total - 1))

    def group_mbr(group):
        return Rect.bounding(e.mbr for e in group)

    def margin(group):
        return rect_margin(group_mbr(group)) if group else 0.0

    best_axis = None
    best_axis_margin = float("inf")
    axis_sortings = {}
    for axis in ("x", "y"):
        if axis == "x":
            by_lower = sorted(entries, key=lambda e: (e.mbr.min_x, e.mbr.max_x))
            by_upper = sorted(entries, key=lambda e: (e.mbr.max_x, e.mbr.min_x))
        else:
            by_lower = sorted(entries, key=lambda e: (e.mbr.min_y, e.mbr.max_y))
            by_upper = sorted(entries, key=lambda e: (e.mbr.max_y, e.mbr.min_y))
        margin_sum = 0.0
        for ordering in (by_lower, by_upper):
            for split_at in range(min_fill, total - min_fill + 1):
                margin_sum += margin(ordering[:split_at]) + margin(ordering[split_at:])
        axis_sortings[axis] = (by_lower, by_upper)
        if margin_sum < best_axis_margin:
            best_axis_margin = margin_sum
            best_axis = axis

    by_lower, by_upper = axis_sortings[best_axis]
    best_split = ([], [])
    best_overlap = float("inf")
    best_area = float("inf")
    for ordering in (by_lower, by_upper):
        for split_at in range(min_fill, total - min_fill + 1):
            left, right = ordering[:split_at], ordering[split_at:]
            left_mbr, right_mbr = group_mbr(left), group_mbr(right)
            overlap = intersection_area(left_mbr, right_mbr)
            area = left_mbr.area() + right_mbr.area()
            if overlap < best_overlap or (overlap == best_overlap and area < best_area):
                best_overlap = overlap
                best_area = area
                best_split = (list(left), list(right))
    return best_split


# --------------------------------------------------------------------- #
# equivalence tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", (1, 9, 33))
def test_knn_identical_to_seed_kernel(seed):
    tree, _ = make_tree(400, seed)
    rng = random.Random(seed * 7 + 1)
    for _ in range(40):
        point = Point(rng.random(), rng.random())
        k = rng.randint(1, 25)
        seed_visited, new_visited = set(), set()
        expected = seed_knn_search(tree, point, k, visited_nodes=seed_visited)
        got = knn_search(tree, point, k, visited_nodes=new_visited)
        assert [oid for oid, _ in got] == [oid for oid, _ in expected]
        assert [d for _, d in got] == pytest.approx([d for _, d in expected])
        assert new_visited == seed_visited, (
            "pruning must not change the supporting-index pages visited")


@pytest.mark.parametrize("seed", (2, 17))
def test_range_identical_to_seed_kernel(seed):
    tree, _ = make_tree(400, seed)
    rng = random.Random(seed + 100)
    for _ in range(40):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * 0.2, rng.random() * 0.2
        window = Rect(x, y, min(1.0, x + w), min(1.0, y + h))
        seed_visited, new_visited = set(), set()
        expected = seed_range_search(tree, window, visited_nodes=seed_visited)
        got = range_search(tree, window, visited_nodes=new_visited)
        assert got == expected  # order included
        assert new_visited == seed_visited


@pytest.mark.parametrize("seed", (4, 23))
@pytest.mark.parametrize("algorithm", (rtree_join, bfrj_join))
def test_join_identical_with_squared_predicate(seed, algorithm):
    tree, _ = make_tree(250, seed)
    rng = random.Random(seed)
    for _ in range(6):
        threshold = rng.random() * 0.05
        expected = algorithm(tree, tree, seed_distance_predicate(threshold),
                             self_join=True)
        got = algorithm(tree, tree, distance_predicate(threshold), self_join=True)
        assert got == expected  # same pairs, same order


@pytest.mark.parametrize("seed", (5, 12, 31))
def test_rstar_split_identical_to_seed_kernel(seed):
    rng = random.Random(seed)
    for trial in range(30):
        count = rng.randint(4, 40)
        entries = []
        for index in range(count):
            x, y = rng.random(), rng.random()
            w, h = rng.random() * 0.3, rng.random() * 0.3
            entries.append(Entry(mbr=Rect(x, y, x + w, y + h), object_id=index))
        min_fill = rng.randint(1, max(1, count // 2))
        expected = seed_rstar_split(entries, min_fill)
        got = rstar_split(entries, min_fill)
        assert got[0] == expected[0] and got[1] == expected[1], (
            f"trial {trial}: split decision diverged")


@pytest.mark.parametrize("seed", (5, 12))
def test_rstar_split_preserves_tree_invariants_under_mutation(seed):
    """The split decisions above, exercised in situ: every insert-driven
    split and delete-driven condense must leave a structurally valid tree
    (checked with the shared assert_tree_valid helper after each mutation).
    """
    _, records = make_tree(120, seed)
    tree = RTree(size_model=SizeModel(page_bytes=256))
    for record in records:
        tree.insert(record)
        assert_tree_valid(tree)
    rng = random.Random(seed)
    for object_id in rng.sample(range(120), 60):
        assert tree.delete(object_id)
        assert_tree_valid(tree)
    assert len(tree) == 60
