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
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect
from repro.rtree import RTree, assert_tree_valid, bulk_load_str
from repro.rtree.entry import Entry, ObjectRecord
from tests.rtree.rtree_join import bfrj_join, distance_predicate, rtree_join
from tests.geometry.rect_reference import intersection_area, margin as rect_margin
from repro.rtree.knn import knn_search
from repro.rtree.node import Node
from repro.rtree.partition_tree import PartitionTree
from repro.rtree.range_search import range_search
from repro.rtree.sizes import SizeModel
from repro.rtree.split import rstar_split
from repro.sim.config import SimulationConfig, dataset_records


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


def tie_heavy_entries(rng, count):
    """``count`` entries whose coordinates come from a grid of 3–5 values
    (``-0.0`` and ``0.0`` among the candidates), so zero-width rectangles,
    shared edges and exact duplicates are common."""
    grid = rng.sample([-0.0, 0.0, 0.25, 0.5, 1.0], rng.randint(3, 5))
    entries = []
    for index in range(count):
        if entries and rng.random() < 0.3:
            mbr = rng.choice(entries).mbr  # a duplicate rectangle
        else:
            min_x, max_x = sorted((rng.choice(grid), rng.choice(grid)))
            min_y, max_y = sorted((rng.choice(grid), rng.choice(grid)))
            mbr = Rect(min_x, min_y, max_x, max_y)
        entries.append(Entry(mbr=mbr, object_id=index))
    return entries


def expected_split(entries, min_fill):
    """The seed split, or — when ``min_fill`` leaves no candidate, where the
    seed port returns two empty groups — the lower-x ordering cut at
    ``min_fill``."""
    total = len(entries)
    clamped = max(1, min(min_fill, total - 1))
    if 2 * clamped > total:
        by_lower_x = sorted(entries, key=lambda e: (e.mbr.min_x, e.mbr.max_x))
        return by_lower_x[:clamped], by_lower_x[clamped:]
    return seed_rstar_split(entries, min_fill)


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
    # Ties: duplicates, zero widths, shared edges and signed zeros, at the
    # smallest sizes and at every min_fill regime.
    for trial in range(200):
        count = (2, 3, rng.randint(4, 12))[trial % 3]
        entries = tie_heavy_entries(rng, count)
        for min_fill in sorted({1, max(1, count // 2), count - 1}):
            expected = expected_split(entries, min_fill)
            got = rstar_split(entries, min_fill)
            assert got[0] == expected[0] and got[1] == expected[1], (
                f"tie trial {trial}, min_fill {min_fill}: split diverged")


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


# --------------------------------------------------------------------- #
# partition trees
# --------------------------------------------------------------------- #
def reference_partition_tree(entries):
    """The partition tree as the seed built it: ``seed_rstar_split``
    recursively, every code's MBR from ``Rect.bounding``."""
    subsets, mbrs, codes = {}, {}, {}

    def build(code, group):
        subsets[code] = group
        mbrs[code] = Rect.bounding(e.mbr for e in group)
        if len(group) == 1:
            codes[group[0].key()] = code
            return
        count = len(group)
        min_fill = max(1, count // 2) if count <= 3 else max(1, count // 3)
        left, right = seed_rstar_split(group, min_fill)
        build(code + "0", left)
        build(code + "1", right)

    build("", list(entries))
    return subsets, mbrs, codes, max(len(code) for code in subsets)


def packed(rect):
    """The four coordinates' bits, so ``-0.0`` and ``0.0`` differ."""
    return struct.pack("<4d", rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def assert_same_partition_tree(node):
    tree = PartitionTree(node)
    subsets, mbrs, codes, height = reference_partition_tree(node.entries)
    assert list(tree.subsets.items()) == list(subsets.items())  # order too
    assert [(code, packed(mbr)) for code, mbr in tree.mbrs.items()] == [
        (code, packed(mbr)) for code, mbr in mbrs.items()]
    assert {entry.key(): tree.entry_code(entry) for entry in node.entries} == codes
    assert tree.height == height


@pytest.mark.parametrize("dataset", ("NE", "RD", "UNIFORM"))
def test_partition_trees_identical_to_seed_recursion(dataset):
    """Every node of a scaled tree: subsets in pre-order, the bits of every
    MBR, every entry's code and the height."""
    config = SimulationConfig.scaled().with_overrides(dataset_name=dataset)
    tree = bulk_load_str(dataset_records(config),
                         size_model=SizeModel(page_bytes=config.page_bytes))
    for node in tree.all_nodes():
        assert_same_partition_tree(node)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_partition_tree_identical_to_seed_recursion_on_ties(count, seed):
    entries = tie_heavy_entries(random.Random(seed), count)
    assert_same_partition_tree(Node(node_id=1, level=0, entries=entries))
