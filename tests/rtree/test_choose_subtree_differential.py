"""The inlined ChooseSubtree against the ``Rect``-method one it replaced.

``repro.rtree.tree.subtree_keys`` claims bit-equal keys, so everything here
compares with ``==`` and ``is``: per node, the key of every entry and the
entry object chosen; per tree, the encoded bytes of every page after the
same inserts, deletes and modifies with either ChooseSubtree in place.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import RTree, SizeModel, assert_tree_valid
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node
from repro.rtree.serialize import encode_node
from repro.rtree.tree import subtree_keys

from tests.rtree.choose_subtree_reference import reference_keys, reference_pick_child

# A coarse grid makes shared edges, duplicates, containment and exact key
# ties common instead of measure-zero; the fine one keeps rounding honest.
_GRID = st.integers(0, 8).map(lambda i: i / 8)
_FINE = st.floats(0.0, 1.0, allow_nan=False, width=64)


@st.composite
def _rects(draw, coordinate):
    xs = sorted((draw(coordinate), draw(coordinate)))
    ys = sorted((draw(coordinate), draw(coordinate)))
    if draw(st.integers(0, 5)) == 0:  # a zero-area box now and then
        xs[1], ys[1] = xs[0], ys[0]
    return Rect(xs[0], ys[0], xs[1], ys[1])


@st.composite
def _node_and_insert(draw):
    coordinate = draw(st.sampled_from([_GRID, _FINE]))
    boxes = draw(st.lists(_rects(coordinate), min_size=2, max_size=60))
    for _ in range(draw(st.integers(0, 3))):  # exact duplicates of an entry
        boxes.insert(draw(st.integers(0, len(boxes))),
                     boxes[draw(st.integers(0, len(boxes) - 1))])
    inserted = draw(st.one_of(_rects(coordinate), st.sampled_from(boxes)))
    level = draw(st.sampled_from([1, 1, 2, 3]))
    node = Node(node_id=1, level=level,
                entries=[Entry(mbr=box, child_id=10 + index)
                         for index, box in enumerate(boxes)])
    return node, inserted


def _check(node, inserted):
    tree = RTree(size_model=SizeModel(page_bytes=256))
    expected = reference_keys(node, inserted)
    keys = subtree_keys(node.entries, inserted, leaf_parent=node.level == 1)
    assert keys == expected
    assert tree._pick_child(node, inserted) \
        is reference_pick_child(tree, node, inserted)


@settings(max_examples=300, deadline=None)
@given(_node_and_insert())
def test_same_keys_and_same_entry_object(case):
    _check(*case)


@pytest.mark.parametrize("level", [1, 2])
def test_relations_to_the_inserted_box_and_exact_ties(level):
    inserted = Rect(0.25, 0.25, 0.5, 0.5)
    boxes = [
        Rect(0.0, 0.0, 1.0, 1.0),          # contains the inserted box
        Rect(0.3, 0.3, 0.4, 0.4),          # contained in it
        Rect(0.5, 0.25, 0.75, 0.5),        # shares an edge
        Rect(0.5, 0.5, 0.75, 0.75),        # shares a corner
        Rect(0.25, 0.25, 0.5, 0.5),        # equals it ...
        Rect(0.25, 0.25, 0.5, 0.5),        # ... twice: an exact key tie
        Rect(0.75, 0.75, 0.75, 0.75),      # a point, disjoint
        Rect(0.375, 0.0, 0.375, 1.0),      # a zero-width line through it
    ]
    node = Node(node_id=1, level=level,
                entries=[Entry(mbr=box, child_id=10 + index)
                         for index, box in enumerate(boxes)])
    _check(node, inserted)
    # The tie is real, and the first of the tied entries wins it.
    keys = subtree_keys(node.entries, inserted, leaf_parent=level == 1)
    assert keys[4] == keys[5]
    mirrored = Node(node_id=1, level=level, entries=node.entries[4:6])
    assert RTree(size_model=SizeModel(page_bytes=256))._pick_child(
        mirrored, inserted) is node.entries[4]


def _churned_tree(pick_child, monkeypatch):
    """2 000 inserts, then 400 deletes and 400 modifies, through ``RTree``."""
    if pick_child is not None:
        monkeypatch.setattr(RTree, "_pick_child", pick_child)
    rng = random.Random(2205)

    def record(object_id):
        x, y = rng.random(), rng.random()
        return ObjectRecord(object_id, Rect(x, y, min(1.0, x + 0.01 * rng.random()),
                                            min(1.0, y + 0.01 * rng.random())), 500)

    tree = RTree(size_model=SizeModel(page_bytes=512))
    for object_id in range(2000):
        tree.insert(record(object_id))
    victims = rng.sample(range(2000), 800)
    for object_id in victims[:400]:
        assert tree.delete(object_id)
    for object_id in victims[400:]:  # modify = delete + reinsert, as the applier does
        assert tree.delete(object_id)
        tree.insert(record(object_id))
    monkeypatch.undo()
    return tree


def test_whole_tree_is_byte_identical_under_either_choose_subtree(monkeypatch):
    reference = _churned_tree(reference_pick_child, monkeypatch)
    inlined = _churned_tree(None, monkeypatch)
    assert_tree_valid(inlined)
    assert inlined.height >= 3  # upper-level choices were exercised too
    assert (inlined.root_id, inlined.height) == (reference.root_id, reference.height)
    assert inlined.store.node_ids() == reference.store.node_ids()
    for node_id in inlined.store.node_ids():
        assert encode_node(inlined.store.peek(node_id)) \
            == encode_node(reference.store.peek(node_id)), node_id
    assert list(inlined.objects) == list(reference.objects)
    # The page-id cursor: the next page either store would hand out.
    assert inlined.store.allocate(level=0).node_id \
        == reference.store.allocate(level=0).node_id
