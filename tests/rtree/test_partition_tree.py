"""Tests for the binary partition tree and compact forms (paper Section 4.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.partition_tree import PartitionTree, SuperEntry, build_partition_trees

from tests.conftest import make_records


def _node(entry_count, seed=0, node_id=77):
    records = make_records(entry_count, seed=seed)
    entries = [Entry(mbr=r.mbr, object_id=r.object_id) for r in records]
    return Node(node_id=node_id, level=0, entries=entries)


@pytest.fixture()
def node10():
    return _node(10)


@pytest.fixture()
def pt10(node10):
    return PartitionTree(node10)


def test_empty_node_rejected():
    with pytest.raises(ValueError):
        PartitionTree(Node(node_id=1, level=0, entries=[]))


def test_single_entry_node():
    pt = PartitionTree(_node(1))
    assert pt.is_leaf_code("")
    assert pt.height == 0
    assert len(pt.root_elements()) == 1
    assert isinstance(pt.root_elements()[0], Entry)


def test_internal_node_count_is_n_minus_one(pt10):
    assert pt10.internal_node_count() == 9


def test_leaf_codes_cover_all_entries(pt10, node10):
    leaf_entries = {pt10.entry_at(code).key()
                    for code in pt10.subsets if pt10.is_leaf_code(code)}
    assert leaf_entries == {entry.key() for entry in node10.entries}


def test_entry_code_round_trip(pt10, node10):
    for entry in node10.entries:
        code = pt10.entry_code(entry)
        assert pt10.entry_at(code).key() == entry.key()


def test_children_partition_parent(pt10):
    for code in pt10.subsets:
        if pt10.is_leaf_code(code):
            continue
        children = pt10.children(code)
        assert len(children) == 2
        child_keys = set()
        for child in children:
            if isinstance(child, SuperEntry):
                child_keys.update(e.key() for e in pt10.entries_under(child.code))
            else:
                child_keys.add(child.key())
        assert child_keys == {e.key() for e in pt10.entries_under(code)}


def test_children_of_leaf_code_raises(pt10):
    leaf_code = next(code for code in pt10.subsets if pt10.is_leaf_code(code))
    with pytest.raises(ValueError):
        pt10.children(leaf_code)


def test_mbrs_cover_subsets(pt10):
    for code, entries in pt10.subsets.items():
        mbr = pt10.mbrs[code]
        for entry in entries:
            assert mbr.contains(entry.mbr)


def test_compact_form_covers_node_exactly_once(pt10):
    # Expand only the root: the compact form is the two top-level children.
    cut = pt10.compact_form(expanded_codes={""})
    covered = []
    for code, element in cut:
        covered.extend(e.key() for e in pt10.entries_under(code))
    assert sorted(covered) == sorted(e.key() for e in pt10.entries_under(""))


def test_compact_form_with_deeper_expansion(pt10):
    expanded = {"", "0"}
    cut = pt10.compact_form(expanded_codes=expanded)
    codes = [code for code, _ in cut]
    # "0" was expanded so it must not appear as a cut element, while "1"
    # (never expanded) must appear exactly once.
    assert "0" not in codes
    assert codes.count("1") == 1
    covered = [e.key() for code, _ in cut for e in pt10.entries_under(code)]
    assert sorted(covered) == sorted(e.key() for e in pt10.entries_under(""))


def test_full_form_lists_every_entry(pt10, node10):
    full = pt10.full_form()
    assert len(full) == len(node10.entries)
    assert all(isinstance(element, Entry) for _, element in full)


def test_d_level_form_interpolates(pt10):
    compact = pt10.d_level_form(expanded_codes={""}, d=0)
    refined = pt10.d_level_form(expanded_codes={""}, d=1)
    full = pt10.d_level_form(expanded_codes={""}, d=pt10.height)
    assert len(compact) <= len(refined) <= len(full)
    assert len(full) == len(pt10.full_form())


def test_d_level_form_covers_exactly(pt10):
    for d in range(pt10.height + 1):
        cut = pt10.d_level_form(expanded_codes={""}, d=d)
        covered = [e.key() for code, _ in cut for e in pt10.entries_under(code)]
        assert sorted(covered) == sorted(e.key() for e in pt10.entries_under(""))


def test_subtree_codes_restricted(pt10):
    cut = pt10.subtree_codes("0", expanded_codes=set(), d=0)
    covered = {e.key() for code in cut for e in pt10.entries_under(code)}
    assert covered == {e.key() for e in pt10.entries_under("0")}


def test_subtree_codes_at_the_root_are_the_d_level_form(pt10):
    internal = [code for code in sorted(pt10.subsets) if not pt10.is_leaf_code(code)]
    for expanded in ({""}, set(internal[:3]), set(internal)):
        for d in range(pt10.height + 1):
            assert pt10.subtree_codes("", expanded, d) == \
                [code for code, _ in pt10.d_level_form(expanded, d)]


def test_expand_element_reaches_entries(pt10):
    expanded = pt10.expand_element("", levels=pt10.height)
    assert all(isinstance(element, Entry) for _, element in expanded)
    assert len(expanded) == 10


def test_size_bytes_bounded_by_twice_index(small_tree):
    size_model = SizeModel(page_bytes=256)
    partition_trees = build_partition_trees(small_tree.all_nodes())
    pt_bytes = sum(pt.size_bytes(size_model.entry_bytes, size_model.pointer_bytes)
                   for pt in partition_trees.values())
    assert pt_bytes <= 2 * small_tree.index_bytes()


def test_build_partition_trees_skips_empty_nodes():
    empty = Node(node_id=5, level=0, entries=[])
    filled = _node(4, node_id=6)
    trees = build_partition_trees([empty, filled])
    assert set(trees) == {6}


def test_compact_form_space_saving_example():
    # The paper's Figure 5: a node with 5 entries whose compact form (after an
    # NN-style access pattern touching one entry) has 3 elements — a 40% saving.
    node = _node(5)
    pt = PartitionTree(node)
    # Expand the root and one of its children that is not a leaf.
    non_leaf_child = "0" if not pt.is_leaf_code("0") else "1"
    cut = pt.compact_form(expanded_codes={"", non_leaf_child})
    assert len(cut) < 5


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=6))
def test_property_every_cut_is_a_partition(entry_count, seed, d):
    pt = PartitionTree(_node(entry_count, seed=seed))
    cut = pt.d_level_form(expanded_codes={""}, d=d)
    covered = [e.key() for code, _ in cut for e in pt.entries_under(code)]
    assert len(covered) == len(set(covered)) == entry_count
