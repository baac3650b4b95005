"""Counts, not clocks: what building every partition tree costs in ``Rect``s
and R* splits.

The partition trees (paper Section 4.2) are built once per node, offline,
and that build is most of a benchmark lap's setup.  The scaled NE tree at
8 000 objects has 341 nodes and 8 340 entries, so its partition trees have
8 340 leaf codes and 7 999 internal codes.  Until the split kernel worked on
index lists the build gave every one of the 16 339 codes a fresh ``Rect``
from ``Rect.bounding`` and ran the R* split for each of the 7 999 internal
codes.  Now a leaf code reuses its entry's ``mbr`` (7 999 ``Rect``s, one per
internal code: entries − nodes), and a two-entry code is split in closed
form, so the kernel runs only for the 4 980 codes with three or more
entries.  Both counts repeat exactly, where a wall clock would drown a
regression in noise.
"""

import pytest

from repro.geometry import Rect
from repro.rtree import partition_tree
from repro.rtree.bulk import bulk_load_str
from repro.rtree.partition_tree import build_partition_trees
from repro.rtree.sizes import SizeModel
from repro.sim.config import SimulationConfig, dataset_records

pytestmark = pytest.mark.slow


def test_partition_tree_build_call_counts(monkeypatch):
    config = SimulationConfig.scaled(object_count=8000)
    tree = bulk_load_str(dataset_records(config),
                         size_model=SizeModel(page_bytes=config.page_bytes))
    nodes = tree.all_nodes()
    entry_count = sum(len(node.entries) for node in nodes)
    assert (len(nodes), entry_count) == (341, 8340)

    counts = {"rects": 0, "splits": 0}
    post_init, split_order = Rect.__post_init__, partition_tree.split_order

    def counting_post_init(self):
        counts["rects"] += 1
        post_init(self)

    def counting_split_order(*args):
        counts["splits"] += 1
        return split_order(*args)

    monkeypatch.setattr(Rect, "__post_init__", counting_post_init)
    monkeypatch.setattr(partition_tree, "split_order", counting_split_order)
    trees = build_partition_trees(nodes)
    monkeypatch.undo()

    # One Rect per internal code (was 16 339, one per code).
    assert counts["rects"] == entry_count - len(nodes) == 7999
    # The kernel runs for the codes of three or more entries only (was 7 999
    # R* splits, one per internal code).
    at_least_three = sum(1 for built in trees.values()
                         for subset in built.subsets.values() if len(subset) >= 3)
    assert counts["splits"] == at_least_three == 4980
