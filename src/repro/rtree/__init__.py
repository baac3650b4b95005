"""A paged R*-tree and the spatial query algorithms used by the paper.

The tree is *paged*: every node lives in a :class:`~repro.rtree.tree.PageStore`
keyed by an integer node id, mirroring the paper's view of an R-tree node as a
disk page with a physical address.  Proactive caching caches node snapshots by
these ids, so keeping the page abstraction explicit is what makes the cache
faithful to the paper.

Public surface:

* :class:`RTree` — insertion (R* ChooseSubtree + split + forced reinsert),
  STR bulk loading, deletion, and the classic traversals.
* :func:`range_search` and :func:`knn_search` (best-first, Hjaltason–Samet).
* :class:`PartitionTree` — the per-node binary partition tree of Section 4.2,
  with compact-form and ``d+``-level compact-form computation.
* :class:`SizeModel` — byte sizes of entries, nodes and messages.
"""

from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import PageStore, RTree
from repro.rtree.bulk import bulk_load_str
from repro.rtree.range_search import range_search
from repro.rtree.knn import knn_search
from repro.rtree.partition_tree import PartitionTree, SuperEntry
from repro.rtree.validation import assert_tree_valid

__all__ = [
    "assert_tree_valid",
    "Entry",
    "ObjectRecord",
    "Node",
    "SizeModel",
    "PageStore",
    "RTree",
    "bulk_load_str",
    "range_search",
    "knn_search",
    "PartitionTree",
    "SuperEntry",
]
