"""R* ChooseSubtree as it was written with ``Rect`` measures, kept as the oracle.

Until PR 22 ``RTree._pick_child`` compared every entry's overlap enlargement
against every sibling through ``Rect.union`` and the overlap area (now
``rect_reference.union`` / ``intersection_area``) —
three nested method calls and a frozen ``Rect`` per overlapping sibling
pair.  :func:`repro.rtree.tree.subtree_keys` inlines that arithmetic and
claims every key float, and therefore every choice and every tree, is
unchanged; the old method lives on here verbatim and the differential suite
(``test_choose_subtree_differential.py``) compares against it.
"""

from __future__ import annotations

from tests.geometry.rect_reference import enlargement, intersection_area, union


def reference_pick_child(self, node, mbr):
    """R* ChooseSubtree: minimize overlap enlargement at the leaf level,
    area enlargement otherwise."""
    child_level = node.level - 1
    if child_level == 0:
        best = None
        best_key = None
        for entry in node.entries:
            enlarged = union(entry.mbr, mbr)
            overlap_delta = 0.0
            for other in node.entries:
                if other is entry:
                    continue
                overlap_delta += (intersection_area(enlarged, other.mbr)
                                  - intersection_area(entry.mbr, other.mbr))
            key = (overlap_delta, enlargement(entry.mbr, mbr), entry.mbr.area())
            if best_key is None or key < best_key:
                best_key = key
                best = entry
        return best
    best = min(node.entries,
               key=lambda e: (enlargement(e.mbr, mbr), e.mbr.area()))
    return best


def reference_keys(node, mbr):
    """The key :func:`reference_pick_child` gives every entry, in entry order.

    The same expressions as the loop above, collected instead of compared;
    higher up than the parents of leaves the overlap term is not computed,
    which the inlined code reports as ``0.0``.
    """
    keys = []
    for entry in node.entries:
        overlap_delta = 0.0
        if node.level - 1 == 0:
            enlarged = union(entry.mbr, mbr)
            for other in node.entries:
                if other is entry:
                    continue
                overlap_delta += (intersection_area(enlarged, other.mbr)
                                  - intersection_area(entry.mbr, other.mbr))
        keys.append((overlap_delta, enlargement(entry.mbr, mbr), entry.mbr.area()))
    return keys
