"""Node splitting: the R*-tree split (Beckmann et al. 1990).

:func:`rstar_split` chooses the split axis by minimum margin sum, then the
split index by minimum overlap (ties broken by minimum total area).  It is
used both by the dynamic insertion path of :class:`~repro.rtree.tree.RTree`
and — crucially for the paper — by
:class:`~repro.rtree.partition_tree.PartitionTree`, which recursively applies
the same heuristic to build the binary partition tree of every node ("The
partitioning uses the R-tree node splitting algorithm to assure minimal
overlap", Section 4.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry import Rect
from repro.rtree.entry import Entry

_Bounds = Tuple[float, float, float, float]


def _prefix_bounds(mbrs: Sequence[Rect]) -> List[_Bounds]:
    """``bounds[i]`` = MBR coords of ``mbrs[:i + 1]`` (one running pass)."""
    bounds: List[_Bounds] = []
    min_x = min_y = float("inf")
    max_x = max_y = float("-inf")
    for mbr in mbrs:
        if mbr.min_x < min_x:
            min_x = mbr.min_x
        if mbr.min_y < min_y:
            min_y = mbr.min_y
        if mbr.max_x > max_x:
            max_x = mbr.max_x
        if mbr.max_y > max_y:
            max_y = mbr.max_y
        bounds.append((min_x, min_y, max_x, max_y))
    return bounds


def _suffix_bounds(mbrs: Sequence[Rect]) -> List[_Bounds]:
    """``bounds[i]`` = MBR coords of ``mbrs[i:]`` (one running pass)."""
    bounds: List[_Bounds] = [None] * len(mbrs)  # type: ignore[list-item]
    min_x = min_y = float("inf")
    max_x = max_y = float("-inf")
    for index in range(len(mbrs) - 1, -1, -1):
        mbr = mbrs[index]
        if mbr.min_x < min_x:
            min_x = mbr.min_x
        if mbr.min_y < min_y:
            min_y = mbr.min_y
        if mbr.max_x > max_x:
            max_x = mbr.max_x
        if mbr.max_y > max_y:
            max_y = mbr.max_y
        bounds[index] = (min_x, min_y, max_x, max_y)
    return bounds


def rstar_split(entries: Sequence[Entry], min_fill: int) -> Tuple[List[Entry], List[Entry]]:
    """Split ``entries`` into two groups with the R* heuristic.

    Both the axis choice (minimum margin sum) and the index choice (minimum
    overlap, ties by minimum area) evaluate every candidate split position
    against precomputed running prefix/suffix bounds, so one call costs
    O(n log n) for the sorts plus O(n) per ordering — not the O(n²) of
    re-bounding each candidate group from scratch.  Margins, overlaps and
    areas come out bit-identical to the naive evaluation (running min/max is
    exact and the accumulation order is preserved), so the chosen splits —
    and therefore every tree built through this function — are unchanged.

    Parameters
    ----------
    entries:
        The overflowing entry list (length >= 2).
    min_fill:
        Minimum number of entries per resulting group; clamped so that a
        valid split always exists.

    Returns
    -------
    (left, right):
        Two non-empty entry lists whose union is ``entries``.
    """
    entries = list(entries)
    total = len(entries)
    if total < 2:
        raise ValueError("cannot split fewer than two entries")
    min_fill = max(1, min(min_fill, total - 1))
    split_range = range(min_fill, total - min_fill + 1)

    best_axis = None
    best_axis_margin = float("inf")
    axis_sortings = {}
    axis_bounds = {}

    for axis in ("x", "y"):
        if axis == "x":
            by_lower = sorted(entries, key=lambda e: (e.mbr.min_x, e.mbr.max_x))
            by_upper = sorted(entries, key=lambda e: (e.mbr.max_x, e.mbr.min_x))
        else:
            by_lower = sorted(entries, key=lambda e: (e.mbr.min_y, e.mbr.max_y))
            by_upper = sorted(entries, key=lambda e: (e.mbr.max_y, e.mbr.min_y))

        margin_sum = 0.0
        bounds_pairs = []
        for ordering in (by_lower, by_upper):
            mbrs = [entry.mbr for entry in ordering]
            prefix = _prefix_bounds(mbrs)
            suffix = _suffix_bounds(mbrs)
            bounds_pairs.append((prefix, suffix))
            for split_at in split_range:
                p_min_x, p_min_y, p_max_x, p_max_y = prefix[split_at - 1]
                s_min_x, s_min_y, s_max_x, s_max_y = suffix[split_at]
                prefix_margin = (p_max_x - p_min_x) + (p_max_y - p_min_y)
                suffix_margin = (s_max_x - s_min_x) + (s_max_y - s_min_y)
                margin_sum += prefix_margin + suffix_margin
        axis_sortings[axis] = (by_lower, by_upper)
        axis_bounds[axis] = bounds_pairs
        if margin_sum < best_axis_margin:
            best_axis_margin = margin_sum
            best_axis = axis

    orderings = axis_sortings[best_axis]
    bounds_pairs = axis_bounds[best_axis]
    best_ordering = orderings[0]
    best_at = min_fill
    best_overlap = float("inf")
    best_area = float("inf")
    for ordering, (prefix, suffix) in zip(orderings, bounds_pairs):
        for split_at in split_range:
            l_min_x, l_min_y, l_max_x, l_max_y = prefix[split_at - 1]
            r_min_x, r_min_y, r_max_x, r_max_y = suffix[split_at]
            i_min_x = l_min_x if l_min_x > r_min_x else r_min_x
            i_min_y = l_min_y if l_min_y > r_min_y else r_min_y
            i_max_x = l_max_x if l_max_x < r_max_x else r_max_x
            i_max_y = l_max_y if l_max_y < r_max_y else r_max_y
            if i_min_x <= i_max_x and i_min_y <= i_max_y:
                overlap = (i_max_x - i_min_x) * (i_max_y - i_min_y)
            else:
                overlap = 0.0
            area = ((l_max_x - l_min_x) * (l_max_y - l_min_y)
                    + (r_max_x - r_min_x) * (r_max_y - r_min_y))
            if overlap < best_overlap or (overlap == best_overlap and area < best_area):
                best_overlap = overlap
                best_area = area
                best_ordering = ordering
                best_at = split_at
    return list(best_ordering[:best_at]), list(best_ordering[best_at:])

