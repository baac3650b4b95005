"""Node splitting: the R*-tree split (Beckmann et al. 1990).

The R* split chooses the split axis by minimum margin sum, then the split
index by minimum overlap (ties broken by minimum total area).  It is used
both by the dynamic insertion path of :class:`~repro.rtree.tree.RTree`
(:func:`rstar_split`) and — crucially for the paper — by
:class:`~repro.rtree.partition_tree.PartitionTree`, which recursively applies
the same heuristic to build the binary partition tree of every node ("The
partitioning uses the R-tree node splitting algorithm to assure minimal
overlap", Section 4.2).

Both go through one kernel, :func:`split_order`, which works on a node's
coordinate tuples and lists of entry indices rather than on ``Entry`` and
``Rect`` objects: the boxes and the four sort keys are built once per node
(once per call for :func:`rstar_split`), and a partition tree's recursion
only carries index lists down.  A call costs four sorts of small integers,
at most eight running-bound passes (none longer than the larger group can
be; an ordering equal to its axis's other one reuses its bounds) and one
pass over the candidates per ordering.  Running min/max is exact and
every margin sum is accumulated in the order of the naive evaluation, so
every decision — and every tree built through this module — is
bit-identical to re-bounding each candidate group with
:meth:`Rect.bounding <repro.geometry.Rect.bounding>`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.rtree.entry import Entry

#: ``(min_x, min_y, max_x, max_y)`` of one entry's MBR.
Box = Tuple[float, float, float, float]
#: Per-entry sort keys of the four R* orderings, indexed like the boxes: by
#: lower x ``(min_x, max_x)``, by upper x ``(max_x, min_x)``, by lower y and
#: by upper y — each as a dense rank (see :func:`sort_keys`).
SortKeys = Tuple[List[int], List[int], List[int], List[int]]


def entry_boxes(entries: Sequence[Entry]) -> List[Box]:
    """The coordinate tuple of every entry's MBR."""
    return [(mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)
            for mbr in [entry.mbr for entry in entries]]


def _dense_ranks(keys: List[Tuple[float, float]]) -> List[int]:
    """Each key's rank among the distinct keys (equal keys share one)."""
    ranks = [0] * len(keys)
    rank = -1
    previous: Optional[Tuple[float, float]] = None
    for index in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[index]
        if key != previous:
            rank += 1
            previous = key
        ranks[index] = rank
    return ranks


def sort_keys(boxes: Sequence[Box]) -> SortKeys:
    """The four R* sort keys of every box, as dense ranks.

    Equal keys (``-0.0 == 0.0`` included) share a rank, so a stable sort of
    any subset by a rank list puts it in exactly the order a stable sort by
    the key tuples would, with one tuple sort per key and node instead of
    tuple comparisons in every split below.
    """
    return (_dense_ranks([(box[0], box[2]) for box in boxes]),
            _dense_ranks([(box[2], box[0]) for box in boxes]),
            _dense_ranks([(box[1], box[3]) for box in boxes]),
            _dense_ranks([(box[3], box[1]) for box in boxes]))


def running_bounds(boxes: Sequence[Box], order: List[int]) -> List[Box]:
    """``bounds[i]`` = the bounds of the first ``i + 1`` boxes of ``order``,
    accumulated in list order: ``bounds[-1]`` is bit for bit what
    :meth:`Rect.bounding` returns for the same rectangles (a right-to-left
    pass can return ``0.0`` where it returns ``-0.0``)."""
    bounds: List[Box] = []
    append = bounds.append
    min_x, min_y, max_x, max_y = boxes[order[0]]
    for index in order:
        box_min_x, box_min_y, box_max_x, box_max_y = boxes[index]
        if box_min_x < min_x:
            min_x = box_min_x
        if box_min_y < min_y:
            min_y = box_min_y
        if box_max_x > max_x:
            max_x = box_max_x
        if box_max_y > max_y:
            max_y = box_max_y
        append((min_x, min_y, max_x, max_y))
    return bounds


def split_order(boxes: Sequence[Box], items: Sequence[int], keys: SortKeys,
                min_fill: int) -> Tuple[List[int], int, Box]:
    """The R* split of the entries ``items`` (indices into ``boxes`` and
    ``keys``).

    The axis with the smaller margin sum over all candidate splits of its
    two orderings wins (x on a tie); on that axis the split with the least
    overlap, then the least total area, wins (the earlier candidate on a
    tie).  Each ordering is a stable sort of ``items`` in their given order.
    The candidates are scored against running prefix and suffix bounds, so
    a call costs four sorts plus O(n) per ordering.

    Returns ``(ordering, split_at, left_bounds)``: the groups are
    ``ordering[:split_at]`` and ``ordering[split_at:]``, and
    ``left_bounds`` is the first group's bounds accumulated in its order.
    """
    total = len(items)
    if total < 2:
        raise ValueError("cannot split fewer than two entries")
    min_fill = max(1, min(min_fill, total - 1))
    split_range = range(min_fill, total - min_fill + 1)
    if not split_range:
        # min_fill > total / 2: no candidate, both margin sums stay 0.0, and
        # x's lower ordering is cut at min_fill.
        ordering = sorted(items, key=keys[0].__getitem__)
        return ordering, min_fill, running_bounds(boxes, ordering[:min_fill])[-1]
    last = total - 1
    reach = total - min_fill

    best_margin = float("inf")
    best_axis: List[Tuple[List[int], List[Box], List[Box]]] = []
    for lower, upper in ((keys[0], keys[1]), (keys[2], keys[3])):
        margin_sum = 0.0
        axis = []
        for ordering in (sorted(items, key=lower.__getitem__),
                         sorted(items, key=upper.__getitem__)):
            if axis and ordering == axis[0][0]:
                # The upper ordering is often the lower one.  Its candidates
                # then have the same bounds and still count in the margin
                # sum, but score exactly as the lower ordering's did, so
                # none of them can win the strict overlap / area test below.
                _, prefix, suffix = axis[0]
            else:
                # No candidate group has more than ``reach`` entries, so the
                # prefix and suffix passes stop there; suffix[last - i]
                # bounds ordering[i:].
                prefix = running_bounds(boxes, ordering[:reach])
                suffix = running_bounds(boxes, ordering[:last - reach:-1])
                axis.append((ordering, prefix, suffix))
            for split_at in split_range:
                p_min_x, p_min_y, p_max_x, p_max_y = prefix[split_at - 1]
                s_min_x, s_min_y, s_max_x, s_max_y = suffix[last - split_at]
                margin_sum += (((p_max_x - p_min_x) + (p_max_y - p_min_y))
                               + ((s_max_x - s_min_x) + (s_max_y - s_min_y)))
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_axis = axis

    best_ordering, best_prefix, _ = best_axis[0]
    best_at = min_fill
    best_overlap = float("inf")
    best_area = float("inf")
    for ordering, prefix, suffix in best_axis:
        for split_at in split_range:
            l_min_x, l_min_y, l_max_x, l_max_y = prefix[split_at - 1]
            r_min_x, r_min_y, r_max_x, r_max_y = suffix[last - split_at]
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
                best_ordering, best_prefix = ordering, prefix
                best_at = split_at
    return best_ordering, best_at, best_prefix[best_at - 1]


def rstar_split(entries: Sequence[Entry], min_fill: int) -> Tuple[List[Entry], List[Entry]]:
    """Split ``entries`` into two groups with the R* heuristic.

    Parameters
    ----------
    entries:
        The overflowing entry list (length >= 2).
    min_fill:
        Minimum number of entries per resulting group, clamped to
        ``[1, len(entries) - 1]``.  Above half the entries no candidate
        satisfies it, and the lower-x ordering is cut at ``min_fill``.

    Returns
    -------
    (left, right):
        Two non-empty entry lists whose union is ``entries``.
    """
    entries = list(entries)
    boxes = entry_boxes(entries)
    ordering, split_at, _ = split_order(boxes, range(len(entries)),
                                        sort_keys(boxes), min_fill)
    return ([entries[index] for index in ordering[:split_at]],
            [entries[index] for index in ordering[split_at:]])
