"""Rect measures only the tests use, kept as plain reference formulations.

The program inlines this arithmetic on hoisted coordinates where it needs
it (R* ChooseSubtree in :func:`repro.rtree.tree.subtree_keys`, the join's
pair predicate in :mod:`repro.core.join`); the reference walks and the
split-quality checks compare against these.
"""

from __future__ import annotations

from repro.geometry import Rect


def union(a: Rect, b: Rect) -> Rect:
    """Smallest rectangle covering both rectangles."""
    return Rect(min(a.min_x, b.min_x), min(a.min_y, b.min_y),
                max(a.max_x, b.max_x), max(a.max_y, b.max_y))


def margin(rect: Rect) -> float:
    """Half perimeter (the R*-tree "margin" measure)."""
    return rect.width + rect.height


def intersection_area(a: Rect, b: Rect) -> float:
    """Area of overlap (0.0 when disjoint)."""
    overlap = a.intersection(b)
    return overlap.area() if overlap is not None else 0.0


def enlargement(a: Rect, b: Rect) -> float:
    """Area growth ``a`` needs to also cover ``b`` (R-tree ChooseSubtree)."""
    return union(a, b).area() - a.area()


def min_dist_sq_to_rect(a: Rect, b: Rect) -> float:
    """Squared minimum distance between the two rectangles."""
    dx = max(a.min_x - b.max_x, 0.0, b.min_x - a.max_x)
    dy = max(a.min_y - b.max_y, 0.0, b.min_y - a.max_y)
    return dx * dx + dy * dy
