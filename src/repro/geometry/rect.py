"""Axis-aligned rectangles (minimum bounding rectangles).

``Rect`` is the MBR type used throughout the R-tree, the semantic cache
(query regions) and the workload generator (range-query windows).  Besides
the usual predicates it implements the rectangle *difference* decomposition
needed by semantic-cache query trimming (Ren & Dunham style remainders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.geometry.point import Point


@dataclass(frozen=True, order=True, slots=True)
class Rect:
    """An immutable axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "degenerate rectangle: "
                f"({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_point(point: Point) -> "Rect":
        """A zero-area rectangle at ``point``."""
        return Rect(point.x, point.y, point.x, point.y)

    @staticmethod
    def from_center(center: Point, width: float, height: float) -> "Rect":
        """A rectangle of the given dimensions centred at ``center``."""
        half_w, half_h = width / 2.0, height / 2.0
        return Rect(center.x - half_w, center.y - half_h,
                    center.x + half_w, center.y + half_h)

    @staticmethod
    def unit() -> "Rect":
        """The unit square ``[0, 1] x [0, 1]``."""
        return Rect(0.0, 0.0, 1.0, 1.0)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        iterator = iter(rects)
        first = next(iterator, None)
        if first is None:
            raise ValueError("cannot bound an empty collection of rectangles")
        min_x, min_y = first.min_x, first.min_y
        max_x, max_y = first.max_x, first.max_y
        for rect in iterator:
            if rect.min_x < min_x:
                min_x = rect.min_x
            if rect.min_y < min_y:
                min_y = rect.min_y
            if rect.max_x > max_x:
                max_x = rect.max_x
            if rect.max_y > max_y:
                max_y = rect.max_y
        return Rect(min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------ #
    # basic measures
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def area(self) -> float:
        """Area of the rectangle."""
        return self.width * self.height

    def margin(self) -> float:
        """Half perimeter (the R*-tree "margin" measure)."""
        return self.width + self.height

    def center(self) -> Point:
        """Centre point of the rectangle."""
        return Point((self.min_x + self.max_x) / 2.0,
                     (self.min_y + self.max_y) / 2.0)

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def intersects(self, other: "Rect") -> bool:
        """True if the rectangles share at least a boundary point."""
        return (self.min_x <= other.max_x and other.min_x <= self.max_x and
                self.min_y <= other.max_y and other.min_y <= self.max_y)

    def contains(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this rectangle."""
        return (self.min_x <= other.min_x and other.max_x <= self.max_x and
                self.min_y <= other.min_y and other.max_y <= self.max_y)

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside (or on the border of) the rectangle."""
        return (self.min_x <= point.x <= self.max_x and
                self.min_y <= point.y <= self.max_y)

    # ------------------------------------------------------------------ #
    # combination
    # ------------------------------------------------------------------ #
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both rectangles."""
        return Rect(min(self.min_x, other.min_x), min(self.min_y, other.min_y),
                    max(self.max_x, other.max_x), max(self.max_y, other.max_y))

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(max(self.min_x, other.min_x), max(self.min_y, other.min_y),
                    min(self.max_x, other.max_x), min(self.max_y, other.max_y))

    def intersection_area(self, other: "Rect") -> float:
        """Area of overlap (0.0 when disjoint)."""
        overlap = self.intersection(other)
        return overlap.area() if overlap is not None else 0.0

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to also cover ``other`` (R-tree ChooseSubtree)."""
        return self.union(other).area() - self.area()

    def clipped(self, bounds: "Rect") -> Optional["Rect"]:
        """Alias of :meth:`intersection`, reads better for window clipping."""
        return self.intersection(bounds)

    # ------------------------------------------------------------------ #
    # distances
    # ------------------------------------------------------------------ #
    def min_dist_to_point(self, point: Point) -> float:
        """Minimum Euclidean distance from ``point`` to the rectangle."""
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return math.hypot(dx, dy)

    def min_dist_sq_to_point(self, point: Point) -> float:
        """Squared MINDIST from ``point`` (no square root).

        Reference formulation of the arithmetic the kNN hot loop inlines
        (``rtree/knn.py`` hoists the coordinates rather than calling this);
        the equivalence tests pin the inlined kernels against it.
        """
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return dx * dx + dy * dy

    def max_dist_to_point(self, point: Point) -> float:
        """Maximum Euclidean distance from ``point`` to the rectangle."""
        dx = max(abs(point.x - self.min_x), abs(point.x - self.max_x))
        dy = max(abs(point.y - self.min_y), abs(point.y - self.max_y))
        return math.hypot(dx, dy)

    def min_dist_to_rect(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two rectangles."""
        dx = max(self.min_x - other.max_x, 0.0, other.min_x - self.max_x)
        dy = max(self.min_y - other.max_y, 0.0, other.min_y - self.max_y)
        return math.hypot(dx, dy)

    def min_dist_sq_to_rect(self, other: "Rect") -> float:
        """Squared minimum distance between the two rectangles.

        The join's pair predicate; ``repro.core.join.within`` evaluates the
        same arithmetic for a whole batch on hoisted coordinates.
        """
        dx = max(self.min_x - other.max_x, 0.0, other.min_x - self.max_x)
        dy = max(self.min_y - other.max_y, 0.0, other.min_y - self.max_y)
        return dx * dx + dy * dy

    # ------------------------------------------------------------------ #
    # decomposition (semantic-cache trimming)
    # ------------------------------------------------------------------ #
    def difference(self, other: "Rect") -> List["Rect"]:
        """Decompose ``self − other`` into at most four disjoint rectangles.

        This is the remainder-region computation used by the semantic cache:
        the new query window minus an already-cached query window.  Returns
        an empty list when ``other`` fully covers ``self`` and ``[self]``
        when they are disjoint.
        """
        overlap = self.intersection(other)
        if overlap is None or overlap.area() <= 0.0 and not other.contains(self):
            # No overlap of positive area: nothing is trimmed away.
            if overlap is None:
                return [self]
        if other.contains(self):
            return []
        if overlap is None:
            return [self]

        pieces: List[Rect] = []
        # Left slab.
        if self.min_x < overlap.min_x:
            pieces.append(Rect(self.min_x, self.min_y, overlap.min_x, self.max_y))
        # Right slab.
        if overlap.max_x < self.max_x:
            pieces.append(Rect(overlap.max_x, self.min_y, self.max_x, self.max_y))
        # Bottom slab (between left and right slabs).
        if self.min_y < overlap.min_y:
            pieces.append(Rect(overlap.min_x, self.min_y, overlap.max_x, overlap.min_y))
        # Top slab.
        if overlap.max_y < self.max_y:
            pieces.append(Rect(overlap.min_x, overlap.max_y, overlap.max_x, self.max_y))
        return [p for p in pieces if p.area() > 0.0]

    @staticmethod
    def difference_many(target: "Rect", covers: Sequence["Rect"]) -> List["Rect"]:
        """Decompose ``target`` minus the union of ``covers`` into rectangles."""
        remainders = [target]
        for cover in covers:
            next_remainders: List[Rect] = []
            for piece in remainders:
                next_remainders.extend(piece.difference(cover))
            remainders = next_remainders
            if not remainders:
                break
        return remainders

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    def buffered(self, amount: float) -> "Rect":
        """Return a copy grown by ``amount`` on every side."""
        return Rect(self.min_x - amount, self.min_y - amount,
                    self.max_x + amount, self.max_y + amount)

    def clamped_unit(self) -> "Rect":
        """Clamp into the unit square (used by the workload generator)."""
        return Rect(
            min(max(self.min_x, 0.0), 1.0),
            min(max(self.min_y, 0.0), 1.0),
            min(max(self.max_x, 0.0), 1.0),
            min(max(self.max_y, 0.0), 1.0),
        )
