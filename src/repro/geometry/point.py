"""A two-dimensional point."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """An immutable point in the plane.

    Points are used for client positions, query anchors and object centroids.
    They are hashable so they can key dictionaries (e.g. per-location
    statistics in the simulator), and slotted (on 3.10+) because simulations
    create millions of them.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def clamped(self, lo: float = 0.0, hi: float = 1.0) -> "Point":
        """Return a copy clamped into the square ``[lo, hi] x [lo, hi]``."""
        return Point(min(max(self.x, lo), hi), min(max(self.y, lo), hi))

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    @staticmethod
    def origin() -> "Point":
        """The point ``(0, 0)``."""
        return Point(0.0, 0.0)
