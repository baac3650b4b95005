"""Circle containment for the semantic kNN cache."""

from __future__ import annotations

from repro.geometry.point import Point


def circle_contains_circle(center_outer: Point, radius_outer: float,
                           center_inner: Point, radius_inner: float) -> bool:
    """True when the inner circle lies entirely inside the outer circle.

    Used by the Zheng–Lee style kNN semantic cache: a cached kNN result
    (outer circle) can answer a new k'NN query exactly when the new query's
    k'-th-distance circle is contained in the cached circle.
    """
    return center_outer.distance_to(center_inner) + radius_inner <= radius_outer + 1e-12
