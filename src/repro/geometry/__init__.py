"""Planar geometry primitives used by the spatial index and the caches.

The whole reproduction works in a normalized unit square ``[0, 1] x [0, 1]``,
matching the paper's normalization of the NE and RD datasets.  Everything in
this package is deliberately dependency-free (pure Python floats) so that the
byte-size model in :mod:`repro.rtree.sizes` stays faithful to "an entry is an
MBR plus a pointer".
"""

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.distance import circle_contains_circle

__all__ = [
    "Point",
    "Rect",
    "circle_contains_circle",
]
