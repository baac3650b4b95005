"""Tests for the distance kernels: circle containment and Rect's MINDIST."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect, circle_contains_circle

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


def corners(rect):
    return [Point(rect.min_x, rect.min_y), Point(rect.min_x, rect.max_y),
            Point(rect.max_x, rect.min_y), Point(rect.max_x, rect.max_y)]


def test_circle_contains_circle_basic():
    assert circle_contains_circle(Point(0.5, 0.5), 0.5, Point(0.5, 0.5), 0.2)
    assert circle_contains_circle(Point(0.5, 0.5), 0.5, Point(0.7, 0.5), 0.3)
    assert not circle_contains_circle(Point(0.5, 0.5), 0.5, Point(0.9, 0.5), 0.2)


@given(coords, coords, radii, coords, coords, radii)
def test_contained_circle_boundary_lies_inside_the_outer_circle(ox, oy, ro, ix, iy, ri):
    outer, inner = Point(ox, oy), Point(ix, iy)
    if not circle_contains_circle(outer, ro, inner, ri):
        return
    for step in range(8):
        angle = step * math.pi / 4
        rim = Point(ix + ri * math.cos(angle), iy + ri * math.sin(angle))
        assert rim.distance_to(outer) <= ro + 1e-9


@given(coords, coords, radii)
def test_every_circle_contains_itself_and_no_larger_one(x, y, radius):
    center = Point(x, y)
    assert circle_contains_circle(center, radius, center, radius)
    assert not circle_contains_circle(center, radius, center, radius + 1e-6)


def test_min_dist_point_rect_inside_is_zero():
    rect = Rect(0.2, 0.2, 0.6, 0.6)
    assert rect.min_dist_to_point(Point(0.4, 0.4)) == 0.0
    assert rect.min_dist_to_point(Point(0.2, 0.5)) == 0.0      # on an edge
    assert rect.min_dist_to_point(Point(0.6, 0.6)) == 0.0      # on a corner
    assert rect.min_dist_to_point(Point(0.9, 0.6)) == pytest.approx(0.3)


def test_min_dist_rect_rect_overlapping_zero():
    assert Rect(0, 0, 0.5, 0.5).min_dist_to_rect(Rect(0.4, 0.4, 1, 1)) == 0.0
    assert Rect(0, 0, 0.5, 0.5).min_dist_to_rect(Rect(0.5, 0.5, 1, 1)) == 0.0
    assert Rect(0, 0, 1, 1).min_dist_to_rect(Rect(0.4, 0.4, 0.6, 0.6)) == 0.0
    assert Rect(0, 0, 0.2, 0.2).min_dist_to_rect(Rect(0.5, 0.6, 1, 1)) == pytest.approx(0.5)


@given(coords, coords, rects())
def test_max_dist_is_the_farthest_corner_and_bounds_min_dist(px, py, rect):
    point = Point(px, py)
    farthest = max(corner.distance_to(point) for corner in corners(rect))
    assert rect.max_dist_to_point(point) == pytest.approx(farthest)
    assert rect.min_dist_to_point(point) <= rect.max_dist_to_point(point) + 1e-12


@given(rects(), rects())
def test_min_dist_rect_rect_is_symmetric(a, b):
    assert a.min_dist_to_rect(b) == pytest.approx(b.min_dist_to_rect(a))
    if a.intersects(b):
        assert a.min_dist_to_rect(b) == 0.0


@given(rects(), rects(), coords, coords)
def test_min_dist_rect_rect_lower_bounds_every_point_of_the_other(a, b, u, v):
    point = Point(min(b.max_x, b.min_x + u * b.width),
                  min(b.max_y, b.min_y + v * b.height))
    assert a.min_dist_to_point(point) >= a.min_dist_to_rect(b) - 1e-12
