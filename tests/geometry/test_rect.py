"""Tests for repro.geometry.rect."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect
from tests.geometry.rect_reference import enlargement, intersection_area, union

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        Rect(0.5, 0.0, 0.4, 1.0)


def test_point_rect_has_zero_area_and_contains_its_point():
    r = Rect(0.3, 0.3, 0.3, 0.3)
    assert r.area() == 0.0
    assert r.contains_point(Point(0.3, 0.3))
    assert r.min_dist_to_point(Point(0.3, 0.3)) == 0.0


def test_from_center_dimensions():
    r = Rect.from_center(Point(0.5, 0.5), 0.2, 0.4)
    assert r.width == pytest.approx(0.2)
    assert r.height == pytest.approx(0.4)
    assert r.center() == Point(0.5, 0.5)


def test_bounding_covers_all():
    r = Rect.bounding([Rect(0, 0, 0.1, 0.1), Rect(0.5, 0.6, 0.7, 0.9)])
    assert r == Rect(0, 0, 0.7, 0.9)


def test_bounding_empty_raises():
    with pytest.raises(ValueError):
        Rect.bounding([])


def test_intersects_and_contains():
    a = Rect(0, 0, 0.5, 0.5)
    b = Rect(0.4, 0.4, 0.6, 0.6)
    c = Rect(0.51, 0.51, 0.6, 0.6)
    assert a.intersects(b)
    assert not a.intersects(c)
    assert a.contains(Rect(0.1, 0.1, 0.2, 0.2))
    assert not a.contains(b)


def test_touching_rectangles_intersect():
    assert Rect(0, 0, 0.5, 0.5).intersects(Rect(0.5, 0.0, 1.0, 0.5))


def test_union_and_intersection():
    a = Rect(0, 0, 0.5, 0.5)
    b = Rect(0.25, 0.25, 1.0, 1.0)
    assert union(a, b) == Rect(0, 0, 1, 1)
    assert a.intersection(b) == Rect(0.25, 0.25, 0.5, 0.5)
    assert a.intersection(Rect(0.6, 0.6, 0.7, 0.7)) is None
    assert intersection_area(a, b) == pytest.approx(0.0625)


def test_enlargement():
    a = Rect(0, 0, 0.5, 0.5)
    assert enlargement(a, Rect(0, 0, 0.25, 0.25)) == 0.0
    assert enlargement(a, Rect(0, 0, 1.0, 0.5)) == pytest.approx(0.25)


def test_min_and_max_dist_to_point():
    r = Rect(0.2, 0.2, 0.4, 0.4)
    assert r.min_dist_to_point(Point(0.3, 0.3)) == 0.0
    assert r.min_dist_to_point(Point(0.0, 0.3)) == pytest.approx(0.2)
    assert r.max_dist_to_point(Point(0.0, 0.0)) == pytest.approx((0.4 ** 2 + 0.4 ** 2) ** 0.5)


def test_min_dist_to_rect():
    a = Rect(0, 0, 0.1, 0.1)
    b = Rect(0.2, 0.0, 0.3, 0.1)
    assert a.min_dist_to_rect(b) == pytest.approx(0.1)
    assert a.min_dist_to_rect(Rect(0.05, 0.05, 0.2, 0.2)) == 0.0


def test_difference_disjoint_returns_self():
    a = Rect(0, 0, 0.2, 0.2)
    assert a.difference(Rect(0.5, 0.5, 0.6, 0.6)) == [a]


def test_difference_contained_returns_empty():
    a = Rect(0.1, 0.1, 0.2, 0.2)
    assert a.difference(Rect(0, 0, 1, 1)) == []


def test_difference_partial_overlap_preserves_area():
    a = Rect(0, 0, 1, 1)
    b = Rect(0.25, 0.25, 0.75, 0.75)
    pieces = a.difference(b)
    assert sum(p.area() for p in pieces) == pytest.approx(a.area() - b.area())
    for piece in pieces:
        assert a.contains(piece)
        assert intersection_area(piece, b) == pytest.approx(0.0)


def test_difference_many_covers_leftover():
    target = Rect(0, 0, 1, 1)
    covers = [Rect(0, 0, 0.5, 1.0), Rect(0.5, 0, 1.0, 0.5)]
    pieces = Rect.difference_many(target, covers)
    assert sum(p.area() for p in pieces) == pytest.approx(0.25)


def test_buffered_and_clamped_unit():
    r = Rect(0.0, 0.0, 0.1, 0.1).buffered(0.05)
    assert r.as_tuple() == pytest.approx((-0.05, -0.05, 0.15, 0.15))
    clamped = r.clamped_unit()
    assert clamped.min_x == 0.0 and clamped.min_y == 0.0
    assert clamped.max_x == pytest.approx(0.15)


@given(rects(), rects())
def test_union_contains_both(a, b):
    u = union(a, b)
    assert u.contains(a) and u.contains(b)


@given(rects(), rects())
def test_intersection_area_bounded(a, b):
    overlap = intersection_area(a, b)
    assert overlap <= min(a.area(), b.area()) + 1e-12
    assert overlap >= 0.0


@given(rects(), rects())
def test_difference_area_identity(a, b):
    pieces = a.difference(b)
    total = sum(p.area() for p in pieces)
    assert total == pytest.approx(a.area() - intersection_area(a, b), abs=1e-9)


@given(rects(), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_min_dist_zero_iff_containing_point(rect, x, y):
    point = Point(x, y)
    if rect.contains_point(point):
        assert rect.min_dist_to_point(point) == 0.0
    else:
        assert rect.min_dist_to_point(point) > 0.0


def test_difference_degenerate_edge_touching_overlap():
    # The overlap of edge-adjacent rectangles is a zero-area sliver; nothing
    # is trimmed away.  Regression for the FLT01 rewrite of the area test in
    # difference() from == 0.0 to the rounding-robust <= 0.0 form.
    a = Rect(0.0, 0.0, 0.5, 0.5)
    b = Rect(0.5, 0.0, 1.0, 0.5)  # shares the x = 0.5 edge with a
    assert a.difference(b) == [a]
    assert b.difference(a) == [b]


def test_difference_degenerate_corner_touching_overlap():
    a = Rect(0.0, 0.0, 0.5, 0.5)
    b = Rect(0.5, 0.5, 1.0, 1.0)  # touches a only at the corner point
    assert a.difference(b) == [a]
