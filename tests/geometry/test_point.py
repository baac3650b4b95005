"""Tests for repro.geometry.point."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def test_distance_to_is_euclidean():
    assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


def test_distance_to_self_is_zero():
    p = Point(0.3, 0.7)
    assert p.distance_to(p) == 0.0


def test_clamped_limits_to_unit_square():
    assert Point(-1.0, 2.0).clamped() == Point(0.0, 1.0)
    assert Point(0.4, 0.6).clamped() == Point(0.4, 0.6)


def test_clamped_respects_custom_bounds():
    assert Point(5.0, -5.0).clamped(lo=-1.0, hi=2.0) == Point(2.0, -1.0)


def test_as_tuple_and_iteration():
    p = Point(0.25, 0.75)
    assert p.as_tuple() == (0.25, 0.75)
    assert list(p) == [0.25, 0.75]


def test_points_are_hashable_and_ordered():
    assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2
    assert Point(0, 1) < Point(1, 0)


@given(coords, coords, coords, coords)
def test_distance_symmetry(ax, ay, bx, by):
    a, b = Point(ax, ay), Point(bx, by)
    assert a.distance_to(b) == pytest.approx(b.distance_to(a))


@given(coords, coords, coords, coords, coords, coords)
def test_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9
