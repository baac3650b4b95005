"""Slotted hot dataclasses and the squared-distance kernels."""

import math
import pickle
import random
import sys

import pytest

from repro.core.cache import CacheItemState
from repro.core.items import CachedObject, CacheEntry, FrontierTarget
from repro.geometry import Point, Rect
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node
from tests.geometry.rect_reference import min_dist_sq_to_rect


HOT_CLASSES = (Point, Rect, Entry, ObjectRecord, Node, CacheEntry,
               CachedObject, FrontierTarget, CacheItemState)

slots_expected = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="dataclass(slots=True) needs Python 3.10+; 3.9 falls back to __dict__")


@slots_expected
@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_dataclasses_are_slotted(cls):
    assert "__slots__" in vars(cls), f"{cls.__name__} should define __slots__"
    assert "__dict__" not in vars(cls).get("__slots__", ())


@slots_expected
def test_slotted_instances_have_no_dict():
    point = Point(0.25, 0.75)
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    entry = Entry(mbr=rect, object_id=3)
    for instance in (point, rect, entry):
        with pytest.raises(AttributeError):
            instance.__dict__


def test_slotted_frozen_instances_still_pickle():
    """The fleet runner ships these across process boundaries."""
    originals = [
        Point(0.1, 0.9),
        Rect(0.0, 0.1, 0.5, 0.6),
        Entry(mbr=Rect(0, 0, 1, 1), child_id=7),
        ObjectRecord(object_id=4, mbr=Rect(0, 0, 0.1, 0.1), size_bytes=512),
        FrontierTarget.for_object(9, Rect(0, 0, 1, 1), parent_node_id=2,
                                  priority=0.5, confirm_only=True),
    ]
    for original in originals:
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original


def test_frozen_stays_frozen_with_slots():
    point = Point(1.0, 2.0)
    with pytest.raises(Exception):  # FrozenInstanceError or AttributeError
        point.x = 3.0


@pytest.mark.parametrize("seed", range(3))
def test_squared_distances_agree_with_linear(seed):
    rng = random.Random(seed)
    for _ in range(200):
        rect = Rect(rng.random() * 0.5, rng.random() * 0.5,
                    0.5 + rng.random() * 0.5, 0.5 + rng.random() * 0.5)
        other = Rect(rng.random() * 0.5, rng.random() * 0.5,
                     0.5 + rng.random() * 0.5, 0.5 + rng.random() * 0.5)
        assert math.sqrt(min_dist_sq_to_rect(rect, other)) == pytest.approx(
            rect.min_dist_to_rect(other))


def test_squared_distance_zero_inside():
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    assert min_dist_sq_to_rect(rect, Rect(0.5, 0.5, 0.7, 0.7)) == 0.0
