"""Spatial query types shared by the caches, the client and the server.

Three query types from the paper are supported:

* :class:`RangeQuery` — a window query centred at the client;
* :class:`KNNQuery` — a k-nearest-neighbour query at the client's position;
* :class:`JoinQuery` — a distance self-join restricted to the client's
  neighbourhood window ("pairs of nearby objects within ``threshold`` of each
  other").  The paper describes the join as a distance self-join over the
  dataset issued by a client asking about its proximity area; restricting the
  pairs to a neighbourhood window keeps the result set commensurate with the
  paper's per-query byte counts — an unrestricted self-join returns a
  sizeable fraction of the dataset on every query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.geometry import Point, Rect
from repro.rtree.sizes import SizeModel


class QueryType(enum.Enum):
    """The query types of the paper's workload."""

    RANGE = "range"
    KNN = "knn"
    JOIN = "join"


@dataclass(frozen=True)
class RangeQuery:
    """A window query: return every object intersecting ``window``."""

    window: Rect

    @property
    def query_type(self) -> QueryType:
        return QueryType.RANGE

    @property
    def anchor(self) -> Point:
        """The point the query is anchored at (the window centre)."""
        return self.window.center()

    def descriptor_bytes(self, size_model: SizeModel) -> int:
        """Uplink bytes of the bare query description."""
        return size_model.query_descriptor_bytes(parameter_count=0)


@dataclass(frozen=True)
class KNNQuery:
    """A k-nearest-neighbour query at ``point``."""

    point: Point
    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")

    @property
    def query_type(self) -> QueryType:
        return QueryType.KNN

    @property
    def anchor(self) -> Point:
        return self.point

    def descriptor_bytes(self, size_model: SizeModel) -> int:
        return size_model.query_header_bytes + size_model.point_bytes() + size_model.coordinate_bytes


@dataclass(frozen=True)
class JoinQuery:
    """A distance self-join within ``window``.

    Returns the distinct objects that participate in at least one pair
    ``(a, b)`` with ``a ≠ b``, both intersecting ``window`` and with MBR
    distance at most ``threshold``.
    """

    window: Rect
    threshold: float

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    @property
    def query_type(self) -> QueryType:
        return QueryType.JOIN

    @property
    def anchor(self) -> Point:
        return self.window.center()

    def descriptor_bytes(self, size_model: SizeModel) -> int:
        return size_model.query_descriptor_bytes(parameter_count=1)


Query = Union[RangeQuery, KNNQuery, JoinQuery]
