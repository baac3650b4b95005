"""Mixed query workload generation anchored at the mobile client's position."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.geometry import Point, Rect
from repro.workload.queries import JoinQuery, KNNQuery, Query, QueryType, RangeQuery


@dataclass(frozen=True)
class QueryMix:
    """Relative weights of the three query types in the workload.

    The paper's workload picks the query type uniformly at random; that is
    the default (equal weights).  Setting a weight to zero removes the type,
    e.g. ``QueryMix(knn=1, range_=0, join=0)`` gives the kNN-only workload of
    the Figure 11 experiment.
    """

    range_: float = 1.0
    knn: float = 1.0
    join: float = 1.0

    def __post_init__(self) -> None:
        if min(self.range_, self.knn, self.join) < 0:
            raise ValueError("query mix weights must be non-negative")
        if self.range_ + self.knn + self.join <= 0:
            raise ValueError("at least one query type must have positive weight")


class QueryGenerator:
    """Draws queries of random type and parameters at a given anchor point.

    Parameters mirror Table 6.1:

    * ``window_area`` — average area of a range-query window (``Areawnd``);
    * ``k_max`` — kNN parameter drawn uniformly from ``1..k_max`` (``Kmax``)
      unless a k-schedule overrides it;
    * ``join_distance`` — the distance self-join threshold (``Distjoin``);
    * ``join_window_area`` — area of the square neighbourhood window,
      centred on the client, that a join's pairs must intersect (defaults
      to four range windows; see :mod:`repro.workload.queries` for why the
      join is restricted at all).
    """

    def __init__(self, window_area: float = 1e-6, k_max: int = 5,
                 join_distance: float = 5e-5, join_window_area: Optional[float] = None,
                 mix: QueryMix = QueryMix(), seed: int = 0) -> None:
        if window_area <= 0:
            raise ValueError("window_area must be positive")
        if k_max <= 0:
            raise ValueError("k_max must be positive")
        self.window_area = window_area
        self.k_max = k_max
        self.join_distance = join_distance
        self.join_window_area = join_window_area if join_window_area is not None else 4 * window_area
        self.mix = mix
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # individual query constructors
    # ------------------------------------------------------------------ #
    def range_query(self, anchor: Point) -> RangeQuery:
        """A range query centred at ``anchor`` with ~``window_area`` area."""
        area = self.window_area * self.rng.uniform(0.5, 1.5)
        aspect = self.rng.uniform(0.5, 2.0)
        width = math.sqrt(area * aspect)
        height = area / width
        window = Rect.from_center(anchor, width, height).clamped_unit()
        return RangeQuery(window=window)

    def knn_query(self, anchor: Point, k: Optional[int] = None) -> KNNQuery:
        """A kNN query at ``anchor``; ``k`` defaults to uniform in ``1..k_max``."""
        if k is None:
            k = self.rng.randint(1, self.k_max)
        return KNNQuery(point=anchor, k=max(1, k))

    def join_query(self, anchor: Point) -> JoinQuery:
        """A neighbourhood distance self-join centred at ``anchor``."""
        side = math.sqrt(self.join_window_area)
        window = Rect.from_center(anchor, side, side).clamped_unit()
        return JoinQuery(window=window, threshold=self.join_distance)

    # ------------------------------------------------------------------ #
    # mixed workload
    # ------------------------------------------------------------------ #
    def next_query(self, anchor: Point, k_override: Optional[int] = None) -> Query:
        """Draw the next query of the mixed workload at ``anchor``."""
        weights = [self.mix.range_, self.mix.knn, self.mix.join]
        choice = self.rng.choices([QueryType.RANGE, QueryType.KNN, QueryType.JOIN],
                                  weights=weights, k=1)[0]
        if choice is QueryType.RANGE:
            return self.range_query(anchor)
        if choice is QueryType.KNN:
            return self.knn_query(anchor, k=k_override)
        return self.join_query(anchor)
