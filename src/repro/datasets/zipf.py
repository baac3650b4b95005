"""Zipf-distributed object sizes (paper: mean 10 KB, skew theta = 0.8)."""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Optional


class ZipfSizeGenerator:
    """Draws object payload sizes from a (bounded) Zipf distribution.

    The paper states that "the sizes of individual objects follow a Zipf
    distribution with the skewness parameter theta being 0.8" around an
    average size of 10 KB.  We realise this by drawing a rank ``r`` from a
    Zipf law over ``rank_count`` ranks and mapping ranks to sizes on a
    geometric scale, then rescaling so the empirical mean matches
    ``mean_bytes``.
    """

    def __init__(self, mean_bytes: int = 10_240, theta: float = 0.8,
                 rank_count: int = 100, min_bytes: int = 512,
                 rng: Optional[random.Random] = None) -> None:
        if mean_bytes <= 0:
            raise ValueError("mean_bytes must be positive")
        if not 0.0 <= theta < 2.0:
            raise ValueError("theta must be in [0, 2)")
        self.mean_bytes = mean_bytes
        self.theta = theta
        self.rank_count = rank_count
        self.min_bytes = min_bytes
        self.rng = rng or random.Random(0)
        weights = [1.0 / (rank ** theta) for rank in range(1, rank_count + 1)]
        total = sum(weights)
        self._probabilities = [w / total for w in weights]
        # ``choices`` would re-accumulate the weights on every draw; handing
        # it the running sums (accumulated in the same order) leaves it the
        # identical ``bisect(cum, random() * total)``, so the stream is
        # unchanged.
        self._ranks = range(rank_count)
        self._cum_probabilities = list(accumulate(self._probabilities))
        # Raw size ladder: rank 1 is the largest object, rank_count the smallest.
        self._raw_sizes = [mean_bytes * (rank_count / rank) ** 0.5
                           for rank in range(1, rank_count + 1)]
        expected_raw = sum(p * s for p, s in zip(self._probabilities, self._raw_sizes))
        self._scale = mean_bytes / expected_raw

    def sample(self) -> int:
        """Draw one object size in bytes."""
        rank = self.rng.choices(self._ranks, cum_weights=self._cum_probabilities)[0]
        size = int(round(self._raw_sizes[rank] * self._scale))
        return max(self.min_bytes, size)
