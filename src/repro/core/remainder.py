"""The remainder query ``Qr = {Q, H}`` shipped from client to server."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.items import FrontierTarget
from repro.rtree.sizes import SizeModel
from repro.workload.queries import Query


FrontierItem = Tuple[FrontierTarget, ...]


@dataclass(slots=True)
class RemainderQuery:
    """The execution state handed over to the server (paper Section 3.3).

    ``frontier`` holds the missing entries of the client's priority queue: a
    tuple of one target per item for range / kNN queries and a pair of
    targets for join queries.  ``k_remaining`` carries the ``k − m`` of a
    partially answered kNN query.
    """

    query: Query
    frontier: List[FrontierItem] = field(default_factory=list)
    k_remaining: Optional[int] = None
    reported_fmr: Optional[float] = None

    @property
    def is_empty(self) -> bool:
        """True when nothing needs to be asked of the server."""
        return not self.frontier and self.k_remaining in (None, 0)

    def target_count(self) -> int:
        """Number of frontier targets (pairs count twice)."""
        return sum(len(item) for item in self.frontier)

    def size_bytes(self, size_model: SizeModel) -> int:
        """Uplink footprint: the query descriptor plus the shipped frontier."""
        total = self.query.descriptor_bytes(size_model)
        total += self.target_count() * size_model.frontier_entry_bytes()
        if self.k_remaining is not None:
            total += size_model.coordinate_bytes
        if self.reported_fmr is not None:
            total += size_model.coordinate_bytes
        return total
