"""Recording and replaying query traces.

A trace is the sequence of (position, think-time, query) triples issued by a
simulated client.  Recording a trace once and replaying it against several
caching models guarantees that every model sees exactly the same workload —
which is how the paper's side-by-side comparisons are made fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.geometry import Point
from repro.workload.queries import Query


@dataclass(frozen=True)
class TraceRecord:
    """One issued query: where the client was, how long it waited, what it asked.

    ``arrival_time`` is the simulated wall-clock instant the query is issued
    (the running sum of think times); the fleet runner interleaves the traces
    of many clients by it.
    """

    index: int
    position: Point
    think_time: float
    query: Query
    arrival_time: float = 0.0


@dataclass
class QueryTrace:
    """An ordered list of :class:`TraceRecord`."""

    records: List[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        """Add one record to the trace."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]
