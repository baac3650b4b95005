"""The response-time and hit-rate cost model of Section 4.1.

All quantities are in bytes and seconds.  The central definition is the
per-byte average response time

    resp(Q) = |Rr| * (T_Qr + 1/2 |Rr| * Td) / |R|

generalised here with a third class of result bytes — cached results that
are only *confirmed* by the server round trip (page caching's saved
downloads).  Such bytes are not retransmitted, but the client can only be
sure they belong to the answer once the server's response has fully arrived,
so they become available at ``T_Qr + |Rr| * Td``:

    resp(Q) = [ |Rr| * (T_Qr + 1/2 |Rr| * Td) + |R_conf| * (T_Qr + |Rr| * Td) ] / |R|

Locally saved bytes (``Rs``) contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True, slots=True)
class ResponseTimeModel:
    """Wireless-channel timing: per-byte delay and fixed round-trip overhead."""

    bandwidth_bps: float = 384_000.0
    fixed_rtt_seconds: float = 0.0

    @property
    def seconds_per_byte(self) -> float:
        """``Td``: transmission delay of one byte."""
        return 8.0 / self.bandwidth_bps

    def uplink_delay(self, uplink_bytes: float) -> float:
        """``T_Qr``: delay to submit a request of the given size."""
        if uplink_bytes <= 0:
            return 0.0
        return self.fixed_rtt_seconds + uplink_bytes * self.seconds_per_byte

    def response_time(self, uplink_bytes: float, downloaded_result_bytes: float,
                      confirmed_cached_bytes: float, total_result_bytes: float) -> float:
        """Per-byte average response time of one query (generalised Eq. 1)."""
        if total_result_bytes <= 0:
            # No result bytes: the "response time" is the round trip itself if
            # a request had to be sent, zero otherwise.
            return self.uplink_delay(uplink_bytes) if uplink_bytes > 0 else 0.0
        t_qr = self.uplink_delay(uplink_bytes) if uplink_bytes > 0 else 0.0
        td = self.seconds_per_byte
        downloaded_term = downloaded_result_bytes * (t_qr + 0.5 * downloaded_result_bytes * td)
        confirmed_term = confirmed_cached_bytes * (t_qr + downloaded_result_bytes * td)
        return (downloaded_term + confirmed_term) / total_result_bytes


@dataclass(slots=True)
class QueryCost:
    """Per-query cost record produced by the simulation."""

    query_index: int
    query_type: str
    uplink_bytes: float = 0.0
    downlink_bytes: float = 0.0
    result_bytes: float = 0.0
    saved_bytes: float = 0.0
    cached_result_bytes: float = 0.0
    confirmed_cached_bytes: float = 0.0
    downloaded_result_bytes: float = 0.0
    index_downlink_bytes: float = 0.0
    response_time: float = 0.0
    client_cpu_seconds: float = 0.0
    server_cpu_seconds: float = 0.0
    contacted_server: bool = False
    # Index pages the server visited answering this query (the paper's
    # page-access count; 0 for queries answered entirely from the cache).
    # Backend-invariant: the paged file store reports the same counts as
    # the in-memory store by construction.
    server_page_reads: int = 0
    # Cache-consistency traffic (repro.updates): bytes of the pre-query
    # validation handshake, counted inside uplink/downlink totals as well,
    # plus the number of items refreshed in place / invalidated.  All zero
    # on static runs.
    sync_uplink_bytes: int = 0
    sync_downlink_bytes: int = 0
    refreshed_items: int = 0
    invalidated_items: int = 0

    @property
    def false_miss_bytes(self) -> float:
        """Bytes of cached result objects that were not locally confirmed."""
        return max(0.0, self.cached_result_bytes - self.saved_bytes)


@dataclass(slots=True)
class CostAccumulator:
    """Aggregates :class:`QueryCost` records into the paper's metrics."""

    costs: List[QueryCost] = field(default_factory=list)

    def add(self, cost: QueryCost) -> None:
        """Record one query."""
        self.costs.append(cost)

    def __len__(self) -> int:
        return len(self.costs)

    def _mean(self, values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def mean_uplink_bytes(self) -> float:
        """Average uplink bytes per query."""
        return self._mean([c.uplink_bytes for c in self.costs])

    def mean_downlink_bytes(self) -> float:
        """Average downlink bytes per query."""
        return self._mean([c.downlink_bytes for c in self.costs])

    def mean_response_time(self) -> float:
        """Average per-byte response time across queries."""
        return self._mean([c.response_time for c in self.costs])

    def mean_client_cpu_seconds(self) -> float:
        """Average client CPU time per query."""
        return self._mean([c.client_cpu_seconds for c in self.costs])

    def mean_server_cpu_seconds(self) -> float:
        """Average server CPU time per query (only queries that contacted it)."""
        contacted = [c.server_cpu_seconds for c in self.costs if c.contacted_server]
        return self._mean(contacted)

    def cache_hit_rate(self) -> float:
        """``hit_c``: fraction of result bytes answered locally."""
        total = sum(c.result_bytes for c in self.costs)
        saved = sum(c.saved_bytes for c in self.costs)
        return saved / total if total else 0.0

    def byte_hit_rate(self) -> float:
        """``hit_b``: fraction of result bytes that were cached at query time."""
        total = sum(c.result_bytes for c in self.costs)
        cached = sum(c.cached_result_bytes for c in self.costs)
        return cached / total if total else 0.0

    def false_miss_rate(self) -> float:
        """``fmr``: probability a cached result byte was not locally confirmed."""
        cached = sum(c.cached_result_bytes for c in self.costs)
        false = sum(c.false_miss_bytes for c in self.costs)
        return false / cached if cached else 0.0

    def server_contact_rate(self) -> float:
        """Fraction of queries that needed the server."""
        if not self.costs:
            return 0.0
        return sum(1 for c in self.costs if c.contacted_server) / len(self.costs)
