"""Simulation results: per-query costs, cache-state snapshots and summaries.

Two result granularities live here:

* :class:`ClientResult` — one client's replayed trace: a fleet client, or
  one model of a paired comparison (the paper's single-client
  experiments);
* :class:`FleetResult` — many heterogeneous clients sharing one server
  (the fleet simulations), aggregated per client, per group and for the
  server as a whole (:class:`ServerLoad`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cost_model import CostAccumulator, QueryCost


@dataclass(frozen=True)
class CacheSnapshot:
    """State of the client cache right after a query completed."""

    query_index: int
    used_bytes: int
    index_bytes: int
    object_bytes: int
    item_count: int
    depth: int

    @property
    def index_fraction(self) -> float:
        """The paper's ``i/c``: share of the *used* cache occupied by index."""
        if self.used_bytes <= 0:
            return 0.0
        return self.index_bytes / self.used_bytes


# --------------------------------------------------------------------------- #
# fleet-scale results
# --------------------------------------------------------------------------- #

#: Metrics that are pure functions of the seeded simulation (byte counts and
#: the rates derived from them).  CPU timings are measured wall clock, so
#: they are excluded; paired serial/parallel fleet runs agree exactly on
#: every metric listed here.
DETERMINISTIC_METRICS = ("uplink_bytes", "downlink_bytes", "cache_hit_rate",
                         "byte_hit_rate", "false_miss_rate", "response_time",
                         "server_contact_rate")


@dataclass
class ClientResult:
    """Everything measured for one client of a fleet or a comparison."""

    client_id: int
    group: str
    model: str
    costs: List[QueryCost] = field(default_factory=list)
    arrival_times: List[float] = field(default_factory=list)
    #: The cache state right after each recorded query (Figure 11 reads it).
    snapshots: List[CacheSnapshot] = field(default_factory=list)
    final_cache_used_bytes: int = 0
    # Digest of the full final cache state (proactive sessions only; "" for
    # models without snapshot support).  Warm-restart tests compare these.
    final_cache_digest: str = ""

    def record(self, cost: QueryCost, arrival_time: float,
               snapshot: Optional[CacheSnapshot] = None) -> None:
        """Record one query's cost, arrival instant and (if given) the
        post-query cache state."""
        self.costs.append(cost)
        self.arrival_times.append(arrival_time)
        if snapshot is not None:
            self.snapshots.append(snapshot)

    def accumulator(self) -> CostAccumulator:
        """The client's costs wrapped for metric computation."""
        return CostAccumulator(costs=self.costs)

    def summary(self) -> Dict[str, float]:
        """The headline metrics of this client."""
        return _accumulator_summary(self.accumulator())


@dataclass(frozen=True)
class ServerLoad:
    """Aggregate load the whole fleet put on the shared server."""

    client_count: int
    total_queries: int
    server_queries: int
    duration_seconds: float
    uplink_bytes_total: float
    downlink_bytes_total: float
    server_cpu_seconds: float

    @property
    def queries_per_second(self) -> float:
        """Fleet-wide query arrival rate over the simulated duration."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.total_queries / self.duration_seconds

    @property
    def server_queries_per_second(self) -> float:
        """Rate of queries that actually reached the server."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.server_queries / self.duration_seconds

    @property
    def downlink_bytes_per_second(self) -> float:
        """Bytes per second the server pushed to the fleet."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.downlink_bytes_total / self.duration_seconds

    def as_dict(self) -> Dict[str, float]:
        """All load figures as a flat mapping (for tables / JSON)."""
        return {
            "clients": float(self.client_count),
            "total_queries": float(self.total_queries),
            "server_queries": float(self.server_queries),
            "duration_seconds": self.duration_seconds,
            "queries_per_second": self.queries_per_second,
            "server_queries_per_second": self.server_queries_per_second,
            "uplink_bytes_total": self.uplink_bytes_total,
            "downlink_bytes_total": self.downlink_bytes_total,
            "downlink_bytes_per_second": self.downlink_bytes_per_second,
            "server_cpu_seconds": self.server_cpu_seconds,
        }


@dataclass
class FleetResult:
    """The outcome of one fleet simulation: per-client, per-group, server."""

    clients: List[ClientResult] = field(default_factory=list)
    # Dynamic fleets only: the shared server's applied-update counters and
    # the consistency mode (see repro.updates); None for static fleets.
    update_summary: Optional[Dict] = None
    # Sharded fleets only: the router's per-shard routing counters
    # (queries routed, shards pruned, pages read — see repro.sharding);
    # None for single-server fleets.
    shard_summary: Optional[Dict] = None
    # Loopback-networked fleets only: the transport plus the per-client
    # byte reconciliation between the client's WirelessChannel totals and
    # the server's connection ledgers (see repro.net.fleet); None for
    # in-process fleets.
    net_summary: Optional[Dict] = None

    def __post_init__(self) -> None:
        self.clients.sort(key=lambda client: client.client_id)

    # ------------------------------------------------------------------ #
    # per-client / per-group
    # ------------------------------------------------------------------ #
    def group_names(self) -> List[str]:
        """Group names in first-appearance order."""
        names: List[str] = []
        for client in self.clients:
            if client.group not in names:
                names.append(client.group)
        return names

    def group_clients(self, group: str) -> List[ClientResult]:
        """The clients of one group."""
        return [client for client in self.clients if client.group == group]

    def group_summary(self) -> Dict[str, Dict[str, float]]:
        """Pooled headline metrics per group (all group queries together)."""
        summaries: Dict[str, Dict[str, float]] = {}
        for group in self.group_names():
            members = self.group_clients(group)
            pooled = CostAccumulator(costs=[cost for client in members
                                            for cost in client.costs])
            summary = _accumulator_summary(pooled)
            summary["clients"] = float(len(members))
            summary["queries"] = float(len(pooled))
            summaries[group] = summary
        return summaries

    def deterministic_group_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-group metrics restricted to the seed-deterministic ones.

        This is the signature compared by the serial-vs-parallel and
        repeated-run determinism tests.
        """
        return {group: {metric: summary[metric] for metric in DETERMINISTIC_METRICS}
                for group, summary in self.group_summary().items()}

    # ------------------------------------------------------------------ #
    # server load
    # ------------------------------------------------------------------ #
    def server_load(self) -> ServerLoad:
        """Aggregate the load every client put on the shared server."""
        costs = [cost for client in self.clients for cost in client.costs]
        arrivals = [t for client in self.clients for t in client.arrival_times]
        duration = max(arrivals) if arrivals else 0.0
        return ServerLoad(
            client_count=len(self.clients),
            total_queries=len(costs),
            server_queries=sum(1 for c in costs if c.contacted_server),
            duration_seconds=duration,
            uplink_bytes_total=sum(c.uplink_bytes for c in costs),
            downlink_bytes_total=sum(c.downlink_bytes for c in costs),
            server_cpu_seconds=sum(c.server_cpu_seconds for c in costs
                                   if c.contacted_server),
        )

    def shard_rows(self) -> List[Dict[str, float]]:
        """Per-shard routing counters as flat rows (sharded fleets only).

        One row per shard with the counters the router kept while the
        fleet ran: queries routed to the shard, router-level prunes
        (virtual-root scatters and kNN bound checks that skipped it
        without a visit — client-side pruning shows up as a low routed
        count instead), partition-result-cache skips (``--router-cache``
        proving the shard empty for the query's canonical variants), pages
        read there, and the shard's current object count.  Returns an
        empty list for single-server fleets.
        """
        summary = self.shard_summary
        if not summary:
            return []
        routed = summary.get("queries_routed") or []
        shard_count = len(routed)

        def column(key: str) -> List:
            # Summaries written before a counter existed (e.g. resumed
            # pre-PR-9 session snapshots have no "shards_skipped") default
            # to zeros instead of raising KeyError.
            values = summary.get(key)
            if isinstance(values, (list, tuple)) and len(values) == shard_count:
                return list(values)
            return [0] * shard_count

        objects = column("objects_per_shard")
        pruned = column("shards_pruned")
        skipped = column("shards_skipped")
        pages = column("pages_read")
        return [{
            "shard": float(index),
            "objects": float(objects[index]),
            "queries_routed": float(routed[index]),
            "shards_pruned": float(pruned[index]),
            "shards_skipped": float(skipped[index]),
            "pages_read": float(pages[index]),
        } for index in range(shard_count)]

    def windowed_queries_per_second(self, windows: int = 20) -> List[float]:
        """Fleet-wide arrival rate over ``windows`` equal slices of the run."""
        arrivals = sorted(t for client in self.clients for t in client.arrival_times)
        if not arrivals or windows <= 0:
            return []
        duration = arrivals[-1]
        if duration <= 0:
            return [float(len(arrivals))]
        width = duration / windows
        counts = [0] * windows
        for arrival in arrivals:
            slot = min(windows - 1, int(arrival / width))
            counts[slot] += 1
        return [count / width for count in counts]


def _accumulator_summary(acc: CostAccumulator) -> Dict[str, float]:
    """The shared headline-metric block of a cost accumulator."""
    return {
        "uplink_bytes": acc.mean_uplink_bytes(),
        "downlink_bytes": acc.mean_downlink_bytes(),
        "cache_hit_rate": acc.cache_hit_rate(),
        "byte_hit_rate": acc.byte_hit_rate(),
        "false_miss_rate": acc.false_miss_rate(),
        "response_time": acc.mean_response_time(),
        "client_cpu_ms": acc.mean_client_cpu_seconds() * 1000.0,
        "server_cpu_ms": acc.mean_server_cpu_seconds() * 1000.0,
        "server_contact_rate": acc.server_contact_rate(),
    }
