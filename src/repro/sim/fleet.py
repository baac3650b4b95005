"""Fleet-scale simulation: many heterogeneous clients, one shared server.

The paper's experiments replay one client's trace at a time.  A production
deployment of proactive caching instead looks like PartitionCache-style
middleware: one server answering heavy traffic from a large population of
cache-holding clients.  This module grows the simulator in that direction:

* a **fleet** is a set of client *groups*; every group prescribes a mobility
  model, movement speed, think time, cache size, query mix and caching model
  for its members (:class:`ClientGroupSpec`);
* every client gets its own seeded trace, and all traces are interleaved
  **event-driven by arrival timestamp** against a single shared
  :class:`~repro.core.server.ServerQueryProcessor`;
* results come back per client, per group and as server-load aggregates
  (:class:`~repro.sim.metrics.FleetResult`).

Clients only share server-side state (the tree, the partition trees and the
memoised ground truth), all of which is read-only during a static run, so
such a fleet can be **split across worker processes**: every worker rebuilds
the deterministic server state and simulates its slice of the clients.
Serial and parallel runs produce identical seed-deterministic metrics.

What the fleet runs *against* — storage, topology, transport — is composed
by :func:`repro.sim.deployment.open_deployment`; this module defines the
fleet, builds its event list and sessions, and drives the one replay loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.updates.applier import Updater

from repro.core.cache import ProactiveCache
from repro.obs.status import publish
from repro.sim.config import SimulationConfig
from repro.sim.deployment import (
    COMBINATIONS,
    Deployment,
    check_combination,
    open_deployment,
    replay,
)
from repro.sim.metrics import ClientResult, FleetResult
from repro.sim.runner import (
    SharedServerState,
    generate_trace,
    map_maybe_parallel,
)
from repro.sim.sessions import ClientSession, make_session
from repro.workload.generator import QueryMix
from repro.workload.trace import TraceRecord


@dataclass(frozen=True)
class ClientGroupSpec:
    """One homogeneous slice of the fleet.

    Fields left at ``None`` inherit the fleet's base
    :class:`~repro.sim.config.SimulationConfig`.  ``speed_factor`` scales the
    base speed instead of replacing it so one fleet definition works at any
    base scale.
    """

    name: str
    clients: int
    model: str = "APRO"
    mobility_model: str = "RAN"
    speed_factor: float = 1.0
    think_time_mean: Optional[float] = None
    cache_fraction: Optional[float] = None
    query_mix: Optional[QueryMix] = None
    queries_per_client: Optional[int] = None
    replacement_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("group name must be non-empty")
        if self.clients <= 0:
            raise ValueError("a group needs at least one client")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")


@dataclass(frozen=True)
class FleetConfig:
    """A whole fleet: the shared base configuration plus its client groups.

    The base configuration defines the dataset, the index and the channel —
    everything the one shared server is built from — while the groups define
    the client population.  ``fleet_seed`` decorrelates the per-client
    mobility / workload seeds between fleets that share a base config.

    The dynamic-dataset knobs make the fleet's object set churn:
    ``update_rate`` server-side mutations per simulated second (one shared
    mutation history every client observes), reconciled client-side by the
    ``consistency`` protocol (``versioned`` / ``ttl`` / ``none``, see
    :mod:`repro.updates.protocol`; ``ttl_seconds`` parameterises the TTL
    baseline and ``update_seed`` the update stream).  The defaults —
    ``update_rate=0, consistency="none"`` — are decision-identical to a
    static fleet, down to byte-identical cache digests.

    ``shards`` switches the fleet onto the sharded execution tier (see
    :mod:`repro.sharding`): the dataset is split by the named
    ``partitioner`` (``grid`` / ``kd``) and every query is planned by the
    scatter-gather router instead of one server.  ``None`` (the default)
    keeps the classic single-server path untouched; ``shards=1`` runs the
    sharded machinery degenerately and is byte-identical to it.

    ``router_cache`` attaches the router-level partition-result cache
    (:class:`~repro.sharding.result_cache.PartitionResultCache`) with a
    ``router_cache_bytes`` fact budget: repeated/overlapping queries skip
    shards the cache proves empty for their canonical variants.  Cache-on
    runs are result-identical to cache-off runs (same per-query result
    sets and ``result_bytes``); only wire-level accounting may differ.
    """

    base: SimulationConfig
    groups: Tuple[ClientGroupSpec, ...]
    fleet_seed: int = 101
    update_rate: float = 0.0
    consistency: str = "none"
    ttl_seconds: float = 120.0
    update_seed: int = 4242
    shards: Optional[int] = None
    partitioner: str = "grid"
    transport: str = "inproc"
    router_cache: bool = False
    router_cache_bytes: int = 65536

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a fleet needs at least one client group")
        names = [group.name for group in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names in {names}")
        if self.update_rate < 0:
            raise ValueError("update_rate must be non-negative")
        from repro.updates.stream import CONSISTENCY_MODES
        if self.consistency not in CONSISTENCY_MODES:
            raise ValueError(f"unknown consistency mode "
                             f"{self.consistency!r}; expected one of "
                             f"{', '.join(CONSISTENCY_MODES)}")
        if self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1")
        from repro.sharding.partitioner import PARTITIONER_METHODS
        if (self.partitioner or "grid").lower() not in PARTITIONER_METHODS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}; "
                             f"expected one of "
                             f"{', '.join(PARTITIONER_METHODS)}")
        from repro.net.fleet import TRANSPORTS
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}; "
                             f"expected one of {', '.join(TRANSPORTS)}")
        if self.router_cache_bytes <= 0:
            raise ValueError("router_cache_bytes must be positive")
        if self.router_cache and self.shards is None:
            # The one combination a config contradicts on its own; every
            # other is checked when a run is requested.
            raise ValueError(COMBINATIONS["router-cache single"])

    @property
    def is_dynamic(self) -> bool:
        """True when the run needs the dynamic-dataset machinery at all."""
        return self.update_rate > 0 or self.consistency != "none"

    @property
    def is_sharded(self) -> bool:
        """True when the fleet runs through the sharded execution tier."""
        return self.shards is not None

    @property
    def is_networked(self) -> bool:
        """True when the server sits behind a loopback socket."""
        return self.transport != "inproc"

    @staticmethod
    def make(base: SimulationConfig, groups: Sequence[ClientGroupSpec],
             fleet_seed: int = 101) -> "FleetConfig":
        """Build a fleet config from any sequence of group specs."""
        return FleetConfig(base=base, groups=tuple(groups), fleet_seed=fleet_seed)

    @property
    def total_clients(self) -> int:
        """Number of clients across all groups."""
        return sum(group.clients for group in self.groups)

    def client_specs(self) -> List["FleetClientSpec"]:
        """One spec per client, with globally unique, deterministic ids."""
        specs: List[FleetClientSpec] = []
        client_id = 0
        for group in self.groups:
            for _ in range(group.clients):
                specs.append(FleetClientSpec(
                    client_id=client_id,
                    group=group.name,
                    model=group.model,
                    config=self._client_config(group, client_id),
                    replacement_policy=group.replacement_policy))
                client_id += 1
        return specs

    def _client_config(self, group: ClientGroupSpec, client_id: int) -> SimulationConfig:
        """The per-client simulation config: group overrides + unique seeds.

        Dataset fields are never overridden — every client must see the same
        server-side tree.  The seed offsets use distinct large primes so the
        mobility and workload streams of different clients (and of the base
        single-client experiments) never collide.
        """
        overrides: Dict[str, object] = {
            "mobility_model": group.mobility_model,
            "speed": self.base.speed * group.speed_factor,
            "mobility_seed": self.base.mobility_seed + 7919 * (self.fleet_seed + client_id + 1),
            "workload_seed": self.base.workload_seed + 6007 * (self.fleet_seed + client_id + 1),
        }
        if group.think_time_mean is not None:
            overrides["think_time_mean"] = group.think_time_mean
        if group.cache_fraction is not None:
            overrides["cache_fraction"] = group.cache_fraction
        if group.query_mix is not None:
            overrides["query_mix"] = group.query_mix
        if group.queries_per_client is not None:
            overrides["query_count"] = group.queries_per_client
        return self.base.with_overrides(**overrides)


@dataclass(frozen=True)
class FleetClientSpec:
    """One concrete client of the fleet (flattened from its group)."""

    client_id: int
    group: str
    model: str
    config: SimulationConfig
    replacement_policy: Optional[str] = None


def default_fleet(clients: int, base: Optional[SimulationConfig] = None,
                  queries_per_client: Optional[int] = None,
                  fleet_seed: int = 101) -> FleetConfig:
    """A heterogeneous three-group city fleet for ``clients`` total clients.

    Pedestrians amble under random-waypoint mobility with the default cache;
    vehicles move fast and directed with a small cache and a range-heavy mix;
    hotspot users barely move, hold a large cache and ask mostly kNN queries.
    """
    if clients <= 0:
        raise ValueError("clients must be positive")
    base = base or SimulationConfig.scaled()
    if queries_per_client is not None:
        base = base.with_overrides(query_count=queries_per_client)
    shares = _split_clients(clients, (2, 1, 1))
    groups = []
    if shares[0]:
        groups.append(ClientGroupSpec(name="pedestrians", clients=shares[0],
                                      mobility_model="RAN"))
    if shares[1]:
        groups.append(ClientGroupSpec(name="vehicles", clients=shares[1],
                                      mobility_model="DIR", speed_factor=8.0,
                                      cache_fraction=base.cache_fraction / 2,
                                      query_mix=QueryMix(range_=2.0, knn=1.0, join=0.5)))
    if shares[2]:
        groups.append(ClientGroupSpec(name="hotspot", clients=shares[2],
                                      mobility_model="RAN", speed_factor=0.25,
                                      cache_fraction=base.cache_fraction * 2,
                                      query_mix=QueryMix(range_=0.5, knn=2.0, join=0.5)))
    return FleetConfig.make(base, groups, fleet_seed=fleet_seed)


def _split_clients(total: int, weights: Sequence[int]) -> List[int]:
    """Split ``total`` clients proportionally to integer ``weights``."""
    weight_sum = sum(weights)
    shares = [total * weight // weight_sum for weight in weights]
    leftover = total - sum(shares)
    for index in range(leftover):
        shares[index % len(shares)] += 1
    return shares


# --------------------------------------------------------------------------- #
# running a fleet
# --------------------------------------------------------------------------- #
def run_fleet(fleet: FleetConfig, max_workers: Optional[int] = None,
              store_path: Optional[str] = None,
              durable: bool = False) -> FleetResult:
    """Simulate the whole fleet against one shared deployment.

    Every fleet is the same pipeline — open the deployment, build one
    cold-cache session per client, replay the arrival-ordered event list,
    stamp final cache state and summaries — over whatever
    :func:`~repro.sim.deployment.open_deployment` composes for it:

    * ``store_path`` serves the tree from a disk-backed ``.rpro`` page
      store (a shard-store *directory* for a sharded fleet, see ``repro
      persist save-shards``) instead of memory; all deterministic metrics
      are identical to the in-memory run.
    * A *dynamic* fleet (``update_rate`` > 0 or a real consistency
      protocol) replays one shared mutation history against the live
      server between queries; a disk store is then opened copy-on-write
      — or, with ``durable=True``, through the store's write-ahead log
      (one per shard), so every applied batch is crash-safe on disk (see
      :mod:`repro.storage.wal`).
    * A *sharded* fleet (``fleet.shards`` set) plans every query through
      the scatter-gather router; with one shard the run is byte-identical
      to the single-server fleet, with N shards result-identical, and the
      per-shard routing counters land in :attr:`FleetResult.shard_summary`.
    * A *networked* fleet (``fleet.transport`` of ``uds`` or ``tcp``) puts
      the same deployment behind a loopback socket — pinned byte-identical
      to the in-process run by the ``tests/net`` equivalence suite, with
      the two-sided byte reconciliation in :attr:`FleetResult.net_summary`.

    With ``max_workers`` > 1 the clients of a static, single-server,
    in-process fleet are split round-robin over worker processes; every
    worker opens its own deployment.  Such clients share only read-only
    server state, so the seed-deterministic metrics are identical to a
    serial run.  Combinations that cannot work (workers with anything that
    shares mutable server-side state, ``durable`` without a dynamic fleet
    and a store, PAG/SEM outside the static single-server fleet) raise the
    ``ValueError`` of :data:`~repro.sim.deployment.COMBINATIONS`.
    """
    check_combination(fleet, max_workers=max_workers, store_path=store_path,
                      durable=durable)
    specs = fleet.client_specs()
    if max_workers is not None and max_workers > 1 and len(specs) > 1:
        count = min(max_workers, len(specs))
        slices = map_maybe_parallel(
            _run_slice, [(fleet, specs[offset::count], store_path)
                         for offset in range(count)], max_workers)
        return FleetResult(clients=[client for part in slices
                                    for client in part.clients])
    return _run_slice(fleet, specs, store_path, durable)


def _run_slice(fleet: FleetConfig, specs: List[FleetClientSpec],
               store_path: Optional[str] = None,
               durable: bool = False) -> FleetResult:
    """Open the deployment and run ``specs``' clients from a cold start.

    The whole serial fleet, or (as the process-pool task) one worker's
    slice of it.
    """
    deployment = open_deployment(fleet, store_path, durable)
    try:
        sessions = make_sessions(deployment, specs)
        results = fresh_results(specs)
        events = build_dynamic_events(fleet, specs)
        publish("fleet", lambda: {"clients": len(specs),
                                  "events": len(events),
                                  "consistency": fleet.consistency,
                                  "shards": fleet.shards,
                                  "partitioner": fleet.partitioner,
                                  "transport": fleet.transport})
        publish("cache", lambda: cache_churn(sessions))
        replay(deployment, sessions, results, events)
        return finish_fleet(deployment, specs, sessions, results)
    finally:
        deployment.close()


def make_sessions(deployment: Deployment, specs: Sequence[FleetClientSpec],
                  ) -> Dict[int, ClientSession]:
    """One cold-cache session per spec, wired to ``deployment``.

    The one session factory of every fleet run, halted or resumed: a
    resumed run must build byte-identical session wiring (same protocol
    instances bound to the same updater) to reproduce an uninterrupted one.
    """
    sessions: Dict[int, ClientSession] = {}
    for spec in specs:
        handle, consistency = deployment.connect(spec)
        sessions[spec.client_id] = make_session(
            spec.model, deployment.tree, spec.config, server=handle,
            replacement_policy=spec.replacement_policy,
            ground_truth=deployment.ground_truth, consistency=consistency)
    return sessions


def make_dynamic_sessions(fleet: FleetConfig, shared: SharedServerState,
                          specs: Sequence[FleetClientSpec],
                          updater: Optional["Updater"]) -> Dict[int, ClientSession]:
    """One cold-cache session per spec, wired to the fleet's consistency.

    :func:`make_sessions` for callers that built the in-process server
    state themselves: ``updater`` backs the ``versioned`` protocol and may
    be ``None`` for a fleet that never validates.
    """
    return make_sessions(
        Deployment(fleet, shared.server, shared.tree, shared.size_model,
                   shared.ground_truth, updater), specs)


def fresh_results(specs: Sequence[FleetClientSpec]) -> Dict[int, ClientResult]:
    """An empty per-client result record for every spec."""
    return {spec.client_id: ClientResult(client_id=spec.client_id,
                                         group=spec.group, model=spec.model)
            for spec in specs}


def build_fleet_events(specs: Sequence[FleetClientSpec],
                       ) -> List[Tuple[float, int, TraceRecord]]:
    """The fleet's deterministic global query-event list.

    Every client's seeded trace, merged and sorted by simulated arrival
    time (ties broken by client id, then issue order).  The list depends
    only on the specs, so a resumed session rebuilds the identical list
    and continues from any event offset (see :mod:`repro.sim.restart`).
    """
    events: List[Tuple[float, int, TraceRecord]] = []
    for spec in specs:
        trace = generate_trace(spec.config)
        events.extend((record.arrival_time, spec.client_id, record)
                      for record in trace)
    events.sort(key=lambda event: (event[0], event[1], event[2].index))
    return events


def build_dynamic_events(fleet: FleetConfig,
                         specs: Sequence[FleetClientSpec]) -> List[Tuple]:
    """The merged, arrival-ordered query + update event list of a fleet.

    Query events keep exactly the relative order of
    :func:`build_fleet_events`; update events from the fleet's seeded
    stream (see :mod:`repro.updates.stream`) slot in by arrival time, an
    update winning ties so a mutation at time *t* is visible to every
    query at time *t*.  Each element is ``("query", t, client_id, record)``
    or ``("update", t, None, event)``; a static fleet has no update events.
    """
    from repro.updates.stream import UpdateStreamConfig, generate_update_stream
    query_events = build_fleet_events(specs)
    merged: List[Tuple] = [("query", t, client_id, record)
                           for t, client_id, record in query_events]
    if fleet.update_rate > 0 and query_events:
        horizon = query_events[-1][0]
        stream_config = UpdateStreamConfig(
            update_rate=fleet.update_rate,
            mean_object_bytes=fleet.base.mean_object_bytes,
            zipf_theta=fleet.base.zipf_theta,
            seed=fleet.update_seed)
        initial_ids = _initial_object_ids(fleet.base)
        updates = generate_update_stream(initial_ids, horizon, stream_config)
        merged.extend(("update", event.arrival_time, None, event)
                      for event in updates)
        merged.sort(key=lambda item: (
            item[1],                                     # arrival time
            0 if item[0] == "update" else 1,             # updates first
            item[2] if item[2] is not None else -1,      # client id
            item[3].index))                              # issue order
    return merged


def _initial_object_ids(base: SimulationConfig) -> List[int]:
    """The deterministic time-zero object id population of the base config.

    The dataset generators assign consecutive ids starting at 0, so the
    population is known without building the tree — asserted against the
    real tree by the fleet tests.
    """
    return list(range(base.object_count))


def finish_fleet(deployment: Deployment, specs: Sequence[FleetClientSpec],
                 sessions: Dict[int, ClientSession],
                 results: Dict[int, ClientResult]) -> FleetResult:
    """Stamp final cache state on every client and assemble the result.

    Final cache usage and content digest (where the model has one) per
    client, then the deployment's own summary blocks (updates, shards,
    loopback reconciliation).  Must run before the deployment closes.
    """
    for client_id, session in sessions.items():
        snapshot = session.cache_snapshot(len(results[client_id].costs))
        results[client_id].final_cache_used_bytes = snapshot.used_bytes
        cache = session.cache
        if isinstance(cache, ProactiveCache):
            results[client_id].final_cache_digest = cache.content_digest()
    result = FleetResult(clients=[results[spec.client_id] for spec in specs])
    deployment.summaries(result)
    return result


def cache_churn(sessions: Dict[int, ClientSession]) -> Dict[str, int]:
    """Replacement-policy churn totals over every session's live cache.

    Read by the status board mid-run; the PAG and SEM caches only count
    evictions.
    """
    totals = {"evictions": 0, "rejected_inserts": 0,
              "invalidations": 0, "refreshes": 0}
    for session in sessions.values():
        cache = session.cache
        totals["evictions"] += cache.evictions
        if isinstance(cache, ProactiveCache):
            totals["rejected_inserts"] += cache.rejected_inserts
            totals["invalidations"] += cache.invalidations
            totals["refreshes"] += cache.refreshes
    return totals
