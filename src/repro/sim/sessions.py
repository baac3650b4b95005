"""Client sessions: one per caching model, all driven by the same trace.

A session owns the client-side cache of its caching model, talks to the
(simulated) server and produces one :class:`~repro.core.cost_model.QueryCost`
per query.  All sessions share the same definition of the ground-truth result
set ``R`` so that hit rates and response times are directly comparable.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.updates.protocol import ConsistencyProtocol

from repro.baselines.page import PageCache
from repro.baselines.semantic import SemanticCache
from repro.core.adaptive import AdaptiveDepthController
from repro.core.cache import ProactiveCache
from repro.core.client import ClientQueryProcessor
from repro.core.cost_model import QueryCost, ResponseTimeModel
from repro.core.handles import ServerHandle
from repro.core.items import CachedIndexNode, CachedObject, item_key_for_object
from repro.core.replacement import make_policy
from repro.core.server import ServerQueryProcessor
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.obs.instrument import perf_clock
from repro.rtree.entry import ObjectRecord
from repro.rtree.knn import knn_search
from repro.rtree.range_search import range_search
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import RTree, TreeView
from repro.sim.config import SimulationConfig
from repro.sim.metrics import CacheSnapshot
from repro.updates.oracle import oracle_join
from repro.workload.queries import JoinQuery, KNNQuery, Query, RangeQuery
from repro.workload.trace import TraceRecord


# --------------------------------------------------------------------------- #
# ground truth helpers
# --------------------------------------------------------------------------- #
def true_range_results(tree: TreeView, query: RangeQuery) -> List[int]:
    """Ids of the true result objects of a range query."""
    return range_search(tree, query.window)


def true_knn_results(tree: TreeView, query: KNNQuery) -> List[int]:
    """Ids of the true result objects of a kNN query."""
    return [object_id for object_id, _ in knn_search(tree, query.point, query.k)]


def true_join_results(tree: TreeView, query: JoinQuery) -> List[int]:
    """Ids of the distinct objects participating in a qualifying join pair."""
    return oracle_join({object_id: tree.objects[object_id]
                        for object_id in range_search(tree, query.window)}, query)


def true_results(tree: TreeView, query: Query) -> List[int]:
    """Ground-truth result object ids for any supported query."""
    if isinstance(query, RangeQuery):
        return true_range_results(tree, query)
    if isinstance(query, KNNQuery):
        return true_knn_results(tree, query)
    if isinstance(query, JoinQuery):
        return true_join_results(tree, query)
    raise TypeError(f"unsupported query type {type(query)!r}")


class GroundTruthCache:
    """Memoised ground-truth result sets shared across sessions.

    Replaying the same trace against several caching models (or many fleet
    clients against one server) used to recompute ``true_results`` from
    scratch for every session.  Queries are frozen dataclasses, so one shared
    memo keyed by the query itself lets every session reuse the first
    computation.  The CPU cost measured on the first computation is *charged*
    on every reuse, so paired runs report identical server CPU regardless of
    which session happened to compute a result first.
    """

    def __init__(self, tree: TreeView) -> None:
        self.tree = tree
        self._store: Dict[Query, Tuple[List[int], float]] = {}

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Forget every memoised result (a server-side update made them stale)."""
        self._store.clear()

    def results_for(self, query: Query) -> Tuple[List[int], float]:
        """``(result_ids, charged_cpu_seconds)`` for ``query``."""
        entry = self._store.get(query)
        if entry is None:
            start = perf_clock()
            ids = true_results(self.tree, query)
            entry = (ids, perf_clock() - start)
            self._store[query] = entry
        return entry


# --------------------------------------------------------------------------- #
# session interface
# --------------------------------------------------------------------------- #
class ClientSession(abc.ABC):
    """One mobile client running one caching model."""

    #: The model's client-side cache (each subclass narrows the type).
    cache: Union[ProactiveCache, PageCache, SemanticCache]

    def __init__(self, name: str, tree: TreeView, config: SimulationConfig,
                 size_model: Optional[SizeModel] = None,
                 ground_truth: Optional[GroundTruthCache] = None) -> None:
        self.name = name
        self.tree = tree
        self.config = config
        self.size_model = size_model or tree.size_model
        # Explicit None check: an empty shared cache is falsy (it has __len__).
        self.ground_truth = ground_truth if ground_truth is not None else GroundTruthCache(tree)
        self.timing = ResponseTimeModel(bandwidth_bps=config.bandwidth_bps,
                                        fixed_rtt_seconds=config.fixed_rtt_seconds)

    @abc.abstractmethod
    def process(self, record: TraceRecord) -> QueryCost:
        """Answer one traced query and account for its cost."""

    @abc.abstractmethod
    def cache_snapshot(self, query_index: int) -> CacheSnapshot:
        """The cache state after the most recent query."""

    # Warm-restart persistence (see repro.storage.snapshot). ------------- #
    def state_dict(self) -> dict:
        """Serialisable session state for warm restarts (where supported)."""
        raise NotImplementedError(
            f"{self.name} sessions do not support warm-restart snapshots")

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (where supported)."""
        raise NotImplementedError(
            f"{self.name} sessions do not support warm-restart snapshots")

    # Convenience shared by the subclasses. ------------------------------- #
    def _object_bytes(self, object_ids: Set[int]) -> int:
        return sum(self.tree.objects[object_id].size_bytes for object_id in object_ids
                   if object_id in self.tree.objects)


# --------------------------------------------------------------------------- #
# proactive caching (FPRO / CPRO / APRO)
# --------------------------------------------------------------------------- #
class ProactiveSession(ClientSession):
    """Proactive caching with a configurable supporting-index form.

    ``consistency`` (a protocol from :mod:`repro.updates.protocol`) makes
    the session dynamic-dataset aware: before every query the protocol
    reconciles the cache with the live server (billing its handshake bytes
    into the query cost) and the client refreshes its root catalogue
    information, so server-side inserts and deletes are observed rather
    than silently served stale.  ``None`` (the default) is the untouched
    static behaviour.
    """

    cache: ProactiveCache

    def __init__(self, tree: TreeView, config: SimulationConfig,
                 server: Optional[ServerHandle] = None,
                 index_form: Optional[str] = None,
                 replacement_policy: Optional[str] = None,
                 name: Optional[str] = None,
                 ground_truth: Optional[GroundTruthCache] = None,
                 consistency: Optional["ConsistencyProtocol"] = None) -> None:
        form = (index_form or config.index_form).lower()
        default_names = {"full": "FPRO", "compact": "CPRO", "adaptive": "APRO"}
        super().__init__(name or default_names.get(form, "APRO"), tree, config,
                         ground_truth=ground_truth)
        if server is None:
            if not isinstance(tree, RTree):
                raise TypeError("a session over a tree view needs an "
                                "explicit server handle")
            server = ServerQueryProcessor(tree, size_model=self.size_model)
        self.server = server
        if form == "full":
            self.policy = SupportingIndexPolicy.full()
        elif form == "compact":
            self.policy = SupportingIndexPolicy.compact()
        elif form == "adaptive":
            self.policy = SupportingIndexPolicy.adaptive(initial_depth=config.initial_depth)
        else:
            raise ValueError(f"unknown index form {form!r}")
        self.controller = AdaptiveDepthController(policy=self.policy,
                                                  sensitivity=config.sensitivity,
                                                  report_period=config.adapt_report_period)
        policy_name = replacement_policy or config.replacement_policy
        self.cache = ProactiveCache(capacity_bytes=config.cache_bytes(),
                                    size_model=self.size_model,
                                    replacement_policy=make_policy(policy_name))
        self.client = ClientQueryProcessor(self.cache, root_id=self.server.root_id,
                                           root_mbr=self.server.root_mbr)
        self.consistency = consistency
        # Result ids of the most recent query (the differential property
        # harness compares these against a linear-scan oracle).
        self.last_result_ids: Set[int] = set()

    def process(self, record: TraceRecord) -> QueryCost:
        query = record.query
        self.cache.tick()
        sync = None
        if self.consistency is not None:
            sync = self.consistency.sync(
                self.cache, now=record.arrival_time,
                context={"client_position": record.position})
            # Refresh the root catalogue info: splits and condenses can
            # move the server's root between queries.
            self.client.root_id = self.server.root_id
            self.client.root_mbr = self.server.root_mbr
        cached_before = self.cache.cached_object_ids()

        execution = self.client.execute(query)
        saved_ids = set(execution.saved_objects)
        saved_bytes = sum(obj.size_bytes for obj in execution.saved_objects.values())

        cost = QueryCost(query_index=record.index, query_type=query.query_type.value,
                         saved_bytes=saved_bytes, client_cpu_seconds=execution.cpu_seconds)

        delivered_ids: Set[int] = set()
        if execution.complete:
            result_ids = saved_ids
        else:
            remainder = execution.remainder()
            uplink = remainder.size_bytes(self.size_model)
            response = self.server.execute(query, remainder, self.policy)
            delivered_ids = response.result_object_ids()
            downloaded_bytes = response.result_bytes()
            confirmed_bytes = response.confirmed_cached_bytes()
            index_bytes = (response.index_bytes(self.size_model)
                           + response.confirmation_bytes(self.size_model))

            cost.contacted_server = True
            cost.uplink_bytes = uplink
            cost.downloaded_result_bytes = downloaded_bytes
            cost.confirmed_cached_bytes = confirmed_bytes
            cost.index_downlink_bytes = index_bytes
            cost.downlink_bytes = downloaded_bytes + index_bytes
            cost.server_cpu_seconds = response.cpu_seconds
            cost.server_page_reads = response.accessed_node_count

            insert_start = perf_clock()
            context = {"client_position": record.position}
            for snapshot in response.index_snapshots:
                node = CachedIndexNode(node_id=snapshot.node_id, level=snapshot.level,
                                       elements={e.code: e for e in snapshot.elements})
                self.cache.insert_node_snapshot(node, snapshot.parent_id, context)
            for delivery in response.deliveries:
                if delivery.confirm_only and self.cache.has_object(delivery.record.object_id):
                    # The payload is still cached; the confirmation counts
                    # as a hit on the cached copy.
                    self.cache.touch(item_key_for_object(delivery.record.object_id))
                    continue
                # Ordinary delivery — or a confirm-only object that the
                # snapshot inserts above just evicted: the client held its
                # payload when the response arrived (nothing retransmitted),
                # so re-inserting it is a caching decision, not a download.
                cached_object = CachedObject(object_id=delivery.record.object_id,
                                             mbr=delivery.record.mbr,
                                             size_bytes=delivery.record.size_bytes)
                self.cache.insert_object(cached_object, delivery.parent_node_id, context)
            cost.client_cpu_seconds += perf_clock() - insert_start
            if self.consistency is not None:
                self.consistency.note_response(self.cache, response,
                                               now=record.arrival_time)
            result_ids = saved_ids | delivered_ids

        self.last_result_ids = set(result_ids)
        result_bytes = self._object_bytes(result_ids)
        cached_result_bytes = self._object_bytes(result_ids & cached_before)
        cost.result_bytes = result_bytes
        cost.cached_result_bytes = cached_result_bytes
        # Response time models the *query* round trip (Eq. 1); the
        # consistency handshake is a separate pre-query exchange, so its
        # bytes join the uplink/downlink totals below without inflating
        # the query's t_qr term.
        cost.response_time = self.timing.response_time(
            uplink_bytes=cost.uplink_bytes,
            downloaded_result_bytes=cost.downloaded_result_bytes,
            confirmed_cached_bytes=cost.confirmed_cached_bytes,
            total_result_bytes=result_bytes)
        if sync is not None:
            cost.sync_uplink_bytes = sync.uplink_bytes
            cost.sync_downlink_bytes = sync.downlink_bytes
            cost.refreshed_items = sync.refreshed_items
            cost.invalidated_items = sync.dropped_items
            cost.uplink_bytes += sync.uplink_bytes
            cost.downlink_bytes += sync.downlink_bytes
            if sync.contacted_server:
                cost.contacted_server = True
        self.controller.record_query(cached_result_bytes, saved_bytes)
        return cost

    def cache_snapshot(self, query_index: int) -> CacheSnapshot:
        return CacheSnapshot(query_index=query_index,
                             used_bytes=self.cache.used_bytes,
                             index_bytes=self.cache.index_bytes(),
                             object_bytes=self.cache.object_bytes(),
                             item_count=len(self.cache),
                             depth=self.policy.depth if self.policy.form is IndexForm.ADAPTIVE
                             else self.policy.effective_depth(10**6))

    # -- warm-restart persistence ----------------------------------------- #
    # repro: allow[STM01] server/client/policy are rebuilt from the run
    # configuration; last_result_ids is a per-run transient re-derived from
    # the first post-resume response.
    def state_dict(self) -> dict:
        """Everything a warm restart needs to resume this session exactly.

        The cache (items + replacement metadata + orderings), the adaptive
        depth controller's fmr window, the supporting-index depth and — for
        dynamic fleets — the consistency protocol's per-session tables
        (TTL shipping stamps / version stamps).  The query processor and
        the server connection are stateless and are rebuilt from the
        configuration on resume.
        """
        state = {
            "format": 1,
            "kind": "proactive-session",
            "name": self.name,
            "cache": self.cache.state_dict(),
            "controller": self.controller.state_dict(),
        }
        if self.consistency is not None:
            state["consistency"] = self.consistency.state_dict()
        return state

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict` snapshot taken from an equivalent session.

        The session must have been constructed with the same configuration
        (model, cache budget, replacement policy, consistency mode) that
        produced the snapshot; only the mutable state is transplanted.
        """
        if state.get("kind") != "proactive-session":
            raise ValueError(f"not a proactive-session snapshot: "
                             f"{state.get('kind')!r}")
        self.cache = ProactiveCache.from_state_dict(
            state["cache"], size_model=self.size_model,
            replacement_policy=self.cache.replacement_policy)
        self.controller.load_state_dict(state["controller"])
        self.client = ClientQueryProcessor(self.cache, root_id=self.server.root_id,
                                           root_mbr=self.server.root_mbr)
        snapshot = state.get("consistency")
        if snapshot is not None:
            if self.consistency is None:
                raise ValueError(
                    "snapshot carries consistency-protocol state but this "
                    "session was built without a protocol; resume with the "
                    "fleet configuration that produced the snapshot")
            self.consistency.restore_state(snapshot)


# --------------------------------------------------------------------------- #
# page caching (PAG)
# --------------------------------------------------------------------------- #
class PageCachingSession(ClientSession):
    """Page/object caching with LRU replacement and an id-list uplink protocol."""

    cache: PageCache

    def __init__(self, tree: TreeView, config: SimulationConfig,
                 name: str = "PAG",
                 ground_truth: Optional[GroundTruthCache] = None) -> None:
        super().__init__(name, tree, config, ground_truth=ground_truth)
        self.cache = PageCache(capacity_bytes=config.cache_bytes())

    def process(self, record: TraceRecord) -> QueryCost:
        query = record.query
        start = perf_clock()
        cached_before = self.cache.object_ids()

        true_ids, server_cpu = self.ground_truth.results_for(query)
        result_ids = set(true_ids)

        # Uplink: the query plus the identifiers of every cached object.
        uplink = query.descriptor_bytes(self.size_model)
        uplink += self.size_model.id_list_bytes(len(cached_before))

        cached_hits = result_ids & cached_before
        missing = result_ids - cached_before
        downloaded_bytes = self._object_bytes(missing)
        confirmed_bytes = self._object_bytes(cached_hits)

        for object_id in missing:
            self.cache.insert(self.tree.objects[object_id])
        for object_id in cached_hits:
            self.cache.touch(object_id)

        result_bytes = self._object_bytes(result_ids)
        cost = QueryCost(query_index=record.index, query_type=query.query_type.value,
                         uplink_bytes=uplink, downlink_bytes=downloaded_bytes,
                         downloaded_result_bytes=downloaded_bytes,
                         confirmed_cached_bytes=confirmed_bytes,
                         result_bytes=result_bytes,
                         cached_result_bytes=confirmed_bytes,
                         saved_bytes=0.0, contacted_server=True,
                         server_cpu_seconds=server_cpu)
        cost.response_time = self.timing.response_time(
            uplink_bytes=uplink, downloaded_result_bytes=downloaded_bytes,
            confirmed_cached_bytes=confirmed_bytes, total_result_bytes=result_bytes)
        # ``server_cpu`` is the charged (possibly memoised) cost, which can
        # exceed the wall time actually elapsed on a ground-truth cache hit.
        cost.client_cpu_seconds = max(0.0, perf_clock() - start - server_cpu)
        return cost

    def cache_snapshot(self, query_index: int) -> CacheSnapshot:
        return CacheSnapshot(query_index=query_index, used_bytes=self.cache.used_bytes,
                             index_bytes=0, object_bytes=self.cache.used_bytes,
                             item_count=len(self.cache), depth=0)


# --------------------------------------------------------------------------- #
# semantic caching (SEM)
# --------------------------------------------------------------------------- #
class SemanticCachingSession(ClientSession):
    """Semantic caching for range and kNN queries; joins bypass the cache."""

    cache: SemanticCache

    def __init__(self, tree: TreeView, config: SimulationConfig,
                 replacement: str = "FAR", name: str = "SEM",
                 ground_truth: Optional[GroundTruthCache] = None) -> None:
        super().__init__(name, tree, config, ground_truth=ground_truth)
        self.cache = SemanticCache(capacity_bytes=config.cache_bytes(),
                                   size_model=self.size_model, replacement=replacement)

    def process(self, record: TraceRecord) -> QueryCost:
        query = record.query
        self.cache.tick()
        start = perf_clock()
        cached_before = self.cache.cached_object_ids()

        if isinstance(query, RangeQuery):
            cost, server_cpu = self._process_range(record, query)
        elif isinstance(query, KNNQuery):
            cost, server_cpu = self._process_knn(record, query)
        else:
            cost, server_cpu = self._process_join(record, query)

        result_ids = set(self.ground_truth.results_for(query)[0])
        cost.result_bytes = self._object_bytes(result_ids)
        cost.cached_result_bytes = self._object_bytes(result_ids & cached_before)
        cost.response_time = self.timing.response_time(
            uplink_bytes=cost.uplink_bytes,
            downloaded_result_bytes=cost.downloaded_result_bytes,
            confirmed_cached_bytes=cost.confirmed_cached_bytes,
            total_result_bytes=cost.result_bytes)
        cost.client_cpu_seconds = max(0.0, perf_clock() - start - server_cpu)
        cost.server_cpu_seconds = server_cpu
        return cost

    # -- range ----------------------------------------------------------- #
    def _process_range(self, record: TraceRecord, query: RangeQuery) -> Tuple[QueryCost, float]:
        cost = QueryCost(query_index=record.index, query_type=query.query_type.value)
        saved, remainders = self.cache.probe_range(query.window)
        cost.saved_bytes = sum(obj.size_bytes for obj in saved.values())
        server_cpu = 0.0
        fetched_records: List[ObjectRecord] = []
        if remainders:
            cost.contacted_server = True
            cost.uplink_bytes = (query.descriptor_bytes(self.size_model)
                                 + len(remainders) * self.size_model.rect_bytes())
            server_start = perf_clock()
            fetched_ids: Set[int] = set()
            for remainder in remainders:
                fetched_ids.update(range_search(self.tree, remainder))
            server_cpu = perf_clock() - server_start
            fetched_records = [self.tree.objects[object_id] for object_id in sorted(fetched_ids)]
            downloaded = sum(r.size_bytes for r in fetched_records)
            cost.downloaded_result_bytes = downloaded
            cost.downlink_bytes = downloaded
        all_records = ([self.tree.objects[oid] for oid in saved] + fetched_records)
        # Deduplicate while preserving the full window as the cached region.
        unique: Dict[int, ObjectRecord] = {r.object_id: r for r in all_records}
        self.cache.insert_range_region(query.window, unique.values(),
                                       client_position=record.position)
        return cost, server_cpu

    # -- kNN -------------------------------------------------------------- #
    def _process_knn(self, record: TraceRecord, query: KNNQuery) -> Tuple[QueryCost, float]:
        cost = QueryCost(query_index=record.index, query_type=query.query_type.value)
        local = self.cache.probe_knn(query.point, query.k)
        if local is not None:
            cost.saved_bytes = sum(obj.size_bytes for obj in local)
            return cost, 0.0
        cost.contacted_server = True
        cost.uplink_bytes = query.descriptor_bytes(self.size_model)
        result_ids, server_cpu = self.ground_truth.results_for(query)
        records = [self.tree.objects[object_id] for object_id in result_ids]
        downloaded = sum(r.size_bytes for r in records)
        cost.downloaded_result_bytes = downloaded
        cost.downlink_bytes = downloaded
        self.cache.insert_knn_region(query.point, query.k, records,
                                     client_position=record.position)
        return cost, server_cpu

    # -- join -------------------------------------------------------------- #
    def _process_join(self, record: TraceRecord, query: JoinQuery) -> Tuple[QueryCost, float]:
        cost = QueryCost(query_index=record.index, query_type=query.query_type.value)
        cost.contacted_server = True
        cost.uplink_bytes = query.descriptor_bytes(self.size_model)
        result_ids, server_cpu = self.ground_truth.results_for(query)
        downloaded = self._object_bytes(set(result_ids))
        cost.downloaded_result_bytes = downloaded
        cost.downlink_bytes = downloaded
        # Semantic caching has no region type for joins; results are not cached.
        return cost, server_cpu

    def cache_snapshot(self, query_index: int) -> CacheSnapshot:
        return CacheSnapshot(query_index=query_index, used_bytes=self.cache.used_bytes,
                             index_bytes=self.cache.descriptor_bytes(),
                             object_bytes=self.cache.object_bytes(),
                             item_count=len(self.cache), depth=0)


# --------------------------------------------------------------------------- #
# factory
# --------------------------------------------------------------------------- #
def make_session(model: str, tree: TreeView, config: SimulationConfig,
                 server: Optional[ServerHandle] = None,
                 replacement_policy: Optional[str] = None,
                 ground_truth: Optional[GroundTruthCache] = None,
                 consistency: Optional["ConsistencyProtocol"] = None) -> ClientSession:
    """Create a session by the paper's model name.

    Supported names: ``PAG``, ``SEM``, ``APRO``, ``FPRO``, ``CPRO``.
    Passing a shared :class:`GroundTruthCache` lets several sessions over the
    same tree reuse each other's ground-truth computations.  ``consistency``
    attaches a cache-consistency protocol (dynamic-dataset fleets); it is
    only supported by the proactive models.
    """
    key = model.upper()
    if consistency is not None and key not in ("APRO", "FPRO", "CPRO"):
        raise ValueError(f"model {key} does not support a consistency "
                         f"protocol; use APRO, FPRO or CPRO")
    if key == "PAG":
        return PageCachingSession(tree, config, ground_truth=ground_truth)
    if key == "SEM":
        return SemanticCachingSession(tree, config, ground_truth=ground_truth)
    if key in ("APRO", "FPRO", "CPRO"):
        form = {"APRO": "adaptive", "FPRO": "full", "CPRO": "compact"}[key]
        return ProactiveSession(tree, config, server=server, index_form=form,
                                replacement_policy=replacement_policy, name=key,
                                ground_truth=ground_truth,
                                consistency=consistency)
    raise ValueError(f"unknown caching model {model!r}; "
                     "expected one of PAG, SEM, APRO, FPRO, CPRO")
