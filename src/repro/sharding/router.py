"""The scatter-gather query router: one logical server over many shards.

:class:`ShardRouter` is a :class:`~repro.core.handles.LocalServerHandle`
(and its ``tree`` a :class:`~repro.rtree.tree.TreeView`), so
:class:`~repro.sim.sessions.ProactiveSession`, the proactive cache and the
consistency protocols run unchanged against a sharded deployment.

Routing model
-------------
* **One shard** — every call delegates wholesale to the shard's own server.
  Shard 0 allocates the single-server id sequence (see
  :mod:`repro.sharding.shard`), so a one-shard router is byte-identical to
  the unsharded system: same responses, same page counts, same snapshots.
* **Many shards** — the router interposes a *virtual root*: a synthetic
  directory page (id ``shards * NODE_ID_STRIDE + 1``) whose entries point at
  the live shard roots.  Clients cache it like any other node snapshot, so
  after the first contact they walk straight into per-shard subtrees and
  the client-side pruning of Algorithm 1 prunes whole shards for free.

Per query type:

* **range** — frontier items are routed to their owning shard (node ids by
  id range, object ids through the owner table); a virtual-root item
  scatters to every shard whose live root MBR intersects the window, and
  non-overlapping shards are pruned without being contacted.
* **kNN** — shards are visited best-first by the MINDIST of their nearest
  routed frontier target; once ``k`` candidates are in hand, any shard
  whose MINDIST exceeds the global k-th-best distance is pruned without a
  visit.  Per-shard top-``k`` frontiers merge into the global top-``k``.
* **join** — pairs may span shards, so the router runs the one join kernel
  (:func:`repro.core.join.join_pairs`) itself and supplies only the routing:
  node sides expand through the owning shard's ``_start_node`` (the access
  recorder, split per shard, feeds the ordinary snapshot builder), so
  intra- and cross-shard pairs are the same code path.

Every response rolls the per-shard page accounting up into one
``accessed_node_count`` (and :class:`ShardStats` keeps the per-shard
split), so ``QueryCost.server_page_reads`` stays meaningful unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding.result_cache import PartitionResultCache
    from repro.updates.registry import VersionRegistry

from repro.core.items import CacheEntry, FrontierTarget, TargetKind
from repro.core.join import NodeSide, Side, element_sides, join_pairs, seed_pairs, target_side
from repro.core.remainder import FrontierItem, RemainderQuery
from repro.core.server import (
    IndexNodeSnapshot,
    ObjectDelivery,
    ServerResponse,
    default_frontier,
)
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Rect
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.rtree.node import Node
from repro.rtree.partition_tree import PartitionTree
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.sizes import SizeModel
from repro.sharding.partitioner import ShardPlan
from repro.sharding.shard import NODE_ID_STRIDE, ShardServer, shard_index_for_node
from repro.workload.queries import JoinQuery, KNNQuery, Query, RangeQuery


class ShardStats:
    """Deterministic per-shard routing counters of one router instance."""

    def __init__(self, shard_count: int) -> None:
        self.shard_count = shard_count
        self.queries = 0
        self.queries_routed = [0] * shard_count
        self.pages_read = [0] * shard_count
        self.shards_pruned = [0] * shard_count
        self.shards_skipped = [0] * shard_count

    def record_visit(self, shard_index: int, pages: int) -> None:
        """One query reached ``shard_index`` and read ``pages`` pages there."""
        self.queries_routed[shard_index] += 1
        self.pages_read[shard_index] += pages
        if obs.ENABLED:
            obs.active().event("shard.visit", shard=shard_index, pages=pages)
            obs.active().count("repro_router_shards_visited_total", 1.0,
                               shard=shard_index)

    def record_prune(self, shard_index: int) -> None:
        """One *router-level* prune of ``shard_index``.

        Counts virtual-root scatters that skipped the shard (root-MBR /
        k-th-best-bound pruning) in shards ruled out per query: at most
        one per query and shard.  Clients that cached the virtual root
        prune shards on their own side instead — those queries simply
        never route anything to the shard, so a mostly-irrelevant shard
        shows a low ``queries_routed``, not a high ``shards_pruned``.
        """
        self.shards_pruned[shard_index] += 1
        if obs.ENABLED:
            obs.active().count("repro_router_shards_pruned_total", 1.0,
                               shard=shard_index)

    def record_skip(self, shard_index: int) -> None:
        """One *result-cache* skip of ``shard_index``.

        Counts shards the partition-result cache proved irrelevant (empty
        for the query's canonical variants / beyond the memoised kNN
        bound), so the scatter never contacted them even though root-MBR
        pruning alone would have.  Always 0 without ``--router-cache``.
        """
        self.shards_skipped[shard_index] += 1
        if obs.ENABLED:
            obs.active().count("repro_router_shards_skipped_total", 1.0,
                               shard=shard_index)

    def summary(self) -> Dict:
        """Roll-up for fleet reports and perf fingerprints."""
        return {
            "queries": self.queries,
            "queries_routed": list(self.queries_routed),
            "shards_pruned": list(self.shards_pruned),
            "shards_skipped": list(self.shards_skipped),
            "pages_read": list(self.pages_read),
            "total_routed": sum(self.queries_routed),
            "total_pruned": sum(self.shards_pruned),
            "total_skipped": sum(self.shards_skipped),
            "total_pages_read": sum(self.pages_read),
        }


class ShardedObjectView(Mapping[int, ObjectRecord]):
    """A live, read-only mapping view over every shard's object table."""

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def __getitem__(self, object_id: int) -> ObjectRecord:
        owner = self._router.owner_of(object_id)
        if owner is None:
            raise KeyError(object_id)
        return self._router.shards[owner].tree.objects[object_id]

    def __iter__(self) -> Iterator[int]:
        for shard in self._router.shards:
            yield from shard.tree.objects

    def __len__(self) -> int:
        return sum(shard.object_count for shard in self._router.shards)


class ShardedStoreView:
    """Read-only page-store facade routing ids to their owning shard.

    Serves the virtual root as a synthetic page so the consistency
    protocols can validate and refresh it exactly like a real node.
    """

    #: The view never accepts mutations; shards mutate through their own
    #: stores (see :class:`~repro.sharding.updater.ShardedUpdater`).
    writable = False

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def _shard_for(self, node_id: int) -> Optional[ShardServer]:
        index = shard_index_for_node(node_id)
        if 0 <= index < len(self._router.shards):
            return self._router.shards[index]
        return None

    def __contains__(self, node_id: int) -> bool:
        router = self._router
        if not router.is_single and node_id == router.virtual_root_id:
            return router.virtual_node is not None
        shard = self._shard_for(node_id)
        return shard is not None and node_id in shard.tree.store

    def peek(self, node_id: int) -> Node:
        router = self._router
        if not router.is_single and node_id == router.virtual_root_id:
            node = router.virtual_node
            if node is None:
                raise KeyError(node_id)
            return node
        shard = self._shard_for(node_id)
        if shard is None:
            raise KeyError(node_id)
        return shard.tree.store.peek(node_id)

    def get(self, node_id: int) -> Node:
        router = self._router
        if not router.is_single and node_id == router.virtual_root_id:
            return self.peek(node_id)
        shard = self._shard_for(node_id)
        if shard is None:
            raise KeyError(node_id)
        return shard.tree.store.get(node_id)


class ShardedTreeView:
    """The sharded deployment's :class:`~repro.rtree.tree.TreeView`.

    Sessions take a *tree* for its ``size_model`` and ``objects`` table,
    the consistency protocols peek pages through ``store``, and the
    ground-truth kernels (:func:`~repro.rtree.range_search.range_search`,
    :func:`~repro.rtree.knn.knn_search`) traverse from ``root`` through
    ``node`` — this view routes all of it across the shard set (for N > 1
    the traversal enters through the virtual root and crosses shard
    boundaries transparently).  It is read-only by design: mutation flows
    through the per-shard updaters.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self.size_model = router.size_model
        self.store = ShardedStoreView(router)
        self.objects = ShardedObjectView(router)

    @property
    def root_id(self) -> int:
        """The deployment-wide traversal entry point (see the router)."""
        return self._router.root_id

    @property
    def root(self) -> Node:
        """The root page (the virtual root for N > 1; empty when no data)."""
        root_id = self._router.root_id
        if root_id in self.store:
            return self.store.peek(root_id)
        # Every shard is empty: serve an entryless page so traversals
        # terminate immediately, like an empty single-server tree.
        return Node(node_id=root_id, level=1)

    def node(self, node_id: int) -> Node:
        """Fetch a page by id (counts a logical read on the owning shard)."""
        return self.store.get(node_id)

    def object(self, object_id: int) -> ObjectRecord:
        """Fetch an object record by id (any shard)."""
        return self.objects[object_id]


class ShardRouter:
    """Plans and executes scatter-gather queries over a set of shards."""

    def __init__(self, shards: List[ShardServer], plan: ShardPlan,
                 size_model: Optional[SizeModel] = None) -> None:
        if not shards:
            raise ValueError("a router needs at least one shard")
        self.shards = list(shards)
        self.plan = plan
        self.size_model = size_model or shards[0].tree.size_model
        self.stats = ShardStats(len(shards))
        #: Optional partition-result cache (see ``result_cache.py``);
        #: attached with :meth:`attach_result_cache`.
        self.result_cache: Optional[PartitionResultCache] = None
        #: object id -> owning shard index, maintained across updates.
        self._owner: Dict[int, int] = {
            object_id: index
            for index, shard in enumerate(self.shards)
            for object_id in shard.tree.objects}
        #: Version registry the virtual root reports content changes to
        #: (attached by the sharded updater of dynamic runs).
        self.registry: Optional[VersionRegistry] = None
        self.virtual_root_id = len(self.shards) * NODE_ID_STRIDE + 1
        self._virtual_node: Optional[Node] = None
        self._virtual_pt: Optional[PartitionTree] = None
        self._virtual_fingerprint: Optional[Tuple] = None
        if not self.is_single:
            self.refresh_virtual_root()
        self.tree = ShardedTreeView(self)

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @property
    def is_single(self) -> bool:
        """True for the degenerate one-shard deployment (pure delegation)."""
        return len(self.shards) == 1

    @property
    def virtual_node(self) -> Optional[Node]:
        """The synthetic directory page over the live shard roots."""
        return self._virtual_node

    def owner_of(self, object_id: int) -> Optional[int]:
        """The shard currently owning ``object_id`` (``None`` when dead)."""
        return self._owner.get(object_id)

    def adopt_object(self, object_id: int, shard_index: int) -> None:
        """Record that ``shard_index`` now owns ``object_id``."""
        self._owner[object_id] = shard_index

    def release_object(self, object_id: int) -> None:
        """Drop a deleted object from the owner table."""
        self._owner.pop(object_id, None)

    def live_shards(self) -> List[Tuple[int, ShardServer]]:
        """The non-empty shards, in shard order."""
        return [(index, shard) for index, shard in enumerate(self.shards)
                if not shard.is_empty]

    def attach_result_cache(self, cache: PartitionResultCache) -> None:
        """Consult ``cache`` (a :class:`PartitionResultCache`) per scatter."""
        self.result_cache = cache
        cache.bind(self)

    def note_shard_mutated(self, shard_index: int) -> None:
        """An applied update touched ``shard_index`` (fences cached facts)."""
        if self.result_cache is not None:
            self.result_cache.note_shard_mutated(shard_index)

    def refresh_virtual_root(self) -> bool:
        """Rebuild the virtual root from the live shard roots.

        Returns True when the directory content changed; the change is
        reported to the attached version registry so cached copies of the
        virtual root are refreshed by the versioned consistency protocol
        exactly like any mutated page.
        """
        if self.is_single:
            return False
        live = self.live_shards()
        entries = [Entry(mbr=shard.root_mbr, child_id=shard.root_id)
                   for _, shard in live]
        level = 1 + max((shard.tree.store.peek(shard.root_id).level
                         for _, shard in live), default=0)
        fingerprint = (level, tuple((entry.child_id, entry.mbr.as_tuple())
                                    for entry in entries))
        if fingerprint == self._virtual_fingerprint:
            return False
        changed_after_build = self._virtual_fingerprint is not None
        node = Node(node_id=self.virtual_root_id, level=level)
        node.entries = entries
        self._virtual_node = node if entries else None
        self._virtual_pt = PartitionTree(node) if entries else None
        self._virtual_fingerprint = fingerprint
        if changed_after_build and self.registry is not None:
            self.registry.bump_node(self.virtual_root_id)
        return True

    # ------------------------------------------------------------------ #
    # LocalServerHandle surface
    # ------------------------------------------------------------------ #
    @property
    def root_id(self) -> int:
        """The id clients start their traversals from."""
        if self.is_single:
            return self.shards[0].server.root_id
        return self.virtual_root_id

    @property
    def root_mbr(self) -> Rect:
        """Live MBR of the whole deployment's data."""
        if self.is_single:
            return self.shards[0].server.root_mbr
        live = [shard.root_mbr for _, shard in self.live_shards()]
        return Rect.bounding(live) if live else Rect.unit()

    def partition_tree_for(self, node_id: int) -> PartitionTree:
        """The partition tree of any page, including the virtual root."""
        if not self.is_single and node_id == self.virtual_root_id:
            if self._virtual_pt is None:
                raise KeyError(node_id)
            return self._virtual_pt
        index = shard_index_for_node(node_id)
        if not 0 <= index < len(self.shards):
            raise KeyError(node_id)
        return self.shards[index].server.partition_tree_for(node_id)

    def execute(self, query: Query, remainder: Optional[RemainderQuery] = None,
                policy: Optional[SupportingIndexPolicy] = None) -> ServerResponse:
        """Process ``query`` across the shard set and merge one response."""
        policy = policy or SupportingIndexPolicy.adaptive()
        if self.registry is not None:
            # MVCC read pinning: stamp the committed version this scatter-
            # gather query executes against; raises mid-update-batch, so a
            # query can never observe a half-applied batch across shards.
            self.registry.pin()
        self.stats.queries += 1
        if self.is_single:
            response = self.shards[0].server.execute(query, remainder, policy)
            self.stats.record_visit(0, response.accessed_node_count)
            return response
        if self.result_cache is not None:
            self.result_cache.begin_query()
        start = perf_clock()
        frontier = (remainder.frontier if remainder is not None
                    else default_frontier(query, self.virtual_root_id, self.root_mbr))
        if isinstance(query, RangeQuery):
            response = self._scatter_range(query, frontier, policy)
        elif isinstance(query, KNNQuery):
            response = self._scatter_knn(query, remainder, frontier, policy)
        elif isinstance(query, JoinQuery):
            # Range / kNN confirm-only handling happens inside the shard
            # servers (the routed frontier items carry the flags); only the
            # router-level join traversal needs the set up front.
            client_held = {target.object_id for item in frontier
                           for target in item
                           if target.kind is TargetKind.OBJECT
                           and target.confirm_only}
            response = self._scatter_join(query, frontier, policy, client_held)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported query type {type(query)!r}")
        response.index_snapshots.sort(key=lambda snapshot: -snapshot.level)
        response.deliveries.sort(key=lambda delivery: delivery.record.object_id)
        response.cpu_seconds = perf_clock() - start
        if obs.ENABLED:
            obs.active().event("router.execute",
                               pages=response.accessed_node_count,
                               deliveries=len(response.deliveries))
        return response

    # ------------------------------------------------------------------ #
    # routing helpers
    # ------------------------------------------------------------------ #
    def _is_virtual_target(self, target: FrontierTarget) -> bool:
        return (target.kind is not TargetKind.OBJECT
                and target.node_id == self.virtual_root_id)

    def _route_target(self, target: FrontierTarget) -> Optional[int]:
        """The shard a frontier target belongs to; ``None`` drops it.

        Dropped targets mirror the single server's stale-state handling:
        object targets of since-deleted objects and node targets of empty
        shards (whose pages have nothing left to answer from) are
        unanswerable and are skipped.
        """
        if target.kind is TargetKind.OBJECT:
            return self._owner.get(target.object_id)
        index = shard_index_for_node(target.node_id)
        if not 0 <= index < len(self.shards):
            return None
        if self.shards[index].is_empty:
            return None
        return index

    def _virtual_snapshot(self) -> Optional[IndexNodeSnapshot]:
        """The full-form shippable snapshot of the virtual root."""
        node, pt = self._virtual_node, self._virtual_pt
        if node is None or pt is None:
            return None
        elements = [CacheEntry(mbr=entry.mbr, code=code, child_id=entry.child_id)
                    for code, entry in pt.full_form()]
        return IndexNodeSnapshot(node_id=node.node_id, level=node.level,
                                 parent_id=None, elements=elements)

    def _attach_virtual(self, response: ServerResponse) -> None:
        """Account for (and ship) one access to the virtual directory page."""
        snapshot = self._virtual_snapshot()
        if snapshot is not None:
            response.index_snapshots.append(snapshot)
            response.accessed_node_count += 1
            response.examined_elements += 1

    def _merge_shard_response(self, merged: ServerResponse, shard_index: int,
                              response: ServerResponse) -> None:
        self.stats.record_visit(shard_index, response.accessed_node_count)
        merged.deliveries.extend(response.deliveries)
        merged.index_snapshots.extend(response.index_snapshots)
        merged.accessed_node_count += response.accessed_node_count
        merged.examined_elements += response.examined_elements

    # ------------------------------------------------------------------ #
    # range
    # ------------------------------------------------------------------ #
    def _scatter_range(self, query: RangeQuery, frontier: List[FrontierItem],
                       policy: SupportingIndexPolicy) -> ServerResponse:
        window = query.window
        cache = self.result_cache
        # One root-MBR read per live shard per query: Node.mbr recomputes
        # its bounding box on every access, so the cache plan and the
        # virtual expansion below share this snapshot.
        shard_mbrs = {index: shard.root_mbr
                      for index, shard in self.live_shards()}
        allowed: Optional[set] = None
        if cache is not None:
            # Conjunctive hit-set intersection over the window's canonical
            # variants: a shard absent from any variant's hit-set holds no
            # object intersecting the window and is skipped wholesale (the
            # window is contained in every variant rectangle, so results
            # are untouched — see result_cache.py "Safety").
            allowed = cache.plan_range(
                window, [(index, shard) for index, shard in self.live_shards()
                         if shard_mbrs[index].intersects(window)])
        skip_noted: set = set()

        def note_skip(index: int) -> None:
            if index not in skip_noted:
                skip_noted.add(index)
                self.stats.record_skip(index)

        shard_items: Dict[int, List[FrontierItem]] = {}
        virtual_hit = False
        for item in frontier:
            target = item[0]
            if self._is_virtual_target(target):
                virtual_hit = True
                for index, shard in self.live_shards():
                    if not shard_mbrs[index].intersects(window):
                        self.stats.record_prune(index)
                    elif allowed is not None and index not in allowed:
                        note_skip(index)
                    else:
                        shard_items.setdefault(index, []).append(
                            (FrontierTarget.for_node(shard.root_id,
                                                     shard_mbrs[index]),))
                continue
            index = self._route_target(target)
            if index is None:
                continue
            if allowed is not None and index not in allowed:
                note_skip(index)
                continue
            shard_items.setdefault(index, []).append(item)
        merged = ServerResponse()
        if virtual_hit:
            self._attach_virtual(merged)
        for index in sorted(shard_items):
            shard = self.shards[index]
            response = shard.server.execute(
                query, RemainderQuery(query=query, frontier=shard_items[index]),
                policy)
            if cache is not None and response.deliveries:
                cache.record_range_delivery(window, index)
            self._merge_shard_response(merged, index, response)
        return merged

    # ------------------------------------------------------------------ #
    # kNN
    # ------------------------------------------------------------------ #
    def _scatter_knn(self, query: KNNQuery,
                     remainder: Optional[RemainderQuery],
                     frontier: List[FrontierItem],
                     policy: SupportingIndexPolicy) -> ServerResponse:
        k_needed = (remainder.k_remaining
                    if remainder is not None and remainder.k_remaining
                    else query.k)
        point = query.point
        shard_items: Dict[int, List[FrontierItem]] = {}
        shard_min: Dict[int, float] = {}

        def add_item(index: int, item: FrontierItem, distance: float) -> None:
            shard_items.setdefault(index, []).append(item)
            previous = shard_min.get(index)
            if previous is None or distance < previous:
                shard_min[index] = distance

        virtual_hit = False
        pure_scatter = True
        for item in frontier:
            target = item[0]
            if self._is_virtual_target(target):
                virtual_hit = True
                for index, shard in self.live_shards():
                    distance = shard.root_mbr.min_dist_to_point(point)
                    add_item(index,
                             (FrontierTarget.for_node(shard.root_id,
                                                      shard.root_mbr,
                                                      priority=distance),),
                             distance)
                continue
            pure_scatter = False
            index = self._route_target(target)
            if index is None:
                continue
            add_item(index, item, target.mbr.min_dist_to_point(point))

        # A-priori skipping from the memoised kNN bound: safe only for a
        # full virtual-root scatter asking for the complete k (a partial
        # client frontier may hold some of the counted objects itself, so
        # those runs keep the ordinary candidate-bound pruning below).
        cache = self.result_cache
        if (cache is not None and virtual_hit and pure_scatter
                and k_needed == query.k):
            bound = cache.knn_bound(point, k_needed)
            if bound is not None:
                for index in sorted(shard_items):
                    if shard_min[index] > bound:
                        del shard_items[index]
                        self.stats.record_skip(index)

        merged = ServerResponse()
        if virtual_hit:
            self._attach_virtual(merged)
        # Visit shards best-first by the MINDIST of their nearest routed
        # target; once k candidates are in hand, shards whose MINDIST
        # exceeds the global k-th-best distance cannot contribute and are
        # pruned without a visit (no pages read, no bytes shipped).
        # Ties at the k-th distance are broken by object id, which is
        # deterministic but can differ from the single server's
        # traversal-order tie-break: both answers are correct k-nearest
        # sets, and exact ties never arise on the continuous synthetic
        # datasets (see docs/sharding.md "Equivalence guarantees").
        candidates: List[Tuple[float, int, ObjectDelivery]] = []
        for index in sorted(shard_items, key=lambda i: (shard_min[i], i)):
            if len(candidates) >= k_needed \
                    and shard_min[index] > candidates[k_needed - 1][0]:
                self.stats.record_prune(index)
                continue
            shard = self.shards[index]
            response = shard.server.execute(
                query, RemainderQuery(query=query, frontier=shard_items[index],
                                      k_remaining=k_needed),
                policy)
            self._merge_shard_response(merged, index, response)
            for delivery in response.deliveries:
                candidates.append(
                    (delivery.record.mbr.min_dist_to_point(point),
                     delivery.record.object_id, delivery))
            candidates.sort(key=lambda item: (item[0], item[1]))
            del candidates[k_needed:]
        merged.deliveries = [candidate[2] for candidate in candidates]
        return merged

    # ------------------------------------------------------------------ #
    # distance self-join
    # ------------------------------------------------------------------ #
    def _scatter_join(self, query: JoinQuery, frontier: List[FrontierItem],
                      policy: SupportingIndexPolicy,
                      client_held: set) -> ServerResponse:
        """Run the one join kernel across the shard set.

        Everything here is routing: ``resolve`` (owner table, shard liveness,
        result-cache plan), ``expand`` (the owning shard's ``_start_node`` on
        its access recorder, or the live shard roots) and the response roll-up.
        """
        window = query.window
        recorder: Dict = {}
        cache = self.result_cache
        allowed: Optional[set] = None
        if cache is not None:
            # Both members of a qualifying pair must intersect the window,
            # so the join expands only the window's hit-set; a plan of None
            # proves the result empty (fewer than two objects in the
            # snapped window anywhere in the deployment).
            plan = cache.plan_join(
                window, [(index, shard) for index, shard in self.live_shards()
                         if shard.root_mbr.intersects(window)])
            allowed = plan if plan is not None else set()
        skip_noted: set = set()

        def note_skip(index: int) -> None:
            if index not in skip_noted:
                skip_noted.add(index)
                self.stats.record_skip(index)

        def resolve(target: FrontierTarget) -> Optional[Side]:
            if self._is_virtual_target(target):
                return ("node", self.virtual_root_id, "", self.root_mbr)
            index = self._route_target(target)
            if index is None or (target.kind is not TargetKind.OBJECT and
                                 target.node_id not in self.shards[index].tree.store):
                return None
            if allowed is not None and index not in allowed:
                note_skip(index)
                return None
            return target_side(target)

        def expand(side: NodeSide) -> List[Side]:
            if side[1] != self.virtual_root_id:
                return element_sides(
                    self.shards[shard_index_for_node(side[1])].server._start_node(
                        side[1], side[2], recorder, policy))
            # The kernel expands a node once per query, so a shard the
            # virtual root rules out is one prune (or one skip) per query.
            sides: List[Side] = []
            for index, shard in self.live_shards():
                if allowed is None or index in allowed:
                    sides.append(("node", shard.root_id, "", shard.root_mbr))
                elif shard.root_mbr.intersects(window):
                    note_skip(index)
                else:
                    self.stats.record_prune(index)
            return sides

        results, examined, touched = join_pairs(query, seed_pairs(frontier, resolve), expand)

        if cache is not None and results:
            # Hit-set strengthening: every result object intersects the
            # window, so its owning shard is positively non-empty for the
            # window's variants.
            for owner in sorted({self._owner[object_id]
                                 for object_id in results
                                 if object_id in self._owner}):
                cache.record_range_delivery(window, owner)
        merged = ServerResponse(
            deliveries=[ObjectDelivery(self.tree.objects[object_id], parent,
                                       confirm_only=object_id in client_held)
                        for object_id, parent in sorted(results.items())],
            examined_elements=examined)
        if self.virtual_root_id in touched:
            self._attach_virtual(merged)
        # Per shard, the accessed nodes in the order the kernel reports them
        # (the single server's snapshot order within each shard).
        recorders: Dict[int, Dict] = {}
        for node_id in touched:
            if node_id in recorder:
                recorders.setdefault(shard_index_for_node(node_id), {})[node_id] = \
                    recorder[node_id]
        for index, shard_recorder in sorted(recorders.items()):
            merged.index_snapshots.extend(
                self.shards[index].server._build_snapshots(shard_recorder, policy))
            merged.accessed_node_count += len(shard_recorder)
            self.stats.record_visit(index, len(shard_recorder))
        return merged
