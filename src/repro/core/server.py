"""Server-side query processing for proactive caching.

The server owns the full R-tree (and the offline-built binary partition tree
of every node).  Given a remainder query it *resumes* execution from the
shipped frontier; given a fresh query (no cached state at the client) it
starts from the root.  While processing it records which partition-tree
regions of each accessed node were touched, and from that record it builds
the supporting index ``Ir`` in the form requested by the
:class:`~repro.core.supporting_index.SupportingIndexPolicy` (full / compact /
``d+``-level).  The join's pairwise traversal lives in :mod:`repro.core.join`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.handles import VersionPin

from repro.core.items import CacheEntry, FrontierTarget, TargetKind
from repro.core.join import NodeSide, Side, element_sides, join_pairs, seed_pairs, target_side
from repro.core.remainder import FrontierItem, RemainderQuery
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.rtree.entry import ObjectRecord
from repro.rtree.partition_tree import (
    PartitionElement,
    PartitionTree,
    SuperEntry,
    build_partition_trees,
)
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import RTree
from repro.workload.queries import JoinQuery, KNNQuery, Query, RangeQuery


@dataclass(slots=True)
class IndexNodeSnapshot:
    """One accessed node, in the form the server decided to ship."""

    node_id: int
    level: int
    parent_id: Optional[int]
    elements: List[CacheEntry]

    def size_bytes(self, size_model: SizeModel) -> int:
        """Wire footprint of the snapshot."""
        return size_model.pointer_bytes + sum(
            element.size_bytes(size_model) for element in self.elements)


@dataclass(slots=True)
class ObjectDelivery:
    """One result object shipped to the client, with its owning leaf node.

    A ``confirm_only`` delivery answers a confirmation-only frontier target:
    the client already holds the object payload, so only its id travels on
    the wire and :attr:`size_bytes` (the payload wire footprint) is zero.
    """

    record: ObjectRecord
    parent_node_id: Optional[int]
    confirm_only: bool = False

    @property
    def size_bytes(self) -> int:
        return 0 if self.confirm_only else self.record.size_bytes


@dataclass(slots=True)
class ServerResponse:
    """The server's answer to a (remainder) query: ``Rr`` and ``Ir``."""

    deliveries: List[ObjectDelivery] = field(default_factory=list)
    index_snapshots: List[IndexNodeSnapshot] = field(default_factory=list)
    accessed_node_count: int = 0
    examined_elements: int = 0
    cpu_seconds: float = 0.0

    def result_bytes(self) -> int:
        """Bytes of the downloaded result objects (``|Rr|``, payloads only)."""
        return sum(delivery.size_bytes for delivery in self.deliveries)

    def confirmed_cached_bytes(self) -> int:
        """Bytes of confirmation-only results the client already holds."""
        return sum(delivery.record.size_bytes for delivery in self.deliveries
                   if delivery.confirm_only)

    def confirmation_count(self) -> int:
        """Number of confirmation-only deliveries."""
        return sum(1 for delivery in self.deliveries if delivery.confirm_only)

    def confirmation_bytes(self, size_model: SizeModel) -> int:
        """Wire footprint of the confirmation id list."""
        return size_model.id_list_bytes(self.confirmation_count())

    def index_bytes(self, size_model: SizeModel) -> int:
        """Bytes of the supporting index (``|Ir|``)."""
        return sum(snapshot.size_bytes(size_model) for snapshot in self.index_snapshots)

    def downlink_bytes(self, size_model: SizeModel) -> int:
        """Total downlink bytes of the response."""
        return (self.result_bytes() + self.index_bytes(size_model)
                + self.confirmation_bytes(size_model))

    def result_object_ids(self) -> Set[int]:
        """Ids of the delivered result objects (downloads and confirmations)."""
        return {delivery.record.object_id for delivery in self.deliveries}


@dataclass(slots=True)
class _AccessRecord:
    """Which parts of one node the traversal touched."""

    bases: Set[str] = field(default_factory=set)
    expanded: Set[str] = field(default_factory=set)
    full_access: bool = False


def default_frontier(query: Query, root_id: int, root_mbr: Rect) -> List[FrontierItem]:
    """The frontier of a query with no client state: the root alone."""
    root_target = FrontierTarget.for_node(root_id, root_mbr)
    if isinstance(query, JoinQuery):
        return [(root_target, root_target)]
    return [(root_target,)]


class ServerQueryProcessor:
    """Executes (remainder) queries over the full R-tree."""

    def __init__(self, tree: RTree, size_model: Optional[SizeModel] = None,
                 partition_trees: Optional[Dict[int, PartitionTree]] = None) -> None:
        self.tree = tree
        self.size_model = size_model or tree.size_model
        if partition_trees is None:
            partition_trees = build_partition_trees(tree.all_nodes())
        self.partition_trees = partition_trees
        #: Version registry of the dynamic-dataset updater, when one drives
        #: this server.  Queries pin the committed version at start (MVCC):
        #: pinning raises mid-batch, so a reader can never observe a
        #: half-applied update batch.
        self.registry: Optional[VersionPin] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def root_id(self) -> int:
        """Page id of the R-tree root."""
        return self.tree.root_id

    @property
    def root_mbr(self) -> Rect:
        """MBR of the root node (unit square for an empty tree)."""
        root = self.tree.root
        return root.mbr() if root.entries else Rect.unit()

    def execute(self, query: Query, remainder: Optional[RemainderQuery] = None,
                policy: Optional[SupportingIndexPolicy] = None) -> ServerResponse:
        """Process ``query`` (resuming from ``remainder`` when given)."""
        policy = policy or SupportingIndexPolicy.adaptive()
        if self.registry is not None:
            self.registry.pin()
        start = perf_clock()
        recorder: Dict[int, _AccessRecord] = {}
        frontier = (remainder.frontier if remainder is not None
                    else default_frontier(query, self.root_id, self.root_mbr))
        # Objects the client declared it already holds: their membership is
        # confirmed but their payload is never re-shipped.
        client_held: Set[int] = {target.object_id for item in frontier for target in item
                                 if target.kind is TargetKind.OBJECT and target.confirm_only}

        if isinstance(query, RangeQuery):
            results, examined = self._process_range(query, frontier, recorder, policy)
        elif isinstance(query, KNNQuery):
            k_needed = remainder.k_remaining if remainder and remainder.k_remaining else query.k
            results, examined = self._process_knn(query, frontier, recorder, policy, k_needed)
        elif isinstance(query, JoinQuery):
            results, examined = self._process_join(query, frontier, recorder, policy)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported query type {type(query)!r}")

        response = ServerResponse(
            deliveries=[ObjectDelivery(self.tree.objects[oid], parent,
                                       confirm_only=oid in client_held)
                        for oid, parent in sorted(results.items())],
            index_snapshots=self._build_snapshots(recorder, policy),
            accessed_node_count=len(recorder),
            examined_elements=examined,
        )
        response.cpu_seconds = perf_clock() - start
        if obs.ENABLED:
            obs.active().event("server.execute",
                               pages=response.accessed_node_count,
                               examined=examined,
                               deliveries=len(response.deliveries))
        return response

    # ------------------------------------------------------------------ #
    # frontier handling
    # ------------------------------------------------------------------ #
    def partition_tree_for(self, node_id: int) -> PartitionTree:
        """The node's (memoised) partition tree, building it on first use.

        Also what the consistency protocols build refresh snapshots through
        after the dataset updater dropped a mutated node's stale tree.
        """
        pt = self.partition_trees.get(node_id)
        if pt is None:
            pt = PartitionTree(self.tree.store.peek(node_id))
            self.partition_trees[node_id] = pt
        return pt

    def _record(self, recorder: Dict[int, _AccessRecord], node_id: int) -> _AccessRecord:
        record = recorder.get(node_id)
        if record is None:
            record = recorder[node_id] = _AccessRecord()
        return record

    def _start_node(self, node_id: int, base: str, recorder: Dict[int, _AccessRecord],
                    policy: SupportingIndexPolicy) -> List[Tuple[int, PartitionElement]]:
        """Begin processing (the ``base`` subtree of) a node.

        Returns ``(owner_node_id, element)`` pairs where ``element`` is an
        :class:`Entry` or :class:`SuperEntry`.
        """
        node = self.tree.node(node_id)
        if not policy.uses_partition_trees and base == "":
            record = self._record(recorder, node_id)
            record.bases.add(base)
            record.full_access = True
            return [(node_id, entry) for entry in node.entries]
        pt = self.partition_tree_for(node_id)
        if base and base not in pt.subsets:
            # A stale super-entry code from an outdated client snapshot:
            # the node's content (and hence its partition tree) changed
            # after the snapshot was shipped.  Fall back to processing the
            # whole node — a conservative superset of the stale region.
            base = ""
        record = self._record(recorder, node_id)
        record.bases.add(base)
        if pt.is_leaf_code(base):
            return [(node_id, pt.entry_at(base))]
        record.expanded.add(base)
        return [(node_id, element) for element in pt.children(base)]

    def _expand_super(self, node_id: int, code: str, recorder: Dict[int, _AccessRecord]) \
            -> List[Tuple[int, PartitionElement]]:
        record = self._record(recorder, node_id)
        record.expanded.add(code)
        pt = self.partition_tree_for(node_id)
        return [(node_id, element) for element in pt.children(code)]

    # ------------------------------------------------------------------ #
    # range
    # ------------------------------------------------------------------ #
    def _process_range(self, query: RangeQuery, frontier: List[FrontierItem],
                       recorder: Dict[int, _AccessRecord],
                       policy: SupportingIndexPolicy) -> Tuple[Dict[int, Optional[int]], int]:
        window = query.window
        results: Dict[int, Optional[int]] = {}
        examined = 0
        stack: List[Tuple[str, object]] = []
        for item in frontier:
            target = item[0]
            if target.kind is TargetKind.OBJECT:
                record = self.tree.objects.get(target.object_id)
                if record is not None and record.mbr.intersects(window):
                    results[target.object_id] = target.parent_node_id
            elif target.kind is TargetKind.NODE:
                if target.node_id in self.tree.store:
                    stack.append(("start", (target.node_id, "")))
            else:
                # Super targets of since-freed pages (stale client state)
                # reference nothing the current tree can answer from.
                if target.node_id in self.tree.store:
                    stack.append(("start", (target.node_id, target.code)))

        while stack:
            tag, payload = stack.pop()
            examined += 1
            if tag == "start":
                node_id, base = payload
                for owner, element in self._start_node(node_id, base, recorder, policy):
                    stack.append(("elem", (owner, element)))
                continue
            owner, element = payload
            if isinstance(element, SuperEntry):
                if element.mbr.intersects(window):
                    for child_owner, child in self._expand_super(owner, element.code, recorder):
                        stack.append(("elem", (child_owner, child)))
                continue
            if not element.mbr.intersects(window):
                continue
            if element.is_leaf_entry:
                results[element.object_id] = owner
            else:
                stack.append(("start", (element.child_id, "")))
        return results, examined

    # ------------------------------------------------------------------ #
    # kNN
    # ------------------------------------------------------------------ #
    def _process_knn(self, query: KNNQuery, frontier: List[FrontierItem],
                     recorder: Dict[int, _AccessRecord], policy: SupportingIndexPolicy,
                     k_needed: int) -> Tuple[Dict[int, Optional[int]], int]:
        point = query.point
        results: Dict[int, Optional[int]] = {}
        examined = 0
        counter = itertools.count()
        heap: List[Tuple[float, int, str, object]] = []

        def push(tag: str, payload: object, priority: float) -> None:
            heapq.heappush(heap, (priority, next(counter), tag, payload))

        for item in frontier:
            target = item[0]
            if target.kind is TargetKind.OBJECT:
                # Skip targets for objects deleted since the client cached
                # them — there is nothing to confirm or deliver.
                if target.object_id in self.tree.objects:
                    push("object", (target.object_id, target.parent_node_id),
                         target.mbr.min_dist_to_point(point))
            elif target.kind is TargetKind.NODE:
                if target.node_id in self.tree.store:
                    push("start", (target.node_id, ""), target.mbr.min_dist_to_point(point))
            else:
                if target.node_id in self.tree.store:
                    push("start", (target.node_id, target.code),
                         target.mbr.min_dist_to_point(point))

        while heap and len(results) < k_needed:
            priority, _, tag, payload = heapq.heappop(heap)
            examined += 1
            if tag == "start":
                node_id, base = payload
                for owner, element in self._start_node(node_id, base, recorder, policy):
                    push("elem", (owner, element), element.mbr.min_dist_to_point(point))
                continue
            if tag == "object":
                object_id, parent = payload
                if object_id not in results:
                    results[object_id] = parent
                continue
            owner, element = payload
            if isinstance(element, SuperEntry):
                for child_owner, child in self._expand_super(owner, element.code, recorder):
                    push("elem", (child_owner, child), child.mbr.min_dist_to_point(point))
            elif element.is_leaf_entry:
                if element.object_id not in results:
                    results[element.object_id] = owner
            else:
                push("start", (element.child_id, ""), element.mbr.min_dist_to_point(point))
        return results, examined

    # ------------------------------------------------------------------ #
    # distance self-join
    # ------------------------------------------------------------------ #
    def _process_join(self, query: JoinQuery, frontier: List[FrontierItem],
                      recorder: Dict[int, _AccessRecord],
                      policy: SupportingIndexPolicy) -> Tuple[Dict[int, Optional[int]], int]:
        def resolve(target: FrontierTarget) -> Optional[Side]:
            # Pairs naming since-deleted objects or freed pages (stale
            # client state) are unanswerable; drop them.
            if target.kind is TargetKind.OBJECT:
                alive = target.object_id in self.tree.objects
            else:
                alive = target.node_id in self.tree.store
            return target_side(target) if alive else None

        def expand(side: NodeSide) -> List[Side]:
            return element_sides(self._start_node(side[1], side[2], recorder, policy))

        results, examined, touched = join_pairs(query, seed_pairs(frontier, resolve), expand)
        # Snapshots ship in the recorder's order and the client inserts (and
        # evicts) in that order: keep the walk's, not the kernel's.
        in_walk_order = [(node_id, recorder[node_id]) for node_id in touched]
        recorder.clear()
        recorder.update(in_walk_order)
        return results, examined

    # ------------------------------------------------------------------ #
    # supporting-index construction
    # ------------------------------------------------------------------ #
    def _build_snapshots(self, recorder: Dict[int, _AccessRecord],
                         policy: SupportingIndexPolicy) -> List[IndexNodeSnapshot]:
        snapshots: List[IndexNodeSnapshot] = []
        for node_id, record in recorder.items():
            node = self.tree.store.peek(node_id)
            pt = self.partition_tree_for(node_id)
            bases = record.bases or {""}
            if record.full_access or policy.form is IndexForm.FULL:
                codes = [pt.entry_code(entry)
                         for base in bases for entry in pt.subsets[base]]
            else:
                depth = policy.effective_depth(pt.height)
                codes = [code for base in bases
                         for code in pt.subtree_codes(base, record.expanded, depth)]
            # An element's entry is built once and kept with the partition
            # tree, so it lives exactly as long as the node's content does.
            entries: Dict[str, CacheEntry] = pt.derived
            elements: List[CacheEntry] = []
            for code in dict.fromkeys(codes):  # two bases can reach one code
                entry = entries.get(code)
                if entry is None:
                    entry = entries[code] = self._to_cache_entry(code, pt.element_at(code))
                elements.append(entry)
            snapshots.append(IndexNodeSnapshot(node_id=node_id, level=node.level,
                                               parent_id=node.parent_id, elements=elements))
        # Parents first so that the client can attach children when inserting.
        snapshots.sort(key=lambda snap: -snap.level)
        return snapshots

    @staticmethod
    def _to_cache_entry(code: str, element: PartitionElement) -> CacheEntry:
        if isinstance(element, SuperEntry):
            return CacheEntry(mbr=element.mbr, code=code)
        if element.is_leaf_entry:
            return CacheEntry(mbr=element.mbr, code=code, object_id=element.object_id)
        return CacheEntry(mbr=element.mbr, code=code, child_id=element.child_id)
