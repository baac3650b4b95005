"""Client-side query processing over the proactive cache (Algorithm 1).

The processor walks the *cached* portion of the R-tree exactly like the
server would walk the real tree.  Whenever it pops an entry whose node or
object is not cached (or a super entry it cannot expand), the entry becomes a
*missing entry* and is set aside; when no progress can be made with what is
cached, the missing entries form the frontier of the remainder query.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.cache import ProactiveCache
from repro.core.items import (
    CachedIndexNode,
    CachedObject,
    CacheEntry,
    FrontierTarget,
    TargetKind,
    item_key_for_node,
    item_key_for_object,
)
from repro.core.join import (
    OID,
    SLOT,
    Outer,
    Side,
    SideKey,
    as_outer,
    side_key,
    side_mbr,
    within,
)
from repro.core.remainder import FrontierItem, RemainderQuery
from repro.geometry import Point, Rect
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.workload.queries import JoinQuery, KNNQuery, Query, QueryType, RangeQuery


# What a range / kNN walk entry holds (see the two walks).
_NODE, _ENTRY, _SUPER, _OBJECT = 0, 1, 2, 3


@dataclass(slots=True)
class ClientExecution:
    """Outcome of the first (local) processing stage of a query."""

    query: Query
    saved_objects: Dict[int, CachedObject] = field(default_factory=dict)
    frontier: List[FrontierItem] = field(default_factory=list)
    k_remaining: Optional[int] = None
    blocked_cached_objects: int = 0
    examined_elements: int = 0
    cpu_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """True when the query was fully answered from the cache."""
        if self.frontier:
            return False
        return self.k_remaining in (None, 0)

    def remainder(self, reported_fmr: Optional[float] = None) -> Optional[RemainderQuery]:
        """Build the remainder query, or ``None`` when the cache sufficed."""
        if self.complete:
            return None
        return RemainderQuery(query=self.query, frontier=list(self.frontier),
                              k_remaining=self.k_remaining, reported_fmr=reported_fmr)


class ClientQueryProcessor:
    """Executes spatial queries against the proactive cache.

    Parameters
    ----------
    cache:
        The client's proactive cache.
    root_id / root_mbr:
        Static catalogue information about the server's R-tree root (the
        client learns this once when it connects; it is a handful of bytes).
    """

    def __init__(self, cache: ProactiveCache, root_id: int, root_mbr: Rect) -> None:
        self.cache = cache
        self.root_id = root_id
        self.root_mbr = root_mbr

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query) -> ClientExecution:
        """Run Algorithm 1 for ``query`` and return the local execution state."""
        start = perf_clock()
        if isinstance(query, RangeQuery):
            execution = self._execute_range(query)
        elif isinstance(query, KNNQuery):
            execution = self._execute_knn(query)
        elif isinstance(query, JoinQuery):
            execution = self._execute_join(query)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported query type: {type(query)!r}")
        execution.cpu_seconds = perf_clock() - start
        return execution

    # ------------------------------------------------------------------ #
    # range queries
    # ------------------------------------------------------------------ #
    def _execute_range(self, query: RangeQuery) -> ClientExecution:
        """Algorithm 1 for a window, one pass over the cached cut.

        The per-element work is inlined (window test on hoisted coordinates,
        one ``cache.items`` lookup per node or object, the hit recorded on
        the state that lookup found); ``tests/core/client_reference.py``
        keeps the element-at-a-time walk this reproduces exactly.
        """
        execution = ClientExecution(query=query)
        window = query.window
        if not self.root_mbr.intersects(window):
            return execution
        min_x, min_y, max_x, max_y = window.min_x, window.min_y, window.max_x, window.max_y
        items = self.cache.items
        clock = self.cache.clock
        frontier = execution.frontier
        saved = execution.saved_objects
        snapshot: CachedIndexNode
        cached: CachedObject

        # Stack entries are (_NODE, node id, mbr) or (_ENTRY, element, owner id).
        stack: List[Tuple[int, Any, Any]] = [(_NODE, self.root_id, self.root_mbr)]
        examined = 0
        while stack:
            kind, first, second = stack.pop()
            examined += 1
            if kind == _NODE:
                state = items.get(item_key_for_node(first))
                if state is None:
                    frontier.append((FrontierTarget.for_node(first, second),))
                    continue
                state.hit_queries += 1
                state.last_access = clock
                snapshot = state.payload  # type: ignore[assignment]
                for element in snapshot.elements.values():
                    mbr = element.mbr
                    if (mbr.min_x <= max_x and min_x <= mbr.max_x
                            and mbr.min_y <= max_y and min_y <= mbr.max_y):
                        stack.append((_ENTRY, element, first))
            elif first.object_id is not None:
                state = items.get(item_key_for_object(first.object_id))
                if state is None:
                    frontier.append(
                        (FrontierTarget.for_object(first.object_id, first.mbr,
                                                   parent_node_id=second),))
                else:
                    state.hit_queries += 1
                    state.last_access = clock
                    cached = state.payload  # type: ignore[assignment]
                    saved[first.object_id] = cached
            elif first.child_id is not None:
                stack.append((_NODE, first.child_id, first.mbr))
            else:
                frontier.append(
                    (FrontierTarget.for_super(second, first.code, first.mbr),))
        execution.examined_elements = examined
        return execution

    # ------------------------------------------------------------------ #
    # kNN queries
    # ------------------------------------------------------------------ #
    def _execute_knn(self, query: KNNQuery) -> ClientExecution:
        """Algorithm 1 for kNN, best-first over the cached cut.

        Inlined like :meth:`_execute_range`.  Priorities are MINDIST computed
        as ``math.hypot(dx, dy)`` — bit-equal to
        :meth:`Rect.min_dist_to_point <repro.geometry.Rect.min_dist_to_point>`,
        which matters because they travel to the server in
        ``FrontierTarget.priority``.
        """
        execution = ClientExecution(query=query)
        px, py = query.point.x, query.point.y
        k = query.k
        items = self.cache.items
        clock = self.cache.clock
        hypot = math.hypot
        push, pop = heapq.heappush, heapq.heappop
        snapshot: CachedIndexNode
        cached: CachedObject

        # Heap entries are (priority, tick, kind, first, second) with the
        # payload (_NODE, node id, mbr), or (_SUPER / _OBJECT, element, owner
        # id); ``tick`` numbers the pushes, so equal priorities pop in push
        # order and the payload is never compared.
        heap: List[Tuple[float, int, int, Any, Any]] = [
            (self.root_mbr.min_dist_to_point(query.point), 0, _NODE,
             self.root_id, self.root_mbr)]
        tick = 1

        confirmed: Dict[int, CachedObject] = {}
        pending: List[Tuple[float, FrontierTarget]] = []
        missing_nonleaf = 0
        missing_leaf = 0
        examined = 0

        while heap and len(confirmed) + missing_leaf < k:
            priority, _, kind, first, second = pop(heap)
            examined += 1
            if kind == _NODE:
                state = items.get(item_key_for_node(first))
                if state is None:
                    pending.append((priority, FrontierTarget.for_node(first, second, priority)))
                    missing_nonleaf += 1
                    continue
                state.hit_queries += 1
                state.last_access = clock
                snapshot = state.payload  # type: ignore[assignment]
                for element in snapshot.elements.values():
                    mbr = element.mbr
                    dx = mbr.min_x - px
                    if dx < 0.0:
                        dx = px - mbr.max_x
                        if dx < 0.0:
                            dx = 0.0
                    dy = mbr.min_y - py
                    if dy < 0.0:
                        dy = py - mbr.max_y
                        if dy < 0.0:
                            dy = 0.0
                    if element.object_id is not None:
                        push(heap, (hypot(dx, dy), tick, _OBJECT, element, first))
                    elif element.child_id is not None:
                        push(heap, (hypot(dx, dy), tick, _NODE, element.child_id, mbr))
                    else:
                        push(heap, (hypot(dx, dy), tick, _SUPER, element, first))
                    tick += 1
            elif kind == _SUPER:
                pending.append((priority,
                                FrontierTarget.for_super(second, first.code,
                                                         first.mbr, priority)))
                missing_nonleaf += 1
            else:  # object
                state = items.get(item_key_for_object(first.object_id))
                if state is not None and missing_nonleaf == 0:
                    state.hit_queries += 1
                    state.last_access = clock
                    cached = state.payload  # type: ignore[assignment]
                    confirmed[first.object_id] = cached
                    continue
                # A cached object popped behind a missing node cannot be
                # locally confirmed, but its payload needs no re-download:
                # ship it as a confirmation-only frontier target.
                pending.append((priority,
                                FrontierTarget.for_object(first.object_id, first.mbr,
                                                          parent_node_id=second,
                                                          priority=priority,
                                                          confirm_only=state is not None)))
                if state is None:
                    missing_leaf += 1
                else:
                    execution.blocked_cached_objects += 1

        execution.examined_elements = examined
        execution.saved_objects = confirmed
        if len(confirmed) >= k:
            return execution
        if not pending and not heap:
            # Nothing was ever set aside (no super entry, missing node or
            # unconfirmed object), so the cached view covered the whole tree:
            # fewer than k objects exist and the local answer is provably
            # complete.  Had anything been set aside it would sit in
            # ``pending`` and execution would fall through to the
            # frontier-building path below, which does contact the server.
            execution.k_remaining = None
            return execution

        # Build and prune the frontier: keep candidates up to the (k - m)-th
        # leaf (object) element in distance order; coarser elements beyond it
        # cannot contain closer objects (paper Example 3.1).
        candidates: List[Tuple[float, FrontierTarget]] = list(pending)
        while heap:
            priority, _, kind, first, second = pop(heap)
            if kind == _NODE:
                candidates.append((priority, FrontierTarget.for_node(first, second, priority)))
            elif kind == _SUPER:
                candidates.append((priority,
                                   FrontierTarget.for_super(second, first.code,
                                                            first.mbr, priority)))
            else:
                candidates.append((priority,
                                   FrontierTarget.for_object(
                                       first.object_id, first.mbr,
                                       parent_node_id=second, priority=priority,
                                       confirm_only=item_key_for_object(first.object_id)
                                       in items)))
        candidates.sort(key=lambda item: item[0])
        needed = k - len(confirmed)
        cutoff = None
        object_count = 0
        for priority, target in candidates:
            if target.kind is TargetKind.OBJECT:
                object_count += 1
                if object_count == needed:
                    cutoff = priority
                    break
        kept = [target for priority, target in candidates
                if cutoff is None or priority <= cutoff + 1e-12]
        execution.frontier = [(target,) for target in kept]
        execution.k_remaining = needed
        return execution

    # ------------------------------------------------------------------ #
    # distance self-join queries
    # ------------------------------------------------------------------ #
    def _execute_join(self, query: JoinQuery) -> ClientExecution:
        """Algorithm 1 for the self-join, in the batched shape of the kernel.

        The walk starts from the pair (root, root): the first root is
        descended to cached objects (the *outer* side), then the second root
        is descended once, carrying at each element the outer objects within
        the threshold of it.  A pair with an entry the cache cannot resolve
        (a super entry, an uncached node or object) goes into the frontier
        untouched (Algorithm 1, footnote 3).  What a pair-at-a-time walk of
        the same cache would do is reproduced exactly: the frontier items in
        its order, one node hit per pair expanded, one object hit per
        distinct result pair.
        """
        execution = ClientExecution(query=query)
        window = query.window
        threshold_sq = query.threshold * query.threshold
        root_mbr = self.root_mbr
        if not root_mbr.intersects(window):
            return execution
        cache = self.cache

        sides_of: Dict[int, List[Side]] = {}

        def children(node_id: int) -> List[Side]:
            sides = sides_of.get(node_id)
            if sides is None:
                sides = sides_of[node_id] = []
                for element in cache.get_node(node_id).elements.values():
                    if element.is_super:
                        sides.append(("node", node_id, element.code, element.mbr))
                    elif element.is_node_entry:
                        sides.append(("node", element.child_id, "", element.mbr))
                    else:
                        sides.append(("object", element.object_id, element.mbr, node_id))
            return sides

        def resolvable(side: Side) -> bool:
            if side[0] == "object":
                return cache.has_object(side[1])
            return side[2] == "" and cache.has_node(side[1])

        def to_target(side: Side) -> FrontierTarget:
            if side[0] == "object":
                return FrontierTarget.for_object(side[1], side[2], parent_node_id=side[3],
                                                 confirm_only=cache.has_object(side[1]))
            if side[2]:
                return FrontierTarget.for_super(side[1], side[2], side[3])
            return FrontierTarget.for_node(side[1], side[3])

        # Frontier items keyed by when the pair-at-a-time walk sets them
        # aside, as (2 * slot + phase, tick) — see join_pairs.
        missing: List[Tuple[Tuple[int, int], FrontierItem]] = []
        ticks = itertools.count()
        node_hits: Dict[int, int] = {}
        object_hits: Dict[int, int] = {}

        root: Side = ("node", self.root_id, "", root_mbr)
        root_target = to_target(root)
        execution.examined_elements = 1
        if not resolvable(root):
            execution.frontier = [(root_target, root_target)]
            return execution

        # Outer side: descend the first root against the second root's MBR.
        outer_sides: List[Side] = []
        outers: List[Outer] = []
        walked: Set[SideKey] = set()
        bound = [as_outer(root_mbr)]
        stack = [root]
        while stack:
            side = stack.pop()
            key = side_key(side)
            if key in walked:
                continue
            walked.add(key)
            if not resolvable(side):
                missing.append(((2 * len(outers), next(ticks)),
                                (to_target(side), root_target)))
            elif side[0] == "object":
                outers.append(as_outer(side[2], len(outers), side[1], side[3]))
                outer_sides.append(side)
            else:
                node_hits[side[1]] = node_hits.get(side[1], 0) + 1
                for child in children(side[1]):
                    mbr = side_mbr(child)
                    if mbr.intersects(window) and within(bound, mbr, threshold_sq):
                        execution.examined_elements += 1
                        stack.append(child)

        # Inner side: descend the second root once.  An element reached
        # again (a stale snapshot can list a node or an object twice) only
        # meets the outer objects it has not met before.
        met: Dict[SideKey, List[Outer]] = {}
        paired: Set[Tuple[int, int]] = set()
        descent: List[Tuple[Side, List[Outer]]] = [(root, outers)] if outers else []
        while descent:
            inner, outers = descent.pop()
            tick = next(ticks)
            key = side_key(inner)
            before = met.get(key)
            if before is None:
                met[key] = outers
            else:
                known = {outer[OID] for outer in before}
                outers = [outer for outer in outers if outer[OID] not in known]
                if not outers:
                    continue
                met[key] = before + outers
            if not resolvable(inner):
                target = to_target(inner)
                missing.extend(((2 * outer[SLOT] + 1, tick),
                                (target, to_target(outer_sides[outer[SLOT]])))
                               for outer in outers)
            elif inner[0] == "node":
                node_hits[inner[1]] = node_hits.get(inner[1], 0) + len(outers)
                for child in children(inner[1]):
                    mbr = side_mbr(child)
                    if mbr.intersects(window):
                        near = within(outers, mbr, threshold_sq)
                        if near:
                            execution.examined_elements += len(near)
                            descent.append((child, near))
            else:
                object_id = inner[1]
                for outer in outers:
                    other_id = outer[OID]
                    pair = (object_id, other_id) if object_id < other_id else (other_id, object_id)
                    if other_id == object_id or pair in paired:
                        continue
                    paired.add(pair)
                    for hit in pair:
                        object_hits[hit] = object_hits.get(hit, 0) + 1

        for node_id, hits in node_hits.items():
            cache.touch(item_key_for_node(node_id), hits)
        for object_id, hits in object_hits.items():
            cache.touch(item_key_for_object(object_id), hits)
            execution.saved_objects[object_id] = cache.get_object(object_id)
        missing.sort(key=lambda entry: entry[0])
        execution.frontier = [item for _, item in missing]
        return execution
