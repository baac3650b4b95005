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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cache import ProactiveCache
from repro.core.items import (
    CachedObject,
    CacheEntry,
    FrontierTarget,
    TargetKind,
    item_key_for_node,
    item_key_for_object,
)
from repro.core.remainder import FrontierItem, RemainderQuery
from repro.geometry import Point, Rect
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.workload.queries import JoinQuery, KNNQuery, Query, QueryType, RangeQuery


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
    # helpers
    # ------------------------------------------------------------------ #
    def _touch_node(self, node_id: int) -> None:
        self.cache.touch(item_key_for_node(node_id))

    def _touch_object(self, object_id: int) -> None:
        self.cache.touch(item_key_for_object(object_id))

    # ------------------------------------------------------------------ #
    # range queries
    # ------------------------------------------------------------------ #
    def _execute_range(self, query: RangeQuery) -> ClientExecution:
        execution = ClientExecution(query=query)
        window = query.window
        if not self.root_mbr.intersects(window):
            return execution

        stack: List[Tuple[str, object]] = [("node", (self.root_id, self.root_mbr))]
        while stack:
            kind, payload = stack.pop()
            execution.examined_elements += 1
            if kind == "node":
                node_id, mbr = payload
                snapshot = self.cache.get_node(node_id)
                if snapshot is None:
                    execution.frontier.append(
                        (FrontierTarget.for_node(node_id, mbr),))
                    continue
                self._touch_node(node_id)
                for element in snapshot.entries():
                    if element.mbr.intersects(window):
                        stack.append(("entry", (element, node_id)))
            else:
                element, owner = payload
                if element.is_super:
                    execution.frontier.append(
                        (FrontierTarget.for_super(owner, element.code, element.mbr),))
                elif element.is_node_entry:
                    stack.append(("node", (element.child_id, element.mbr)))
                else:
                    cached = self.cache.get_object(element.object_id)
                    if cached is None:
                        execution.frontier.append(
                            (FrontierTarget.for_object(element.object_id, element.mbr,
                                                       parent_node_id=owner),))
                    else:
                        self._touch_object(element.object_id)
                        execution.saved_objects[element.object_id] = cached
        return execution

    # ------------------------------------------------------------------ #
    # kNN queries
    # ------------------------------------------------------------------ #
    def _execute_knn(self, query: KNNQuery) -> ClientExecution:
        execution = ClientExecution(query=query)
        point = query.point
        k = query.k

        counter = itertools.count()
        heap: List[Tuple[float, int, str, object]] = []

        def push(kind: str, payload: object, priority: float) -> None:
            heapq.heappush(heap, (priority, next(counter), kind, payload))

        push("node", (self.root_id, self.root_mbr),
             self.root_mbr.min_dist_to_point(point))

        confirmed: Dict[int, CachedObject] = {}
        pending: List[Tuple[float, FrontierTarget]] = []
        missing_nonleaf = 0
        missing_leaf = 0

        while heap and len(confirmed) + missing_leaf < k:
            priority, _, kind, payload = heapq.heappop(heap)
            execution.examined_elements += 1
            if kind == "node":
                node_id, mbr = payload
                snapshot = self.cache.get_node(node_id)
                if snapshot is None:
                    pending.append((priority, FrontierTarget.for_node(node_id, mbr, priority)))
                    missing_nonleaf += 1
                    continue
                self._touch_node(node_id)
                for element in snapshot.entries():
                    element_priority = element.mbr.min_dist_to_point(point)
                    if element.is_super:
                        push("super", (element, node_id), element_priority)
                    elif element.is_node_entry:
                        push("node", (element.child_id, element.mbr), element_priority)
                    else:
                        push("object", (element, node_id), element_priority)
            elif kind == "super":
                element, owner = payload
                pending.append((priority,
                                FrontierTarget.for_super(owner, element.code,
                                                         element.mbr, priority)))
                missing_nonleaf += 1
            else:  # object
                element, owner = payload
                cached = self.cache.get_object(element.object_id)
                if cached is not None and missing_nonleaf == 0:
                    self._touch_object(element.object_id)
                    confirmed[element.object_id] = cached
                    continue
                # A cached object popped behind a missing node cannot be
                # locally confirmed, but its payload needs no re-download:
                # ship it as a confirmation-only frontier target.
                pending.append((priority,
                                FrontierTarget.for_object(element.object_id, element.mbr,
                                                          parent_node_id=owner,
                                                          priority=priority,
                                                          confirm_only=cached is not None)))
                if cached is None:
                    missing_leaf += 1
                else:
                    execution.blocked_cached_objects += 1

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
            priority, _, kind, payload = heapq.heappop(heap)
            if kind == "node":
                node_id, mbr = payload
                candidates.append((priority, FrontierTarget.for_node(node_id, mbr, priority)))
            elif kind == "super":
                element, owner = payload
                candidates.append((priority,
                                   FrontierTarget.for_super(owner, element.code,
                                                            element.mbr, priority)))
            else:
                element, owner = payload
                candidates.append((priority,
                                   FrontierTarget.for_object(
                                       element.object_id, element.mbr,
                                       parent_node_id=owner, priority=priority,
                                       confirm_only=self.cache.has_object(element.object_id))))
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
        execution = ClientExecution(query=query)
        window = query.window
        threshold = query.threshold
        if not self.root_mbr.intersects(window):
            return execution

        root_side = ("node", self.root_id, self.root_mbr)
        stack: List[Tuple[Tuple, Tuple, bool]] = [(root_side, root_side, False)]
        seen_pairs: Set[Tuple] = set()
        result_pairs: Set[Tuple[int, int]] = set()

        def side_key(side: Tuple) -> Tuple:
            kind = side[0]
            if kind == "node":
                return ("n", side[1])
            if kind == "super":
                return ("s", side[1], side[2])
            return ("o", side[1])

        def side_mbr(side: Tuple) -> Rect:
            return side[-1] if side[0] != "object" else side[2]

        # Same inlining as the server's join predicate: one call per
        # candidate pair, hoisted window coords, squared MINDIST.
        w_min_x, w_min_y = window.min_x, window.min_y
        w_max_x, w_max_y = window.max_x, window.max_y
        threshold_sq = threshold * threshold

        def qualifies(a: Tuple, b: Tuple) -> bool:
            mbr_a = a[2] if a[0] == "object" else a[-1]
            mbr_b = b[2] if b[0] == "object" else b[-1]
            if (mbr_a.min_x > w_max_x or mbr_a.max_x < w_min_x
                    or mbr_a.min_y > w_max_y or mbr_a.max_y < w_min_y):
                return False
            if (mbr_b.min_x > w_max_x or mbr_b.max_x < w_min_x
                    or mbr_b.min_y > w_max_y or mbr_b.max_y < w_min_y):
                return False
            dx = mbr_a.min_x - mbr_b.max_x
            if dx < 0.0:
                dx = mbr_b.min_x - mbr_a.max_x
                if dx < 0.0:
                    dx = 0.0
            dy = mbr_a.min_y - mbr_b.max_y
            if dy < 0.0:
                dy = mbr_b.min_y - mbr_a.max_y
                if dy < 0.0:
                    dy = 0.0
            return dx * dx + dy * dy <= threshold_sq

        # Memoised per query: a cached node's side list never changes while
        # the join runs (joins only touch, never insert or evict), but the
        # hit-accounting touch must still land once per expansion, exactly
        # as the unmemoised walk performed it.
        expand_cache: Dict[int, Optional[List[Tuple]]] = {}

        def expand(side: Tuple) -> Optional[List[Tuple]]:
            """Expand a node side into child sides; None when not possible locally."""
            kind = side[0]
            if kind != "node":
                return None
            node_id = side[1]
            if node_id in expand_cache:
                cached = expand_cache[node_id]
                if cached is not None:
                    self._touch_node(node_id)
                return cached
            snapshot = self.cache.get_node(node_id)
            if snapshot is None:
                expand_cache[node_id] = None
                return None
            self._touch_node(node_id)
            sides: List[Tuple] = []
            for element in snapshot.entries():
                if element.is_super:
                    sides.append(("super", node_id, element.code, element.mbr))
                elif element.is_node_entry:
                    sides.append(("node", element.child_id, element.mbr))
                else:
                    sides.append(("object", element.object_id, element.mbr, node_id))
            expand_cache[node_id] = sides
            return sides

        def to_target(side: Tuple) -> FrontierTarget:
            kind = side[0]
            if kind == "node":
                return FrontierTarget.for_node(side[1], side[2])
            if kind == "super":
                return FrontierTarget.for_super(side[1], side[2], side[3])
            return FrontierTarget.for_object(side[1], side[2], parent_node_id=side[3],
                                             confirm_only=self.cache.has_object(side[1]))

        def resolvable(side: Tuple) -> bool:
            kind = side[0]
            if kind == "super":
                return False
            if kind == "node":
                return self.cache.has_node(side[1])
            return self.cache.has_object(side[1])

        while stack:
            side_a, side_b, prequalified = stack.pop()
            execution.examined_elements += 1
            if not prequalified and not qualifies(side_a, side_b):
                continue
            key_a, key_b = side_key(side_a), side_key(side_b)
            pair_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
            if pair_key in seen_pairs:
                continue
            seen_pairs.add(pair_key)

            # A pair is a missing pair as soon as either entry is missing
            # (Algorithm 1, footnote 3): it goes into the frontier untouched.
            if not (resolvable(side_a) and resolvable(side_b)):
                if side_a[0] == "object" and side_b[0] == "object" and side_a[1] == side_b[1]:
                    continue
                execution.frontier.append((to_target(side_a), to_target(side_b)))
                continue

            a_is_object = side_a[0] == "object"
            b_is_object = side_b[0] == "object"
            if a_is_object and b_is_object:
                id_a, id_b = side_a[1], side_b[1]
                if id_a == id_b:
                    continue
                cached_a = self.cache.get_object(id_a)
                cached_b = self.cache.get_object(id_b)
                self._touch_object(id_a)
                self._touch_object(id_b)
                result_pairs.add(tuple(sorted((id_a, id_b))))
                execution.saved_objects[id_a] = cached_a
                execution.saved_objects[id_b] = cached_b
                continue

            # Both sides resolvable and at least one is a node: expand one side
            # and pair its children with the other side.
            if not a_is_object:
                expanded, other = expand(side_a), side_b
            else:
                expanded, other = expand(side_b), side_a
            if expanded is None:  # pragma: no cover - defensive (resolvable node)
                execution.frontier.append((to_target(side_a), to_target(side_b)))
                continue
            # Inline child-vs-other predicate (same shape as the server's):
            # `other` already passed the window test as part of this pair.
            o_mbr = other[2] if other[0] == "object" else other[-1]
            o_min_x, o_min_y = o_mbr.min_x, o_mbr.min_y
            o_max_x, o_max_y = o_mbr.max_x, o_mbr.max_y
            push = stack.append
            for child in expanded:
                c_mbr = child[2] if child[0] == "object" else child[-1]
                if (c_mbr.min_x > w_max_x or c_mbr.max_x < w_min_x
                        or c_mbr.min_y > w_max_y or c_mbr.max_y < w_min_y):
                    continue
                dx = c_mbr.min_x - o_max_x
                if dx < 0.0:
                    dx = o_min_x - c_mbr.max_x
                    if dx < 0.0:
                        dx = 0.0
                dy = c_mbr.min_y - o_max_y
                if dy < 0.0:
                    dy = o_min_y - c_mbr.max_y
                    if dy < 0.0:
                        dy = 0.0
                if dx * dx + dy * dy <= threshold_sq:
                    push((child, other, True))
        return execution
