"""The element-at-a-time range and kNN walks, kept as the oracles of the inlined ones.

Until PR 19 ``ClientQueryProcessor._execute_range`` / ``_execute_knn`` paid,
per cached element, a ``Rect`` method call, two ``CacheEntry`` property
calls, a ``push`` closure call, a boxed ``(kind, payload)`` stack entry and
an item key built once for the lookup and once more for the touch.  The
inlined walks claim to reproduce these exactly — saved objects, the ordered
frontier with bit-equal priorities, counters, hit accounting — so the old
walks live on here verbatim (``self`` spelled ``processor``, the two
``_touch_*`` helpers spelled out) and
``test_client_walk_differential.py`` compares against them, the way
``join_reference.py`` keeps the pair-at-a-time join.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.client import ClientExecution
from repro.core.items import (
    FrontierTarget,
    TargetKind,
    item_key_for_node,
    item_key_for_object,
)


def reference_execute_range(processor, query):
    """HEAD's ``ClientQueryProcessor._execute_range``, element at a time."""
    cache = processor.cache
    execution = ClientExecution(query=query)
    window = query.window
    if not processor.root_mbr.intersects(window):
        return execution

    stack = [("node", (processor.root_id, processor.root_mbr))]
    while stack:
        kind, payload = stack.pop()
        execution.examined_elements += 1
        if kind == "node":
            node_id, mbr = payload
            snapshot = cache.get_node(node_id)
            if snapshot is None:
                execution.frontier.append(
                    (FrontierTarget.for_node(node_id, mbr),))
                continue
            cache.touch(item_key_for_node(node_id))
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
                cached = cache.get_object(element.object_id)
                if cached is None:
                    execution.frontier.append(
                        (FrontierTarget.for_object(element.object_id, element.mbr,
                                                   parent_node_id=owner),))
                else:
                    cache.touch(item_key_for_object(element.object_id))
                    execution.saved_objects[element.object_id] = cached
    return execution


def reference_execute_knn(processor, query):
    """HEAD's ``ClientQueryProcessor._execute_knn``, element at a time."""
    cache = processor.cache
    execution = ClientExecution(query=query)
    point = query.point
    k = query.k

    counter = itertools.count()
    heap = []

    def push(kind, payload, priority):
        heapq.heappush(heap, (priority, next(counter), kind, payload))

    push("node", (processor.root_id, processor.root_mbr),
         processor.root_mbr.min_dist_to_point(point))

    confirmed = {}
    pending = []
    missing_nonleaf = 0
    missing_leaf = 0

    while heap and len(confirmed) + missing_leaf < k:
        priority, _, kind, payload = heapq.heappop(heap)
        execution.examined_elements += 1
        if kind == "node":
            node_id, mbr = payload
            snapshot = cache.get_node(node_id)
            if snapshot is None:
                pending.append((priority, FrontierTarget.for_node(node_id, mbr, priority)))
                missing_nonleaf += 1
                continue
            cache.touch(item_key_for_node(node_id))
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
            cached = cache.get_object(element.object_id)
            if cached is not None and missing_nonleaf == 0:
                cache.touch(item_key_for_object(element.object_id))
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
    candidates = list(pending)
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
                                   confirm_only=cache.has_object(element.object_id))))
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
