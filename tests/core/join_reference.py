"""The pair-at-a-time join walks, kept as the oracles of the batched ones.

Until PR 16 the server, the shard router and the client all ran the join as
a stack of candidate pairs, one push / pop / seen-set probe per pair.  The
batched kernel (:func:`repro.core.join.join_pairs`) and the batched client
walk (``ClientQueryProcessor._execute_join``) claim to reproduce those walks
exactly — results, counters, snapshot order, hit accounting — so the old
walks live on here, written plainly with ``Rect`` methods, and the
differential suites compare against them.
"""

from __future__ import annotations

from repro.core.client import ClientExecution
from repro.core.items import FrontierTarget, item_key_for_node, item_key_for_object
from repro.core.join import side_key, side_mbr


def _qualifies(query, a, b):
    return (side_mbr(a).intersects(query.window)
            and side_mbr(b).intersects(query.window)
            and side_mbr(a).min_dist_sq_to_rect(side_mbr(b))
            <= query.threshold * query.threshold)


def reference_join_pairs(query, seeds, expand):
    """The pairwise traversal: ``(results, examined)``.

    ``expand`` is called once per pair expanded, in walk order.
    """
    results, examined, seen = {}, 0, set()
    stack = list(seeds)
    while stack:
        a, b = stack.pop()
        examined += 1
        if not _qualifies(query, a, b):
            continue
        key = frozenset((side_key(a), side_key(b)))
        if key in seen:
            continue
        seen.add(key)
        if a[0] == b[0] == "object":
            if a[1] != b[1]:
                results.setdefault(a[1], a[3])
                results.setdefault(b[1], b[3])
            continue
        node, other = (a, b) if a[0] == "node" else (b, a)
        stack.extend((child, other) for child in expand(node)
                     if _qualifies(query, child, other))
    return results, examined


def reference_kernel(query, seeds, expand):
    """:func:`reference_join_pairs` behind ``join_pairs``' signature.

    Expansions are memoised per ``(node_id, code)`` the way the server and
    router shims memoised them, so ``touched`` — the node ids in the order
    of their first expansion — is the order the walk's access recorder
    filled in.
    """
    memo = {}

    def expand_once(side):
        key = side[1:3]
        if key not in memo:
            memo[key] = expand(side)
        return memo[key]

    results, examined = reference_join_pairs(query, seeds, expand_once)
    return results, examined, list(dict.fromkeys(node_id for node_id, _ in memo))


def reference_execute_join(processor, query):
    """Algorithm 1 for the join, pair at a time, over ``processor.cache``."""
    cache = processor.cache
    execution = ClientExecution(query=query)
    if not processor.root_mbr.intersects(query.window):
        return execution

    def expand(side):
        cache.touch(item_key_for_node(side[1]))
        sides = []
        for element in cache.get_node(side[1]).entries():
            if element.is_super:
                sides.append(("node", side[1], element.code, element.mbr))
            elif element.is_node_entry:
                sides.append(("node", element.child_id, "", element.mbr))
            else:
                sides.append(("object", element.object_id, element.mbr, side[1]))
        return sides

    def resolvable(side):
        if side[0] == "object":
            return cache.has_object(side[1])
        return side[2] == "" and cache.has_node(side[1])

    def to_target(side):
        if side[0] == "object":
            return FrontierTarget.for_object(side[1], side[2], parent_node_id=side[3],
                                             confirm_only=cache.has_object(side[1]))
        if side[2]:
            return FrontierTarget.for_super(side[1], side[2], side[3])
        return FrontierTarget.for_node(side[1], side[3])

    root = ("node", processor.root_id, "", processor.root_mbr)
    stack, seen = [(root, root)], set()
    while stack:
        a, b = stack.pop()
        execution.examined_elements += 1
        if not _qualifies(query, a, b):
            continue
        key = frozenset((side_key(a), side_key(b)))
        if key in seen:
            continue
        seen.add(key)
        if not (resolvable(a) and resolvable(b)):
            if not (a[0] == b[0] == "object" and a[1] == b[1]):
                execution.frontier.append((to_target(a), to_target(b)))
            continue
        if a[0] == b[0] == "object":
            if a[1] != b[1]:
                for object_id in (a[1], b[1]):
                    cache.touch(item_key_for_object(object_id))
                    execution.saved_objects[object_id] = cache.get_object(object_id)
            continue
        node, other = (a, b) if a[0] == "node" else (b, a)
        stack.extend((child, other) for child in expand(node)
                     if _qualifies(query, child, other))
    return execution
