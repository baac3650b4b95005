"""The benchmark's own span recorder: timing proxies installed from outside.

No file of the program is edited.  The benchmark replaces public methods on
the *instances* it built (``session.process``, ``cache.insert_object``, the
server handle's ``execute`` ...) with closures that record a span
``(name, start, end, parent, op_id, tag, facts)`` around the original call.
Spans stay in memory; :meth:`Recorder.write` dumps them as JSON lines when
the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: One finished span.  ``parent`` indexes the recorder's span list (-1 for
#: a root), ``op_id`` is the replayed event the span belongs to.
Span = Tuple[str, float, float, int, int, Optional[str], Optional[tuple]]

#: Span name -> the layer (module) whose time it is.
LAYER_OF = {
    "session.process": "sim.sessions",
    "consistency.sync": "updates",
    "client.execute": "core.client",
    "cache.insert_node_snapshot": "core.cache",
    "cache.insert_object": "core.cache",
    "server.execute": "core.server",
    "shard.server.execute": "core.server",
    "router.execute": "sharding.router",
    "remote.execute": "net.client",
    "updater.apply": "updates",
    "store.commit_record": "storage.wal",
    "bench.oracle": "bench",
    "bench.probe": "bench",
    "bench.twin": "bench",
}


class Recorder:
    """Collects spans from the proxies of one traced lap."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Index of the event being replayed; stamped on every span.
        self.op_id = -1

    def wrap(self, target: object, attribute: str, name: str,
             tag: Optional[str] = None,
             facts: Optional[Callable[..., tuple]] = None) -> None:
        """Time every call of ``target.attribute`` as a span called ``name``.

        ``facts(result, *args)`` may return a small tuple of counts read at
        the boundary (pages, deliveries ...), stored with the span.
        """
        original = getattr(target, attribute)

        def traced(*args, **kwargs):
            return self.span(name, original, args, kwargs, tag, facts)

        setattr(target, attribute, traced)

    def span(self, name: str, call: Callable, args: tuple = (),
             kwargs: Optional[dict] = None, tag: Optional[str] = None,
             facts: Optional[Callable[..., tuple]] = None):
        """Run ``call(*args, **kwargs)`` as a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)  # keeps spans in start order
        parent = stack[-1] if stack else -1
        stack.append(index)
        result = None
        start = time.perf_counter()
        try:
            result = call(*args, **(kwargs or {}))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            noted = (facts(result, *args)
                     if facts is not None and result is not None else None)
            spans[index] = (name, start, end, parent, self.op_id, tag, noted)

    # -- analysis ----------------------------------------------------------- #
    def finished(self) -> List[Span]:
        """All spans; raises if a proxy is still open."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``ms`` (busy) and ``self_ms``.

        A span's self time is its duration minus the part covered by its
        direct children (children never overlap: one thread, one stack).
        """
        spans = self.finished()
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, *_rest) in enumerate(spans):
            row = totals.setdefault(name, {"calls": 0, "ms": 0.0,
                                           "self_ms": 0.0})
            duration = (end - start) * 1e3
            row["calls"] += 1
            row["ms"] += duration
            row["self_ms"] += duration - child_ms[index]
        return totals

    def named(self, *names: str) -> List[Span]:
        """The spans called any of ``names``, in start order."""
        return [span for span in self.finished() if span[0] in names]

    def write(self, path: str) -> None:
        """Dump the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.finished()):
                name, start, end, parent, op_id, tag, facts = span
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": LAYER_OF[name],
                    "start": start, "end": end, "parent": parent,
                    "op_id": op_id, "tag": tag, "facts": facts}) + "\n")


def _response_facts(response, query, *_rest) -> tuple:
    return (query.query_type.value, response.accessed_node_count,
            response.examined_elements, len(response.index_snapshots),
            len(response.deliveries))


def install(recorder: Recorder, deployment) -> None:
    """Put a proxy at every boundary of ``deployment`` reachable from outside."""
    groups = {spec.client_id: spec.group for spec in deployment.specs}
    for client_id, session in deployment.sessions.items():
        group = groups[client_id]
        recorder.wrap(session, "process", "session.process", tag=group)
        recorder.wrap(session.client, "execute", "client.execute")
        recorder.wrap(session.cache, "insert_node_snapshot",
                      "cache.insert_node_snapshot", tag=group)
        recorder.wrap(session.cache, "insert_object", "cache.insert_object",
                      tag=group)
        if session.consistency is not None:
            recorder.wrap(session.consistency, "sync", "consistency.sync")
        if deployment.server_process is not None:
            recorder.wrap(session.server, "execute", "remote.execute",
                          facts=_response_facts)
    if deployment.sharded is not None:
        recorder.wrap(deployment.server, "execute", "router.execute",
                      facts=_response_facts)
        for shard in deployment.sharded.shards:
            recorder.wrap(shard.server, "execute", "shard.server.execute",
                          facts=_response_facts)
    elif deployment.server is not None:
        recorder.wrap(deployment.server, "execute", "server.execute",
                      facts=_response_facts)
    if deployment.updater is not None:
        recorder.wrap(deployment.updater, "apply", "updater.apply")
        recorder.wrap(deployment.tree.store, "commit_record",
                      "store.commit_record")
