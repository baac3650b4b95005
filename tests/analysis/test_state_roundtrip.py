"""STM01's runtime companion: audited ``state_dict`` pairs round-trip exactly.

The STM01 rule proves *coverage* statically; these tests prove the audited
snapshot pairs actually reproduce the content digest (or the full state
dict) through ``from_state_dict``/``load_state_dict``/``restore_state`` for
the three audited classes: :class:`ProactiveCache`,
:class:`AdaptiveDepthController` and :class:`ProactiveSession`.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.core.adaptive import AdaptiveDepthController
from repro.core.cache import ProactiveCache
from repro.core.items import CachedIndexNode, CachedObject, CacheEntry
from repro.core.replacement import make_policy
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Rect
from repro.rtree import SizeModel
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_tree, generate_trace
from repro.sim.sessions import ProactiveSession


def _digest(state: dict) -> str:
    canonical = json.dumps(state, sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _grown_cache(seed: int = 13) -> ProactiveCache:
    rng = random.Random(seed)
    cache = ProactiveCache(capacity_bytes=30_000, size_model=SizeModel(),
                           replacement_policy=make_policy("GRD3"))
    node_ids = []
    for step in range(40):
        cache.tick()
        node_id = step + 1
        elements = {"0": CacheEntry(mbr=Rect(0.1, 0.1, 0.2, 0.2), code="0",
                                    child_id=None, object_id=None)}
        parent = rng.choice(node_ids) if node_ids and rng.random() < 0.5 else None
        if cache.insert_node_snapshot(
                CachedIndexNode(node_id=node_id, level=rng.randint(0, 2),
                                elements=elements), parent):
            node_ids.append(node_id)
        if node_ids and rng.random() < 0.6:
            x, y = rng.random() * 0.9, rng.random() * 0.9
            cache.insert_object(
                CachedObject(object_id=1000 + step, mbr=Rect(x, y, x + 0.02, y + 0.02),
                             size_bytes=rng.randint(200, 900)),
                rng.choice(node_ids))
    return cache


def test_proactive_cache_digest_roundtrips():
    cache = _grown_cache()
    restored = ProactiveCache.from_state_dict(cache.state_dict(),
                                              size_model=cache.size_model)
    assert restored.content_digest() == cache.content_digest()
    # And the round trip is stable: snapshot-of-restore == snapshot.
    assert restored.state_dict() == cache.state_dict()


def test_adaptive_controller_state_roundtrips():
    policy = SupportingIndexPolicy.adaptive(initial_depth=2)
    controller = AdaptiveDepthController(policy=policy, sensitivity=0.3,
                                         report_period=5)
    rng = random.Random(3)
    for _ in range(37):
        controller.record_query(cached_result_bytes=rng.uniform(0.0, 5000.0),
                                saved_result_bytes=rng.uniform(0.0, 4000.0))
    twin_policy = SupportingIndexPolicy.adaptive(initial_depth=2)
    twin = AdaptiveDepthController(policy=twin_policy, sensitivity=0.3,
                                  report_period=5)
    twin.load_state_dict(controller.state_dict())
    assert _digest(twin.state_dict()) == _digest(controller.state_dict())
    assert twin.depth == controller.depth


def test_proactive_session_digest_roundtrips():
    config = SimulationConfig.tiny(query_count=20, object_count=300)
    tree = build_tree(config)
    trace = generate_trace(config)
    session = ProactiveSession(tree, config)
    for record in trace.records[:12]:
        session.process(record)
    snapshot = session.state_dict()

    twin = ProactiveSession(tree, config)
    twin.restore_state(snapshot)
    assert twin.cache.content_digest() == session.cache.content_digest()
    assert _digest(twin.state_dict()) == _digest(snapshot)

    # The restored session keeps producing identical behaviour.
    for record in trace.records[12:16]:
        a = session.process(record)
        b = twin.process(record)
        assert a.downlink_bytes == b.downlink_bytes
    assert twin.cache.content_digest() == session.cache.content_digest()
