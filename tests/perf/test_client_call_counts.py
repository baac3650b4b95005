"""Counts, not clocks: what the client's own work costs in calls, on a golden scenario.

The client path (Algorithm 1's walk, GRD3 admission, the session's hit
accounting) is call-count-bound like the join.  At PR 18's HEAD the
``cache_pressure`` golden scenario spent 93 614 Python calls in its range /
kNN walks — 21.0 per element examined (per cached element a ``Rect`` method,
two ``CacheEntry`` properties and a ``push`` closure; per lookup ``get_*``,
``touch`` and two item-key builds) —, built a fresh GRD3 victim heap in each
of its 1 063 ``make_room`` calls (3.9 per evicting tick), re-scoring every
leaf through ``access_probability`` (22 437 calls), and paid 24 378 Python
calls for 600 ``cached_object_ids()`` (one property call per cached item).
Call counts repeat exactly where a wall-clock regression of a few per cent
drowns in noise, so this test replays the scenario and holds the path to
ceilings a little above what it needs today.
"""

import json
import sys

import pytest

from repro.core.cache import CacheItemState, ProactiveCache
from repro.core.client import ClientQueryProcessor
from repro.core.replacement import GRD3Policy

from tests.perf.scenarios import GOLDEN_PATH, cache_pressure

pytestmark = pytest.mark.slow


def test_client_call_counts_on_cache_pressure(monkeypatch):
    counts = {"walk_calls": 0, "examined": 0, "make_room": 0, "heap_builds": 0,
              "scored_in_make_room": 0, "id_sets": 0, "id_set_calls": 0}
    builds_per_tick = {}
    stores = []            # kept alive so an id() is never reused
    in_make_room = []

    def count_call(counter):
        def on_event(frame, event, arg):
            if event == "call":
                counts[counter] += 1
        return on_event

    def profiled(counter, function, *args):
        sys.setprofile(count_call(counter))
        try:
            return function(*args)
        finally:
            sys.setprofile(None)

    def counting_walk(walk):
        def run(self, query):
            execution = profiled("walk_calls", walk, self, query)
            counts["examined"] += execution.examined_elements
            return execution
        return run

    make_room = GRD3Policy.make_room

    def counting_make_room(self, cache, bytes_needed, context, protect):
        heap = self._heap
        in_make_room.append(True)
        try:
            return make_room(self, cache, bytes_needed, context, protect)
        finally:
            in_make_room.pop()
            counts["make_room"] += 1
            if self._heap is not heap:
                stores.append(cache)
                tick = (id(cache), cache.clock)
                builds_per_tick[tick] = builds_per_tick.get(tick, 0) + 1
                counts["heap_builds"] += 1

    access_probability = CacheItemState.access_probability

    def counting_probability(self, current_time):
        counts["scored_in_make_room"] += bool(in_make_room)
        return access_probability(self, current_time)

    cached_object_ids = ProactiveCache.cached_object_ids

    def counting_ids(self):
        counts["id_sets"] += 1
        return profiled("id_set_calls", cached_object_ids, self)

    monkeypatch.setattr(ClientQueryProcessor, "_execute_range",
                        counting_walk(ClientQueryProcessor._execute_range))
    monkeypatch.setattr(ClientQueryProcessor, "_execute_knn",
                        counting_walk(ClientQueryProcessor._execute_knn))
    monkeypatch.setattr(GRD3Policy, "make_room", counting_make_room)
    monkeypatch.setattr(CacheItemState, "access_probability", counting_probability)
    monkeypatch.setattr(ProactiveCache, "cached_object_ids", counting_ids)

    # Counting changes no decision: the run still is the golden run ...
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cache_pressure"]
    assert cache_pressure() == golden
    # ... of four 150-query clients whose walks examined this many elements.
    assert counts["id_sets"] == 600
    assert counts["examined"] == 4_459

    # One victim heap per (cache, tick), however many inserts the tick makes
    # (measured: 1 063 make_room calls share 270 heaps).
    assert max(builds_per_tick.values()) == 1
    assert counts["heap_builds"] <= 0.3 * counts["make_room"]
    # prob(i) is computed inline; the method is the reference form.
    assert counts["scored_in_make_room"] == 0
    # What is left is per lookup (one item-key build) and per element set
    # aside (a FrontierTarget; these tiny caches set most of a kNN's queue
    # aside), nothing per cached element (measured: 22 490 calls, 5.04 per
    # examined element).
    assert counts["walk_calls"] <= 5.6 * counts["examined"]
    # The object-id set is maintained by the cache; asking for it is one
    # C-level copy, no per-item call.
    assert counts["id_set_calls"] == counts["id_sets"]
