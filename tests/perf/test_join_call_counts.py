"""Counts, not clocks: what one join costs in calls, pinned on a golden scenario.

The join is call-count-bound (PR 13's lesson: one extra Python call per node
expansion read -3.8 % on the benchmark), and a wall-clock regression of a
few per cent drowns in the benchmark's noise.  Call counts repeat exactly,
so this test replays the ``fleet_rush_hour`` golden scenario and holds the
kernel to ceilings a little above what it needs today.  The same scenario
at PR 15's HEAD, for scale: 163 345 ``expand`` calls (707 per join), 82 137
``CacheEntry`` constructions (356 per join), 3.70 Python calls per examined
pair — a shim that re-adds a per-pair or per-response cost lands far above
the ceilings.
"""

import json
import sys

import pytest

import repro.core.server as server_module
from repro.core.server import ServerQueryProcessor

from tests.perf.scenarios import GOLDEN_PATH, fleet_rush_hour

pytestmark = pytest.mark.slow


def test_join_call_counts_on_fleet_rush_hour(monkeypatch):
    counts = {"joins": 0, "expands": 0, "distinct": 0, "examined": 0,
              "entries": 0, "calls": 0}
    kernel = server_module.join_pairs
    to_cache_entry = ServerQueryProcessor._to_cache_entry

    def count_call(frame, event, arg):
        if event == "call":
            counts["calls"] += 1

    def counting_kernel(query, seeds, expand):
        expanded = []

        def counting_expand(side):
            expanded.append(side[1:3])
            return expand(side)

        sys.setprofile(count_call)
        try:
            results, examined, touched = kernel(query, seeds, counting_expand)
        finally:
            sys.setprofile(None)
        counts["joins"] += 1
        counts["expands"] += len(expanded)
        counts["distinct"] += len(set(expanded))
        counts["examined"] += examined
        return results, examined, touched

    def counting_entry(code, element):
        counts["entries"] += 1
        return to_cache_entry(code, element)

    monkeypatch.setattr(server_module, "join_pairs", counting_kernel)
    monkeypatch.setattr(ServerQueryProcessor, "_to_cache_entry", staticmethod(counting_entry))

    # Counting changes no decision: the run still is the golden run ...
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["fleet_rush_hour"]
    assert fleet_rush_hour() == golden
    # ... of 231 joins over the candidate pairs the pair-at-a-time walk examined.
    assert counts["joins"] == 231
    assert counts["examined"] == 204_214

    # A node side is expanded once per join, however many pairs it is in
    # (measured: 14 306 expansions, 61.9 per join).
    assert counts["expands"] == counts["distinct"]
    assert counts["expands"] <= 70 * counts["joins"]
    # Supporting-index entries are built once per partition-tree element,
    # not once per response (measured: 4 181 for the whole run's responses).
    assert counts["entries"] <= 22 * counts["joins"]
    # Everything the kernel calls, expansion plumbing included, per examined
    # pair (measured: 1.66; the pair predicate itself is a loop, not a call).
    assert counts["calls"] <= 2.0 * counts["examined"]
