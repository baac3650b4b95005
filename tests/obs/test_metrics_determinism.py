"""The observability layer's determinism contract on real fleet runs.

Two identical seeded runs must produce byte-identical deterministic metric
blobs and trace exports — across replacement policies and across the
in-process and loopback-socket deployments — and switching the
instrumentation on must leave every existing fingerprint (per-group
summaries, final cache digests) untouched.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import instrument as obs
from repro.obs.instrument import activated
from repro.obs.trace import Recorder, spans_to_jsonl
from repro.sim.config import SimulationConfig
from repro.sim.fleet import default_fleet, run_fleet
from tests.obs.test_registry import deterministic_blob


def _fleet(policy="GRD3", queries=8, objects=600, clients=4, transport=None,
           shards=None, dynamic=False):
    base = SimulationConfig.scaled(query_count=queries, object_count=objects
                                   ).with_overrides(replacement_policy=policy)
    fleet = default_fleet(clients, base=base)
    if transport is not None:
        fleet = dataclasses.replace(fleet, transport=transport)
    if shards is not None:
        fleet = dataclasses.replace(fleet, shards=shards, partitioner="grid")
    if dynamic:
        fleet = dataclasses.replace(fleet, update_rate=0.05,
                                    consistency="versioned")
    return fleet


def _instrumented_run(**kwargs):
    recorder = Recorder()
    with activated(recorder):
        result = run_fleet(_fleet(**kwargs))
    return recorder, result


# --------------------------------------------------------------------------- #
# byte-identical blobs across seeded runs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ["LRU", "MRU", "FAR", "GRD1", "GRD3"])
def test_seeded_runs_share_deterministic_blob(policy):
    first, _ = _instrumented_run(policy=policy)
    second, _ = _instrumented_run(policy=policy)
    blob = deterministic_blob(first.registry)
    assert blob == deterministic_blob(second.registry)
    assert blob != b"{}"  # the run actually fed the registry


def test_seeded_runs_share_trace_export():
    first, _ = _instrumented_run()
    second, _ = _instrumented_run()
    export = spans_to_jsonl(first.roots)
    assert export == spans_to_jsonl(second.roots)
    assert export.count("\n") == len(first.roots)


def test_uds_runs_share_deterministic_blob():
    first, _ = _instrumented_run(transport="uds")
    second, _ = _instrumented_run(transport="uds")
    assert deterministic_blob(first.registry) \
        == deterministic_blob(second.registry)


def test_sharded_dynamic_runs_share_deterministic_blob():
    first, _ = _instrumented_run(shards=3, dynamic=True)
    second, _ = _instrumented_run(shards=3, dynamic=True)
    blob = deterministic_blob(first.registry)
    assert blob == deterministic_blob(second.registry)
    assert b"repro_router_shards_visited_total" in blob
    assert b"repro_updates_total" in blob


# --------------------------------------------------------------------------- #
# the instrumentation changes no result
# --------------------------------------------------------------------------- #
def _fingerprints(result):
    digests = [(client.final_cache_digest, client.final_cache_used_bytes)
               for client in result.clients]
    return result.deterministic_group_summary(), digests


@pytest.mark.parametrize("kwargs", [
    {},
    {"policy": "LRU"},
    {"shards": 3, "dynamic": True},
    {"transport": "uds"},
], ids=["static", "lru", "sharded-dynamic", "uds"])
def test_enabled_run_matches_disabled_fingerprints(kwargs):
    plain = run_fleet(_fleet(**kwargs))
    _, instrumented = _instrumented_run(**kwargs)
    assert _fingerprints(plain) == _fingerprints(instrumented)


def test_disabled_path_records_nothing():
    assert obs.ENABLED is False
    run_fleet(_fleet())
    recorder = Recorder()  # never activated
    assert recorder.roots == []
    snapshot = recorder.registry.snapshot()
    # Only the recorder's own (empty) event-counter family exists.
    assert list(snapshot["deterministic"]) == ["repro_trace_events_total"]
    assert snapshot["deterministic"]["repro_trace_events_total"]["series"] \
        == {}
    assert snapshot["wall_clock"] == {}


def test_guard_is_lowered_after_an_instrumented_run():
    _instrumented_run()
    assert obs.ENABLED is False
