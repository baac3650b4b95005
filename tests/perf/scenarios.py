"""Generators of the golden behaviour fingerprints.

Every scenario is a plain function ``run() -> fingerprint`` where the
fingerprint is a flat ``{name: float}`` dict of seed-deterministic metrics
(byte counts, hit rates, modelled response time, routing and page
counters, equivalence bits) at one fixed size.  Nothing here reads a
clock: wall time is measured by ``bench/`` and by nothing else.

``golden_fingerprints.json`` beside this file holds the committed output of
every scenario; ``test_golden.py`` recomputes each one and compares it
exactly, so a change that alters any eviction decision, query result or
routing verdict turns tier-1 red.  After a change that is *meant* to alter
decisions, regenerate the file from the repo root with::

    PYTHONPATH=src python -m tests.perf.scenarios
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import tempfile
from typing import Callable, Dict, List, Tuple

from repro.geometry import Rect
from repro.sharding import PartitionResultCache, build_sharded_state
from repro.sim.config import SimulationConfig
from repro.sim.fleet import default_fleet, run_fleet
from repro.sim.metrics import DETERMINISTIC_METRICS
from repro.sim.restart import resume_fleet, run_fleet_interrupted
from repro.sim.runner import (
    build_tree, generate_trace, replay_store_trace, run_comparison,
)
from repro.storage import load_tree, pack, save_tree, wal_summary
from repro.workload.queries import RangeQuery


Fingerprint = Dict[str, float]

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_fingerprints.json")

#: The dataset size the single-client and 24-client scenarios share.
_OBJECTS = 4_000

_FINGERPRINT_METRICS = ("uplink_bytes", "downlink_bytes", "cache_hit_rate",
                        "byte_hit_rate", "false_miss_rate", "response_time")


def _round(value: float) -> float:
    """Round to a stable precision so JSON round-trips compare exactly."""
    return round(float(value), 9)


def _group_metrics(result, prefix: str = "") -> Fingerprint:
    """The deterministic per-group metrics of a fleet run, flattened."""
    return {f"{prefix}{group}.{metric}": _round(summary[metric])
            for group, summary
            in sorted(result.deterministic_group_summary().items())
            for metric in DETERMINISTIC_METRICS}


def fig6_models() -> Fingerprint:
    """Figure-6-style comparison: PAG vs SEM vs APRO on one DIR trace."""
    config = SimulationConfig.scaled(
        query_count=250, object_count=_OBJECTS,
    ).with_overrides(mobility_model="DIR", cache_fraction=0.01)
    results = run_comparison(config, models=("PAG", "SEM", "APRO"))
    fingerprint: Fingerprint = {}
    for model, result in results.items():
        summary = result.summary()
        for metric in _FINGERPRINT_METRICS:
            fingerprint[f"{model}.{metric}"] = _round(summary[metric])
    return fingerprint


def fleet_rush_hour() -> Fingerprint:
    """The default heterogeneous fleet against one shared server."""
    base = SimulationConfig.scaled(query_count=40, object_count=_OBJECTS)
    result = run_fleet(default_fleet(24, base=base))
    fingerprint = _group_metrics(result)
    load = result.server_load()
    fingerprint["server.total_queries"] = float(load.total_queries)
    fingerprint["server.server_queries"] = float(load.server_queries)
    fingerprint["server.uplink_bytes_total"] = _round(load.uplink_bytes_total)
    fingerprint["server.downlink_bytes_total"] = _round(load.downlink_bytes_total)
    return fingerprint


def cache_pressure() -> Fingerprint:
    """APRO under shrinking cache budgets — an eviction-heavy workload.

    Small caches force the replacement policy to run on nearly every
    insert, so every GRD victim choice feeds the fingerprint.
    """
    fingerprint: Fingerprint = {}
    for fraction in (0.002, 0.005, 0.01, 0.02):
        config = SimulationConfig.scaled(
            query_count=150, object_count=3_000,
        ).with_overrides(cache_fraction=fraction)
        summary = run_comparison(config, models=("APRO",))["APRO"].summary()
        for metric in _FINGERPRINT_METRICS:
            fingerprint[f"c{fraction}.{metric}"] = _round(summary[metric])
    return fingerprint


def storage_paged() -> Fingerprint:
    """APRO served from the disk-backed page store vs the in-memory tree.

    Checkpoints the server tree into an ``.rpro`` file, replays one APRO
    trace against both backends and fingerprints the deterministic metrics
    of the file-backed run, the logical page-read total (backend-invariant
    by construction), the physical file-read count (deterministic: fixed
    LRU buffer + deterministic access sequence) and an explicit
    ``backend_match`` bit asserting the two runs agreed query for query.
    """
    config = SimulationConfig.scaled(
        query_count=120, object_count=3_000).with_overrides(cache_fraction=0.01)
    trace = generate_trace(config)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "server.rpro")
        tree = build_tree(config)
        save_tree(tree, store_path)
        # The in-memory replay reuses the tree just checkpointed (it is
        # deterministic from config); the file replay uses a deliberately
        # small 16-page buffer so the LRU is exercised and real query-time
        # file reads appear.
        memory_run, memory_reads, _ = replay_store_trace(config, trace, tree=tree)
        file_run, file_reads, io_stats = replay_store_trace(
            config, trace, store_path=store_path, store_buffer_pages=16)

    fingerprint: Fingerprint = {
        "backend_match": 1.0 if (memory_run == file_run
                                 and memory_reads == file_reads) else 0.0,
        "logical_page_reads": float(file_reads),
        "file_reads": float(io_stats["file_reads"]),
        "buffer_hits": float(io_stats["buffer_hits"]),
    }
    for column, metric in enumerate(
            ("uplink_bytes", "downlink_bytes", "response_time"), start=1):
        fingerprint[f"total.{metric}"] = _round(
            sum(query[column] for query in file_run))
    return fingerprint


def warm_restart() -> Fingerprint:
    """A fleet killed mid-run and resumed from cache snapshots.

    Runs the default fleet twice — uninterrupted, and halted halfway then
    resumed via :mod:`repro.sim.restart` — and fingerprints the resumed
    run's deterministic group metrics plus a ``digest_match`` bit asserting
    every client's final cache contents matched the uninterrupted run.
    """
    base = SimulationConfig.scaled(query_count=20, object_count=_OBJECTS)
    fleet = default_fleet(8, base=base)
    uninterrupted = run_fleet(fleet)
    total_events = sum(len(c.costs) for c in uninterrupted.clients)
    with tempfile.TemporaryDirectory() as tmp:
        run_fleet_interrupted(fleet, halt_after=total_events // 2, directory=tmp)
        resumed, _ = resume_fleet(tmp)
    digests_match = all(
        full.final_cache_digest == res.final_cache_digest
        for full, res in zip(uninterrupted.clients, resumed.clients))
    fingerprint: Fingerprint = {"digest_match": 1.0 if digests_match else 0.0}
    fingerprint.update(_group_metrics(resumed))
    return fingerprint


def update_churn() -> Fingerprint:
    """A dynamic fleet under all three cache-consistency protocols.

    One shared server mutates mid-run (Zipf-skewed insert / delete /
    modify stream); the same fleet runs under ``versioned``, ``ttl`` and
    ``none`` consistency.  The fingerprint captures, per mode, the
    deterministic group metrics plus the protocol's own counters (applied
    updates, refreshes, invalidations and handshake bytes), so a change in
    either the mutation machinery or the protocols' verdicts shows up as a
    fingerprint mismatch.
    """
    base = SimulationConfig.scaled(query_count=25, object_count=2_000)
    static = default_fleet(8, base=base)
    fingerprint: Fingerprint = {}
    for mode in ("versioned", "ttl", "none"):
        result = run_fleet(dataclasses.replace(static, update_rate=0.05,
                                               consistency=mode))
        fingerprint.update(_group_metrics(result, prefix=f"{mode}."))
        costs = [cost for client in result.clients for cost in client.costs]
        fingerprint[f"{mode}.applied_updates"] = float(
            result.update_summary["applied"])
        fingerprint[f"{mode}.live_objects"] = float(
            result.update_summary["live_objects"])
        fingerprint[f"{mode}.refreshed_items"] = float(
            sum(c.refreshed_items for c in costs))
        fingerprint[f"{mode}.invalidated_items"] = float(
            sum(c.invalidated_items for c in costs))
        fingerprint[f"{mode}.sync_uplink_bytes"] = float(
            sum(c.sync_uplink_bytes for c in costs))
        fingerprint[f"{mode}.sync_downlink_bytes"] = float(
            sum(c.sync_downlink_bytes for c in costs))
    return fingerprint


def sharded_fleet() -> Fingerprint:
    """A grid-sharded fleet vs the single-server reference run.

    The same fleet runs unsharded and against four grid shards behind the
    scatter-gather router.  The fingerprint carries an explicit
    ``results_match`` bit (per-query result bytes of every client pinned to
    the single-server reference — the subsystem's equivalence contract),
    the sharded run's deterministic group metrics, and the router's
    per-shard routing counters, so a change in the partitioner, the
    pruning rules or the merge logic shows up as a fingerprint mismatch.
    """
    shards = 4
    base = SimulationConfig.scaled(query_count=25, object_count=3_000)
    fleet = default_fleet(10, base=base)
    reference = run_fleet(fleet)
    sharded = run_fleet(dataclasses.replace(
        fleet, shards=shards, partitioner="grid"))
    results_match = all(
        [cost.result_bytes for cost in ref_client.costs]
        == [cost.result_bytes for cost in sharded_client.costs]
        for ref_client, sharded_client in zip(reference.clients,
                                              sharded.clients))
    fingerprint: Fingerprint = {
        "results_match": 1.0 if results_match else 0.0,
        "shards": float(shards),
    }
    fingerprint.update(_group_metrics(sharded))
    for row in sharded.shard_rows():
        shard = int(row["shard"])
        fingerprint[f"shard{shard}.queries_routed"] = row["queries_routed"]
        fingerprint[f"shard{shard}.shards_pruned"] = row["shards_pruned"]
        fingerprint[f"shard{shard}.pages_read"] = row["pages_read"]
    return fingerprint


def durable_updates() -> Fingerprint:
    """A dynamic fleet committing every update batch through the WAL.

    Runs the same dynamic fleet twice against a disk checkpoint — once
    copy-on-write (the in-memory overlay reference) and once durable
    (every batch fsync'd to the write-ahead log) — then recovers the
    store and packs it.  The fingerprint pins the durable run's
    deterministic group metrics, a ``durable_match`` bit asserting the
    WAL never changed a decision, the commit/record counts, the
    recovered store's committed version and the pack reclamation
    numbers: a change anywhere on the durable write path (encoding,
    commit protocol, recovery, pack) shows up as a mismatch.
    """
    base = SimulationConfig.scaled(query_count=20, object_count=2_000)
    fleet = dataclasses.replace(default_fleet(8, base=base),
                                update_rate=0.3, consistency="versioned")
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "server.rpro")
        save_tree(build_tree(base), store_path)
        reference = run_fleet(fleet, store_path=store_path)
        durable = run_fleet(fleet, store_path=store_path, durable=True)
        summary = wal_summary(store_path)
        recovered = load_tree(store_path, recover=True)
        live_objects = len(recovered.objects)
        recovered.store.close()
        packed = pack(store_path)

    def _decision_trace(client) -> List[Tuple[float, float, float]]:
        # Deterministic per-query fields only — QueryCost also carries
        # measured CPU seconds, which differ between any two runs.
        return [(cost.downlink_bytes, cost.result_bytes,
                 cost.server_page_reads) for cost in client.costs]

    durable_match = all(
        _decision_trace(ref) == _decision_trace(dur)
        and ref.final_cache_digest == dur.final_cache_digest
        for ref, dur in zip(reference.clients, durable.clients))
    fingerprint: Fingerprint = {
        "durable_match": 1.0 if durable_match else 0.0,
        "wal_commits": float(durable.update_summary["wal_commits"]),
        "wal_records": float(summary["records"]),
        "committed_version": float(summary["committed_version"]),
        "recovered_objects": float(live_objects),
        "dead_pages_reclaimed": float(packed["dead_pages_reclaimed"]),
        "pages_after_pack": float(packed["pages_after"]),
    }
    fingerprint.update(_group_metrics(durable))
    return fingerprint


def hotspot_cache() -> Fingerprint:
    """Zipf-skewed hotspot windows: partition-result cache vs plain scatter.

    A seed-deterministic stream of repeated range windows — drawn
    Zipf-skewed from a handful of hotspot sites with small jitter —
    replays cold (no client cache, every query a full virtual-root
    scatter) against two identical sharded deployments: one plain, one
    with the router-level partition-result cache attached.  The
    fingerprint pins a ``results_match`` bit (the cache's equivalence
    contract: identical per-query result id sets) and the deterministic
    cache-health counters (``shards_skipped``, hit rate, probes, per-run
    page reads).
    """
    query_count, shards = 300, 6
    base = SimulationConfig.scaled(query_count=query_count,
                                   object_count=_OBJECTS)
    rng = random.Random(4099)
    sites = [(rng.random(), rng.random()) for _ in range(12)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(sites))]
    queries: List[RangeQuery] = []
    half, jitter = 0.015, 0.005
    for _ in range(query_count):
        site_x, site_y = rng.choices(sites, weights)[0]
        x = min(1.0, max(0.0, site_x + rng.uniform(-jitter, jitter)))
        y = min(1.0, max(0.0, site_y + rng.uniform(-jitter, jitter)))
        queries.append(RangeQuery(window=Rect(
            max(0.0, x - half), max(0.0, y - half),
            min(1.0, x + half), min(1.0, y + half))))

    def replay(with_cache: bool):
        state = build_sharded_state(base, shards, "grid")
        try:
            if with_cache:
                state.router.attach_result_cache(PartitionResultCache(grid=48))
            results = [sorted(state.router.execute(query).result_object_ids())
                       for query in queries]
            return results, state.shard_summary("grid")
        finally:
            state.close()

    off_results, off_summary = replay(with_cache=False)
    on_results, on_summary = replay(with_cache=True)
    consults = on_summary["cache_hits"] + on_summary["cache_misses"]
    return {
        "results_match": 1.0 if off_results == on_results else 0.0,
        "queries": float(len(queries)),
        "shards": float(shards),
        "shards_skipped": float(on_summary["total_skipped"]),
        "cache_hit_rate": _round(on_summary["cache_hits"] / consults)
        if consults else 0.0,
        "cache_probes": float(on_summary["cache_probes"]),
        "pages_read_off": float(off_summary["total_pages_read"]),
        "pages_read_on": float(on_summary["total_pages_read"]),
    }


SCENARIOS: Dict[str, Callable[[], Fingerprint]] = {
    "fig6_models": fig6_models,
    "fleet_rush_hour": fleet_rush_hour,
    "cache_pressure": cache_pressure,
    "storage_paged": storage_paged,
    "warm_restart": warm_restart,
    "update_churn": update_churn,
    "sharded_fleet": sharded_fleet,
    "durable_updates": durable_updates,
    "hotspot_cache": hotspot_cache,
}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: scenario() for name, scenario in SCENARIOS.items()},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(SCENARIOS)} fingerprints to {GOLDEN_PATH}")
