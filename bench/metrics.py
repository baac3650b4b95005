"""The benchmark's schema: workloads, metrics, units, directions and bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written out;
``bench/test_bench_smoke.py`` pins the two to each other, so a metric is
added or re-bounded here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: How long one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 12


@dataclass(frozen=True)
class Metric:
    """One named number the benchmark prints."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only; per-layer metrics carry no bound).
    bound: float = 0.0
    #: A pure function of ``--seed`` and the code's decisions (bytes, hit
    #: rates, modelled time): bit-identical between two runs of one seed.
    exact: bool = False


#: name -> the one sentence that says why the workload exists.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("fleet_mixed",
     "canonical mixed traffic (range/kNN/join) on one in-process server: "
     "core.server dominates, joins own the wall clock"),
    ("client_local",
     "join-free, client-bound: a tight group evicts on almost every insert, "
     "a roomy group mostly hits, so cache and replacement costs show"),
    ("sharded_mixed",
     "fleet_mixed's fleet behind a 4-shard router with the result cache: "
     "the difference from fleet_mixed is the scatter-gather tier's price"),
    ("durable_churn",
     "updates beside reads on a WAL-backed store with a 32-page buffer: "
     "applier, sync handshake, WAL commit and paged reads work only here"),
    ("wire_uds",
     "a repro serve process behind a UNIX socket, join-free: codec, sockets "
     "and the asyncio dispatcher are about half of the wall"),
)

# Bounds come from ``python3 -m bench.spread`` (ten seeds per workload, see
# README "How the bounds were set").  The driver compares runs of different
# seeds, so even the three exact metrics, which repeat bit for bit under one
# seed, need a bound that covers how much they differ between seeds.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("query_p99_ms", "ms", "lower", 0.25),
    Metric("local_p50_ms", "ms", "lower", 0.25),
    Metric("range_miss_p50_ms", "ms", "lower", 0.25),
    Metric("knn_miss_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("downlink_bytes_per_query", "bytes", "lower", 0.25, exact=True),
    Metric("byte_hit_rate", "ratio", "higher", 0.25, exact=True),
    Metric("model_response_ms", "ms", "lower", 0.25, exact=True),
)


def _layer(prefix: str, *specs: Tuple[str, str, str]) -> List[Metric]:
    return [Metric(f"{prefix}.{name}" if prefix else name, unit, better)
            for name, unit, better in specs]


PER_LAYER: Tuple[Metric, ...] = tuple(
    # End-to-end in nature, but absent from some workloads (no joins on
    # client_local / wire_uds, updates only on durable_churn), and the
    # contract wants every end-to-end metric non-zero on every workload.
    _layer("",
           ("join_miss_p50_ms", "ms", "lower"),
           ("update_p50_ms", "ms", "lower"),
           ("update_p99_ms", "ms", "lower"),
           ("failed_frac", "ratio", "lower"))
    + _layer("sim.sessions",
             ("process_calls", "count", "lower"),
             ("self_ms", "ms", "lower"))
    + _layer("core.client",
             ("execute_calls", "count", "lower"),
             ("execute_ms", "ms", "lower"),
             ("complete_frac", "ratio", "higher"),
             ("server_contact_rate", "ratio", "lower"),
             ("false_miss_rate", "ratio", "lower"),
             ("uplink_bytes_per_query", "bytes", "lower"))
    + _layer("core.cache",
             ("insert_calls", "count", "lower"),
             ("insert_ms", "ms", "lower"),
             ("evictions", "count", "lower"),
             ("rejected_inserts", "count", "lower"),
             ("tight.insert_ms", "ms", "lower"),
             ("roomy.insert_ms", "ms", "lower"),
             ("resident_items", "count", "higher"))
    + _layer("core.server",
             ("execute_calls", "count", "lower"),
             ("execute_ms", "ms", "lower"),
             ("range_calls", "count", "lower"),
             ("range_ms", "ms", "lower"),
             ("knn_calls", "count", "lower"),
             ("knn_ms", "ms", "lower"),
             ("join_calls", "count", "lower"),
             ("join_ms", "ms", "lower"),
             ("pages_per_query", "pages", "lower"),
             ("examined_per_query", "count", "lower"),
             ("snapshots_per_response", "count", "lower"),
             ("deliveries_per_response", "count", "lower"))
    + _layer("rtree",
             ("bulk.build_ms", "ms", "lower"),
             ("partition_tree.build_ms", "ms", "lower"),
             ("store.logical_reads", "pages", "lower"))
    + _layer("sharding.router",
             ("execute_calls", "count", "lower"),
             ("execute_ms", "ms", "lower"),
             ("self_ms", "ms", "lower"),
             ("shards_visited_per_query", "count", "lower"),
             ("shards_pruned", "count", "higher"),
             ("build_ms", "ms", "lower"))
    + _layer("sharding.result_cache",
             ("hit_rate", "ratio", "higher"),
             ("probes", "count", "lower"),
             ("shards_skipped", "count", "higher"))
    + _layer("updates",
             ("sync_calls", "count", "lower"),
             ("sync_ms", "ms", "lower"),
             ("sync_bytes_per_query", "bytes", "lower"),
             ("refreshed_items", "count", "lower"),
             ("invalidated_items", "count", "lower"),
             ("apply_calls", "count", "lower"),
             ("apply_ms", "ms", "lower"),
             ("apply_self_ms", "ms", "lower"))
    + _layer("storage.wal",
             ("commit_calls", "count", "lower"),
             ("commit_ms", "ms", "lower"),
             ("bytes_per_update", "bytes", "lower"),
             ("recover_ms", "ms", "lower"),
             ("pack_ms", "ms", "lower"),
             ("dead_pages_reclaimed", "pages", "higher"))
    + _layer("storage.paged",
             ("file_reads", "count", "lower"),
             ("buffer_hits", "count", "higher"),
             ("buffer_hit_rate", "ratio", "higher"),
             ("file_writes", "count", "lower"),
             ("save_tree_ms", "ms", "lower"),
             ("store_bytes_per_object_byte", "ratio", "lower"))
    + _layer("net.client",
             ("roundtrip_calls", "count", "lower"),
             ("roundtrip_p50_ms", "ms", "lower"),
             ("roundtrip_p99_ms", "ms", "lower"),
             ("retries", "count", "lower"),
             ("wire_bytes_per_query", "bytes", "lower"),
             ("overhead_ms_mean", "ms", "lower"))
    + _layer("net.codec",
             ("encode_request_us", "us", "lower"),
             ("decode_request_us", "us", "lower"),
             ("encode_response_us", "us", "lower"),
             ("decode_response_us", "us", "lower"))
    + _layer("net.server",
             ("spawn_ms", "ms", "lower"),
             ("ledger_reconciled", "count", "higher"))
    + _layer("workload", ("trace_gen_ms", "ms", "lower"))
    + _layer("datasets", ("build_ms", "ms", "lower"))
    + _layer("bench",
             ("trace_overhead_frac", "ratio", "lower"),
             ("self_ms_coverage", "ratio", "higher"),
             ("loop_self_ms", "ms", "lower"),
             ("host_slowness", "ratio", "lower"),
             ("oracle_checked", "count", "higher"),
             ("oracle_mismatches", "count", "lower"),
             ("laps", "count", "higher"),
             ("query_samples", "count", "higher"),
             ("update_samples", "count", "higher")))


def benchmark_json() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def line(name: str, value: float) -> str:
    """One printed metric: name, value, unit."""
    return f"{name:<44} {value:>16.6g} {UNITS[name]}"


def workload_names() -> List[str]:
    """The five workload names, in table order."""
    return [name for name, _ in WORKLOADS]


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def query_kind(cost: object) -> str:
    """``local`` when the query itself needed no round trip, else ``<type>_miss``.

    ``contacted_server`` will not do: under the versioned protocol the
    pre-query validation handshake sets it on every query.  The query's own
    request is the uplink left after the handshake's share.
    """
    if cost.uplink_bytes == cost.sync_uplink_bytes:
        return "local"
    return f"{cost.query_type}_miss"
