"""Per-layer metrics: the traced laps' spans and counters, by module.

Everything here is measured from outside the program — spans around calls
into public methods (:mod:`bench.tracer`) and counters the program already
keeps, read at the same boundaries.  ``bench/README.md`` maps each metric
to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

from bench import adapter, metrics, tracer

#: Captured wire messages replayed through the codec after the run.
CODEC_SAMPLE = 400


def install_twin(recorder: tracer.Recorder, deployment,
                 extras: Dict[str, object]) -> None:
    """Shadow every remote ``execute`` with the in-process twin server.

    The twin holds the same dataset as the ``repro serve`` process, so its
    answer to the same ``(query, remainder, policy)`` must equal the
    decoded one — a difference is a failed operation — and its time is what
    the round trip would cost without the wire.  Runs after
    :func:`bench.tracer.install`, so the remote call is already a span and
    the twin's own span sits beside it, not inside it.
    """
    twin = deployment.twin
    mismatches: List[str] = extras.setdefault("twin_mismatches", [])
    captured: List[tuple] = extras.setdefault("captured", [])
    extras["root"] = (twin.root_id, twin.root_mbr)
    for session in deployment.sessions.values():
        handle = session.server
        remote = handle.execute

        def shadowed(query, remainder=None, policy=None, _remote=remote):
            response = _remote(query, remainder, policy)
            local = recorder.span("bench.twin", twin.execute,
                                  (query, remainder, policy))
            if _answer(local) != _answer(response):
                mismatches.append(f"op {recorder.op_id}: the decoded "
                                  f"response differs from the twin's")
            if len(captured) < CODEC_SAMPLE:
                captured.append((query, remainder, policy, response))
            return response

        handle.execute = shadowed


def _answer(response) -> tuple:
    """A response without its measured CPU time, in a canonical order.

    A snapshot's elements come out of a set of partition codes, so their
    order follows the string hash seed of the process that built them —
    the server's — and the client keys them by code anyway.
    """
    return (response.deliveries,
            [(snapshot.node_id, snapshot.level, snapshot.parent_id,
              sorted(snapshot.elements, key=lambda element: element.code))
             for snapshot in response.index_snapshots],
            response.accessed_node_count, response.examined_elements)


def _mean_us(call: Callable, items: Sequence) -> float:
    if not items:
        return 0.0
    start = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - start) / len(items) * 1e6


def _codec_replay(captured: Sequence[tuple], root_id: int,
                  root_mbr) -> Dict[str, float]:
    """Mean µs per message through the four public codec functions."""
    codec = adapter.codec
    requests = [codec.encode_query_request(q, r, p)
                for q, r, p, _ in captured]
    responses = [codec.encode_response(response, root_id, root_mbr)
                 for *_, response in captured]
    return {
        "net.codec.encode_request_us": _mean_us(
            lambda item: codec.encode_query_request(*item[:3]), captured),
        "net.codec.decode_request_us": _mean_us(
            codec.decode_query_request, requests),
        "net.codec.encode_response_us": _mean_us(
            lambda item: codec.encode_response(item[3], root_id, root_mbr),
            captured),
        "net.codec.decode_response_us": _mean_us(
            codec.decode_response, responses),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: Sequence, traced: Sequence, attempted: int,
              failed: int) -> Dict[str, float]:
    """Every per-layer metric of a traced run (0 where a layer is idle)."""
    totals: Dict[str, Dict[str, float]] = {}
    for lap in traced:
        for name, row in lap.recorder.totals().items():
            into = totals.setdefault(name, {"calls": 0, "ms": 0.0,
                                            "self_ms": 0.0})
            for key, value in row.items():
                into[key] += value

    def calls(*names: str) -> float:
        return float(sum(totals[n]["calls"] for n in names if n in totals))

    def busy(*names: str, kind: str = "ms") -> float:
        return sum(totals[n][kind] for n in names if n in totals)

    def counter(name: str) -> float:
        return sum(lap.counters.get(name, 0.0) for lap in traced)

    def phase(name: str) -> float:
        values = [lap.phases[name] for lap in plain + traced
                  if name in lap.phases]
        return statistics.median(values) if values else 0.0

    spans = [span for lap in traced for span in lap.recorder.finished()]
    costs = [cost for lap in traced for _, cost, _, _ in lap.queries]
    queries = len(costs)
    pooled = adapter.ClientResult(client_id=-1, group="all", model="APRO",
                                  costs=costs).summary()
    out: Dict[str, float] = {m.name: 0.0 for m in metrics.PER_LAYER}

    # End-to-end numbers that not every workload has: from the untraced laps.
    # Host-normalised like the end-to-end timings; the span times below are
    # wall clock, bench.host_slowness converts.
    joins = [s for lap in plain for s, cost, _ in lap.query_times()
             if metrics.query_kind(cost) == "join_miss"]
    updates = sorted(s for lap in plain for s in lap.update_times())
    out["join_miss_p50_ms"] = statistics.median(joins) * 1e3 if joins else 0.0
    if updates:
        out["update_p50_ms"] = statistics.median(updates) * 1e3
        out["update_p99_ms"] = metrics.percentile(updates, 0.99) * 1e3
    out["failed_frac"] = _ratio(failed, attempted)

    out["sim.sessions.process_calls"] = calls("session.process")
    out["sim.sessions.self_ms"] = busy("session.process", kind="self_ms")

    executes = ("server.execute", "router.execute", "remote.execute")
    out["core.client.execute_calls"] = calls("client.execute")
    out["core.client.execute_ms"] = busy("client.execute")
    out["core.client.complete_frac"] = 1.0 - _ratio(calls(*executes), queries)
    out["core.client.server_contact_rate"] = pooled["server_contact_rate"]
    out["core.client.false_miss_rate"] = pooled["false_miss_rate"]
    out["core.client.uplink_bytes_per_query"] = pooled["uplink_bytes"]

    inserts = ("cache.insert_node_snapshot", "cache.insert_object")
    out["core.cache.insert_calls"] = calls(*inserts)
    out["core.cache.insert_ms"] = busy(*inserts)
    for group in ("tight", "roomy"):
        out[f"core.cache.{group}.insert_ms"] = sum(
            (end - start) * 1e3 for name, start, end, _, _, tag, _ in spans
            if name in inserts and tag == group)
    for name in ("evictions", "rejected_inserts", "resident_items"):
        out[f"core.cache.{name}"] = counter(f"core.cache.{name}")

    # The executor: in process, per shard, or — behind the wire — the twin.
    served = [span for span in spans
              if span[0] in ("server.execute", "shard.server.execute")]
    for lap in traced if not served else ():
        # One round trip per op at most, so op_id pairs twin and remote.
        facts_of = {span[4]: span[6]
                    for span in lap.recorder.named("remote.execute")}
        served += [span[:6] + (facts_of.get(span[4]),)
                   for span in lap.recorder.named("bench.twin")]
    served = [span for span in served if span[6] is not None]
    out["core.server.execute_calls"] = float(len(served))
    out["core.server.execute_ms"] = sum((s[2] - s[1]) * 1e3 for s in served)
    for kind in ("range", "knn", "join"):
        of_kind = [s for s in served if s[6][0] == kind]
        out[f"core.server.{kind}_calls"] = float(len(of_kind))
        out[f"core.server.{kind}_ms"] = sum((s[2] - s[1]) * 1e3
                                            for s in of_kind)
    for position, name in ((1, "pages_per_query"), (2, "examined_per_query"),
                           (3, "snapshots_per_response"),
                           (4, "deliveries_per_response")):
        out[f"core.server.{name}"] = _ratio(
            sum(s[6][position] for s in served), len(served))

    out["rtree.bulk.build_ms"] = phase("rtree.bulk.build_ms")
    out["rtree.partition_tree.build_ms"] = phase("rtree.partition_tree.build_ms")
    out["rtree.store.logical_reads"] = counter("rtree.store.logical_reads")

    out["sharding.router.execute_calls"] = calls("router.execute")
    out["sharding.router.execute_ms"] = busy("router.execute")
    out["sharding.router.self_ms"] = busy("router.execute", kind="self_ms")
    out["sharding.router.shards_visited_per_query"] = _ratio(
        counter("shard.total_routed"), counter("shard.queries"))
    out["sharding.router.shards_pruned"] = counter("shard.total_pruned")
    out["sharding.router.build_ms"] = phase("sharding.router.build_ms")
    out["sharding.result_cache.hit_rate"] = _ratio(
        counter("shard.cache_hits"),
        counter("shard.cache_hits") + counter("shard.cache_misses"))
    out["sharding.result_cache.probes"] = counter("shard.cache_probes")
    out["sharding.result_cache.shards_skipped"] = counter("shard.total_skipped")

    out["updates.sync_calls"] = calls("consistency.sync")
    out["updates.sync_ms"] = busy("consistency.sync")
    out["updates.sync_bytes_per_query"] = _ratio(
        sum(c.sync_uplink_bytes + c.sync_downlink_bytes for c in costs),
        queries)
    out["updates.refreshed_items"] = float(sum(c.refreshed_items
                                               for c in costs))
    out["updates.invalidated_items"] = float(sum(c.invalidated_items
                                                 for c in costs))
    out["updates.apply_calls"] = calls("updater.apply")
    out["updates.apply_ms"] = busy("updater.apply")
    out["updates.apply_self_ms"] = busy("updater.apply", kind="self_ms")

    out["storage.wal.commit_calls"] = calls("store.commit_record")
    out["storage.wal.commit_ms"] = busy("store.commit_record")
    out["storage.wal.bytes_per_update"] = _ratio(
        counter("storage.wal.bytes_written"), counter("updates.applied"))
    for name in ("recover_ms", "pack_ms"):
        values = [lap.counters[f"storage.wal.{name}"] for lap in traced
                  if f"storage.wal.{name}" in lap.counters]
        out[f"storage.wal.{name}"] = (statistics.median(values)
                                      if values else 0.0)
    out["storage.wal.dead_pages_reclaimed"] = counter(
        "storage.wal.dead_pages_reclaimed")
    for name in ("file_reads", "buffer_hits", "file_writes"):
        out[f"storage.paged.{name}"] = counter(f"storage.paged.{name}")
    out["storage.paged.buffer_hit_rate"] = _ratio(
        out["storage.paged.buffer_hits"],
        out["storage.paged.buffer_hits"] + out["storage.paged.file_reads"])
    out["storage.paged.save_tree_ms"] = phase("storage.paged.save_tree_ms")
    out["storage.paged.store_bytes_per_object_byte"] = _ratio(
        counter("storage.paged.store_bytes_per_object_byte"), len(traced))

    trips = sorted((end - start) * 1e3 for name, start, end, *_ in spans
                   if name == "remote.execute")
    if trips:
        twins = [(end - start) * 1e3 for name, start, end, *_ in spans
                 if name == "bench.twin"]
        out["net.client.roundtrip_calls"] = float(len(trips))
        out["net.client.roundtrip_p50_ms"] = statistics.median(trips)
        out["net.client.roundtrip_p99_ms"] = metrics.percentile(trips, 0.99)
        out["net.client.overhead_ms_mean"] = (statistics.fmean(trips)
                                              - statistics.fmean(twins))
        out["net.client.retries"] = counter("net.client.retries")
        out["net.client.wire_bytes_per_query"] = _ratio(
            counter("net.client.wire_bytes"), queries)
        captured = [item for lap in traced
                    for item in lap.extras.get("captured", ())][:CODEC_SAMPLE]
        root = traced[0].extras["root"]
        out.update(_codec_replay(captured, *root))
        out["net.server.ledger_reconciled"] = float(
            counter("net.server.ledger_reconciled") == len(traced))
    out["net.server.spawn_ms"] = phase("net.server.spawn_ms")
    out["workload.trace_gen_ms"] = phase("workload.trace_gen_ms")
    out["datasets.build_ms"] = phase("datasets.build_ms")

    traced_steady = sum(lap.reference_steady_s for lap in traced)
    loop_ms = counter("bench.loop_ms")
    span_self_ms = sum(row["self_ms"] for row in totals.values())
    out["bench.trace_overhead_frac"] = (
        traced_steady / sum(lap.reference_steady_s for lap in plain)
        - 1.0)
    out["bench.self_ms_coverage"] = _ratio(span_self_ms, loop_ms)
    out["bench.loop_self_ms"] = loop_ms - span_self_ms
    out["bench.host_slowness"] = statistics.median(
        lap.slowness for lap in traced)
    out["bench.oracle_checked"] = counter("bench.oracle_checked")
    out["bench.oracle_mismatches"] = counter("bench.oracle_mismatches")
    out["bench.laps"] = float(len(traced))
    out["bench.query_samples"] = float(sum(len(lap.queries) for lap in plain))
    out["bench.update_samples"] = float(len(updates))
    return out
