"""One run of one workload: laps of setup -> replay -> checks until time is up.

A run replays *laps* (see :mod:`bench.workloads`) back to back.  Each lap
is timed in three separate phases: **setup** (dataset, index, store or
server process, traces, cold sessions, then ``gc.collect()``), **steady
state** (the closed replay loop: one generator thread, a client's next
query issued only after its previous answer, events in the fleet's arrival
order, GC left on as users run it) and **teardown checks**.  Timings are
pooled over the laps; ``setup_s`` is the median lap's setup.

The first :data:`CERT_LAPS` laps always run, whatever ``--seconds`` says,
and the three *exact* metrics (bytes per query, byte hit rate, modelled
response time) are computed from them alone — so they are bit-identical
between two runs of one seed however many more laps the clock allowed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from bench import adapter, layers, metrics, tracer, workloads

#: Laps every run completes; the exact metrics are computed from these.
CERT_LAPS = 4
#: Trace mode replays each lap twice (untraced, then traced); pairs every
#: traced run completes.
MIN_PAIRS = 2
#: Queries per untraced lap checked against the linear-scan oracle.
UNTRACED_ORACLE_SAMPLES = 32
#: The traced lap checks a seeded 1-in-10 sample, capped so that the
#: O(objects) oracle does not outweigh a client-bound lap.
TRACED_ORACLE_RATE = 10
TRACED_ORACLE_CAP = 200

#: Seconds of replay between two host-speed probes.
PROBE_INTERVAL_S = 0.1
#: What one :func:`host_probe` takes on the defining container when nothing
#: else runs on the host.  Only fixes the unit of the normalised timings.
REFERENCE_PROBE_S = 0.0046

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def host_probe() -> float:
    """Seconds a fixed, workload-shaped piece of pure Python takes right now.

    Dict lookups, small tuples, float arithmetic and a sort — what the
    program spends its time on — so a host that slows the program slows the
    probe by the same factor.
    """
    start = time.perf_counter()
    table: Dict[int, tuple] = {}
    for index in range(18000):
        low = (index % 97) * 0.01
        rect = (low, low * 0.5, low + 0.3, low * 0.5 + 0.2)
        known = table.get((index * 7919) % 1021)
        if known is None or known[2] < rect[2]:
            table[(index * 7919) % 1021] = rect
    sum(rect[2] - rect[0] for rect in sorted(table.values()))
    return time.perf_counter() - start


@dataclasses.dataclass
class Lap:
    """What one lap measured and checked."""

    traced: bool
    #: The replay cut at every probe: (seconds on the clock, host slowness),
    #: slowness being the mean of the probes at the segment's two ends over
    #: :data:`REFERENCE_PROBE_S`.
    segments: List[Tuple[float, float]]
    #: (wall seconds, QueryCost, client group, segment) per answered query.
    queries: List[Tuple[float, object, str, int]]
    #: (wall seconds, segment) per applied update event.
    updates: List[Tuple[float, int]]
    attempted: int
    failures: List[str]
    #: Per-group seed-deterministic summary + final cache digests.
    signature: Dict[str, object]
    counters: Dict[str, float]
    recorder: Optional[tracer.Recorder] = None
    # What :func:`run_lap` knows and the replay loop does not.
    index: int = 0
    setup_s: float = 0.0
    #: Median :func:`host_probe` while the lap was set up.
    setup_probe_s: float = 0.0
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    extras: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def steady_s(self) -> float:
        """Wall seconds of replay on the clock (probes and oracle excluded)."""
        return sum(seconds for seconds, _ in self.segments)

    @property
    def reference_steady_s(self) -> float:
        """:attr:`steady_s` as it would have read on the reference host."""
        return sum(seconds / slowness for seconds, slowness in self.segments)

    @property
    def slowness(self) -> float:
        """How slow the host was during the replay (1.0 = reference host)."""
        return self.steady_s / self.reference_steady_s

    def query_times(self, normalise: bool = True
                    ) -> List[Tuple[float, object, str]]:
        """(seconds, QueryCost, group) per query; with ``normalise`` the
        seconds are divided by the slowness of the query's segment."""
        return [(seconds / self.segments[segment][1] if normalise else seconds,
                 cost, group)
                for seconds, cost, group, segment in self.queries]

    def update_times(self, normalise: bool = True) -> List[float]:
        """Seconds per update event, normalised like :meth:`query_times`."""
        return [seconds / self.segments[segment][1] if normalise else seconds
                for seconds, segment in self.updates]


# --------------------------------------------------------------------------- #
# one lap
# --------------------------------------------------------------------------- #
def run_lap(workload: str, seed: int, lap: int, scale: str,
            traced: bool = False) -> Lap:
    """Build lap ``lap`` cold, replay it, check it, tear it down."""
    fleet = workloads.lap_fleet(workload, seed, lap, scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    # A relative path: a UNIX socket path is limited to ~100 bytes and the
    # checkout may sit deep in the filesystem.
    workdir = os.path.relpath(tempfile.mkdtemp(prefix="lap-", dir=OUT_DIR))
    setup_probes = [host_probe() for _ in range(3)]
    setup_start = time.perf_counter()
    deployment = workloads.build(workload, fleet, workdir)
    try:
        recorder = None
        extras: Dict[str, object] = {}
        if traced:
            recorder = tracer.Recorder()
            tracer.install(recorder, deployment)
            if deployment.twin is not None:
                layers.install_twin(recorder, deployment, extras)
        samples = _oracle_samples(deployment.events, seed, lap, traced)
        reads_before = sum(tree.store.reads for tree in deployment.trees)
        gc.collect()
        setup_s = time.perf_counter() - setup_start
        setup_probes += [host_probe() for _ in range(3)]
        result = _replay(deployment, recorder, samples)
        result.index, result.setup_s = lap, setup_s
        result.setup_probe_s = statistics.median(setup_probes)
        result.phases = deployment.phases
        result.extras = extras
        result.failures.extend(extras.get("twin_mismatches", ()))
        result.counters["rtree.store.logical_reads"] = (
            sum(tree.store.reads for tree in deployment.trees) - reads_before)
        _teardown_checks(deployment, result)
        return result
    finally:
        deployment.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _oracle_samples(events: Sequence[Tuple], seed: int, lap: int,
                    traced: bool) -> frozenset:
    """Indices of the query events whose result set the oracle re-derives."""
    query_indices = [index for index, event in enumerate(events)
                     if event[0] == "query"]
    if traced:
        wanted = min(TRACED_ORACLE_CAP,
                     len(query_indices) // TRACED_ORACLE_RATE)
    else:
        wanted = UNTRACED_ORACLE_SAMPLES
    rng = random.Random(workloads.subseed(seed, lap, "oracle"))
    return frozenset(rng.sample(query_indices,
                                min(wanted, len(query_indices))))


def _replay(deployment: workloads.Deployment,
            recorder: Optional[tracer.Recorder],
            samples: frozenset) -> Lap:
    """The steady-state loop.  A failed operation is counted and skipped."""
    sessions, updater = deployment.sessions, deployment.updater
    groups = {spec.client_id: spec.group for spec in deployment.specs}
    results = {spec.client_id: adapter.ClientResult(
        client_id=spec.client_id, group=spec.group, model=spec.model)
        for spec in deployment.specs}
    queries: List[Tuple[float, object, str, int]] = []
    updates: List[Tuple[float, int]] = []
    failures: List[str] = []
    checked = mismatched = 0
    clock = time.perf_counter

    def probe() -> float:
        return (host_probe() if recorder is None
                else recorder.span("bench.probe", host_probe))

    # The replay is cut into segments at every probe; a segment's seconds
    # exclude the probes and the oracle, which run off the clock.
    probes = [probe()]
    cuts: List[float] = []
    off_clock = 0.0
    loop_start = segment_start = clock()
    for index, (kind, arrival, client_id, payload) in enumerate(
            deployment.events):
        if recorder is not None:
            recorder.op_id = index
        if clock() - segment_start - off_clock > PROBE_INTERVAL_S:
            cuts.append(clock() - segment_start - off_clock)
            probes.append(probe())
            off_clock = 0.0
            segment_start = clock()
        try:
            if kind == "update":
                start = clock()
                updater.apply(payload)
                updates.append((clock() - start, len(cuts)))
                continue
            session = sessions[client_id]
            start = clock()
            cost = session.process(payload)
            end = clock()
        except Exception as error:  # counted as a failed operation
            if not failures:
                traceback.print_exc(file=sys.stderr)
            failures.append(f"event {index} ({kind}): "
                            f"{type(error).__name__}: {error}")
            continue
        results[client_id].record(cost, arrival)
        queries.append((end - start, cost, groups[client_id], len(cuts)))
        if index in samples:
            # The oracle scans the live object table right now (updates
            # may change it later).
            check_start = clock()
            expected = _oracle(recorder, deployment, payload.query)
            checked += 1
            if sorted(session.last_result_ids) != expected:
                mismatched += 1
                failures.append(f"event {index}: result set differs from "
                                f"the linear-scan oracle")
            off_clock += clock() - check_start
    cuts.append(clock() - segment_start - off_clock)
    loop_seconds = clock() - loop_start
    probes.append(probe())
    segments = [(seconds, (before + after) / 2 / REFERENCE_PROBE_S)
                for seconds, before, after in zip(cuts, probes, probes[1:])]
    fleet_result = adapter.FleetResult(clients=list(results.values()))
    signature = {
        "groups": fleet_result.deterministic_group_summary(),
        "digests": {str(client_id): session.cache.content_digest()
                    for client_id, session in sorted(sessions.items())},
    }
    counters = {
        "bench.oracle_checked": float(checked),
        "bench.oracle_mismatches": float(mismatched),
        "bench.loop_ms": loop_seconds * 1e3,
        "core.cache.evictions": float(sum(
            s.cache.evictions for s in sessions.values())),
        "core.cache.rejected_inserts": float(sum(
            s.cache.rejected_inserts for s in sessions.values())),
        "core.cache.resident_items": float(sum(
            len(s.cache) for s in sessions.values())),
    }
    return Lap(traced=recorder is not None, segments=segments,
               queries=queries, updates=updates,
               attempted=len(deployment.events), failures=failures,
               signature=signature, counters=counters, recorder=recorder)


def _oracle(recorder: Optional[tracer.Recorder],
            deployment: workloads.Deployment, query: object) -> List[int]:
    arguments = (deployment.tree.objects, query)
    if recorder is not None:
        return recorder.span("bench.oracle", adapter.oracle_results, arguments)
    return adapter.oracle_results(*arguments)


def _check(lap: Lap, passed: bool, message: str) -> None:
    """One teardown check: an attempted operation that may fail."""
    lap.attempted += 1
    if not passed:
        lap.failures.append(message)


def _teardown_checks(deployment: workloads.Deployment, lap: Lap) -> None:
    """Ledgers, clean server exit, crash-recovery equality; read counters."""
    counters = lap.counters
    if deployment.sharded is not None:
        summary = deployment.sharded.shard_summary(deployment.fleet.partitioner)
        for key in ("queries", "total_routed", "total_pruned",
                    "total_skipped", "cache_hits", "cache_misses",
                    "cache_probes"):
            counters[f"shard.{key}"] = float(summary[key])
    if deployment.server_process is not None:
        reconciled = True
        wire_bytes = retries = 0
        for session in deployment.sessions.values():
            handle = session.server
            handle.close()
            ledger = handle.server_ledger()
            reconciled &= (
                ledger["uplink_bytes"] + ledger["sync_uplink_bytes"]
                == handle.channel.uplink_bytes_total
                and ledger["downlink_bytes"] + ledger["sync_downlink_bytes"]
                == handle.channel.downlink_bytes_total)
            wire_bytes += sum(handle.pool.wire_totals())
            retries += handle.retries
        _check(lap, reconciled, "server ledgers do not reconcile with the "
                                "clients' channel totals")
        exit_code = workloads.stop_server(deployment.server_process)
        _check(lap, exit_code == 0,
               f"repro serve exited with code {exit_code}")
        counters["net.server.ledger_reconciled"] = float(reconciled)
        counters["net.client.wire_bytes"] = float(wire_bytes)
        counters["net.client.retries"] = float(retries)
    if deployment.updater is not None:
        store = deployment.tree.store
        counters["storage.wal.bytes_written"] = float(store.wal.bytes_written)
        counters["updates.applied"] = float(
            deployment.updater.summary()["applied"])
        for key, value in store.io_stats().items():
            counters[f"storage.paged.{key}"] = float(value)
        live = dict(deployment.tree.objects)
        store.close()
        path = deployment.store_path
        recover_ms = []
        for _ in range(5 if lap.traced else 1):
            start = time.perf_counter()
            recovered = adapter.load_tree(path, recover=True)
            recover_ms.append((time.perf_counter() - start) * 1e3)
            same = recovered.objects == live
            recovered.store.close()
        _check(lap, same, "the store recovered from its WAL does not hold "
                          "the live object table")
        counters["storage.wal.recover_ms"] = statistics.median(recover_ms)
        if lap.traced:
            object_bytes = sum(record.size_bytes for record in live.values())
            stored = os.path.getsize(path) + adapter.wal_summary(path)["wal_bytes"]
            counters["storage.paged.store_bytes_per_object_byte"] = (
                stored / object_bytes)
            start = time.perf_counter()
            packed = adapter.pack(path)
            counters["storage.wal.pack_ms"] = (
                time.perf_counter() - start) * 1e3
            counters["storage.wal.dead_pages_reclaimed"] = float(
                packed["dead_pages_reclaimed"])


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
def end_to_end(laps: Sequence[Lap], normalise: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of a run, from its untraced laps.

    With ``normalise`` every time is divided by how slow the host was while
    it was measured (the slowness of its segment, see :attr:`Lap.segments`):
    seconds on the reference host, not on whatever the host happened to be
    doing.  ``normalise=False`` gives the wall-clock values, kept in the
    run's record.
    """
    by_kind: Dict[str, List[float]] = {}
    for lap in laps:
        for seconds, cost, _ in lap.query_times(normalise):
            by_kind.setdefault(metrics.query_kind(cost), []).append(seconds)
    durations = sorted(seconds for kind in by_kind.values()
                       for seconds in kind)
    operations = sum(len(lap.queries) + len(lap.updates) for lap in laps)
    steady = sum(lap.reference_steady_s if normalise else lap.steady_s
                 for lap in laps)
    setups = [lap.setup_s / (lap.setup_probe_s / REFERENCE_PROBE_S
                             if normalise else 1.0) for lap in laps]

    def p50_ms(kind: str) -> float:
        return statistics.median(by_kind[kind]) * 1e3 if kind in by_kind else 0.0

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    certified = adapter.ClientResult(
        client_id=-1, group="all", model="APRO",
        costs=[cost for lap in laps[:CERT_LAPS]
               for _, cost, _, _ in lap.queries]).summary()
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": operations / steady,
        "query_p50_ms": statistics.median(durations) * 1e3,
        "query_p99_ms": metrics.percentile(durations, 0.99) * 1e3,
        "local_p50_ms": p50_ms("local"),
        "range_miss_p50_ms": p50_ms("range_miss"),
        "knn_miss_p50_ms": p50_ms("knn_miss"),
        "peak_rss_mb": (own + children) / 1024.0,
        "downlink_bytes_per_query": certified["downlink_bytes"],
        "byte_hit_rate": certified["byte_hit_rate"],
        "model_response_ms": certified["response_time"] * 1e3,
    }


def certificate(laps: Sequence[Lap]) -> List[str]:
    """One hash per lap over its deterministic summary and cache digests."""
    return [hashlib.sha256(json.dumps(lap.signature, sort_keys=True)
                           .encode()).hexdigest() for lap in laps]


def single_run(workload: str, seed: int, seconds: float, trace: bool,
               scale: str = "full") -> Dict[str, object]:
    """Run ``workload`` for about ``seconds`` of steady state.

    Returns the full record of the run; :func:`contract_line` reduces it to
    the one JSON object the driver reads.
    """
    run_start = time.perf_counter()
    plain: List[Lap] = []
    traced: List[Lap] = []
    minimum = MIN_PAIRS if trace else CERT_LAPS
    measured = 0.0
    while True:
        lap_index = len(plain)
        # Start another lap only while more than half of it fits.
        mean_lap = measured / lap_index if lap_index else 0.0
        if lap_index >= minimum and measured + 0.5 * mean_lap > seconds:
            break
        lap = run_lap(workload, seed, lap_index, scale)
        plain.append(lap)
        measured += lap.steady_s
        if trace:
            twin = run_lap(workload, seed, lap_index, scale, traced=True)
            traced.append(twin)
            measured += twin.steady_s
            twin.attempted += 1
            if twin.signature != lap.signature:
                twin.failures.append(
                    f"lap {lap_index}: the traced replay made different "
                    f"decisions than the untraced one")
    laps = plain + traced
    attempted = sum(lap.attempted for lap in laps)
    failures = [message for lap in laps for message in lap.failures]
    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "laps": len(plain),
        "host_slowness": statistics.median(lap.slowness for lap in laps),
        "certificate": certificate(plain),
        "phases_s": {
            "setup": sum(lap.setup_s for lap in laps),
            "steady": sum(lap.steady_s for lap in laps),
            "total": 0.0,
        },
        "per_lap": [{"lap": lap.index, "traced": lap.traced,
                     "setup_s": lap.setup_s, "steady_s": lap.steady_s,
                     "setup_probe_s": lap.setup_probe_s,
                     "reference_steady_s": lap.reference_steady_s,
                     "queries": len(lap.queries), "updates": len(lap.updates)}
                    for lap in laps],
        "end_to_end": end_to_end(plain),
        "end_to_end_raw": end_to_end(plain, normalise=False),
    }
    if trace:
        record["per_layer"] = layers.per_layer(plain, traced, attempted,
                                               len(failures))
        os.makedirs(OUT_DIR, exist_ok=True)
        # The first traced lap is written out; later laps repeat its shape.
        traced[0].recorder.write(
            os.path.join(OUT_DIR, f"trace-{workload}.jsonl"))
    record["phases_s"]["total"] = time.perf_counter() - run_start
    return record


def contract_line(record: Dict[str, object]) -> str:
    """The run as the single JSON object the driver expects last on stdout."""
    schema = metrics.PER_LAYER if record["trace"] else metrics.END_TO_END
    values = record["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric.name: {"value": values[metric.name],
                                  "unit": metric.unit}
                    for metric in schema},
    })


def print_metrics(record: Dict[str, object]) -> None:
    """Every metric by name, with its unit, one per line."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"laps={record['laps']} host_slowness={record['host_slowness']:.3f} "
          f"setup={record['phases_s']['setup']:.2f}s "
          f"steady={record['phases_s']['steady']:.2f}s "
          f"total={record['phases_s']['total']:.2f}s")
    for section in ("end_to_end", "per_layer"):
        for name, value in record.get(section, {}).items():
            print(metrics.line(name, value))
    print(f"{'failed / attempted':<44} "
          f"{record['failed']:>9} / {record['attempted']}")
    for message in record["failures"]:
        print(f"FAILED: {message}")
