"""The five workloads: what one lap replays, and how its deployment is built.

A *lap* is one cold fleet replayed from start to finish against a freshly
built deployment.  Every lap of a workload moves the same clients along the
same trajectories (``fleet_seed`` is fixed); ``--seed`` and the lap number
choose the query stream each client issues along its trajectory (query
type, window shape, k) and the update stream.  The reason is measured, not
assumed: per-query cost on the clustered ``NE`` dataset is heavy-tailed in
*where* a client travels, so re-drawing trajectories per seed spreads
throughput and bytes per query by 14-22 % (IQR / median over eight seeds,
even at 5 760 queries) and no bound below that would hold.  With fixed
trajectories every lap has the same expected difficulty, so a run may pool
any number of laps and two seeds differ by a few per cent.
"""

from __future__ import annotations

import dataclasses
import os
import random
import select
import signal
import subprocess
import time
from typing import Callable, Dict, List, Optional, Tuple

from bench import adapter

#: The fleet whose trajectories every lap replays.
PANEL_FLEET_SEED = 101
#: Server-side page buffer of ``durable_churn`` — smaller than its index.
DURABLE_BUFFER_PAGES = 32


@dataclasses.dataclass(frozen=True)
class Size:
    """How big one lap of a workload is."""

    objects: int
    clients: int
    queries_per_client: int


#: Lap sizes: ``full`` replays for about two seconds at HEAD on the
#: two-core container the benchmark was defined on; ``smoke`` is the
#: self-test scale, whose numbers are never compared.
SIZES: Dict[str, Dict[str, Size]] = {
    "fleet_mixed": {"full": Size(8000, 12, 60), "smoke": Size(1200, 6, 8)},
    "client_local": {"full": Size(8000, 16, 500), "smoke": Size(1200, 4, 30)},
    "sharded_mixed": {"full": Size(8000, 12, 60), "smoke": Size(1200, 6, 8)},
    "durable_churn": {"full": Size(6000, 18, 22), "smoke": Size(1200, 4, 5)},
    "wire_uds": {"full": Size(8000, 2, 1000), "smoke": Size(1200, 2, 25)},
}


def subseed(seed: int, lap: int, stream: str) -> int:
    """A 30-bit seed for one (run seed, lap, stream); stable across runs."""
    return random.Random(f"bench:{stream}:{seed}:{lap}").getrandbits(30)


def lap_fleet(workload: str, seed: int, lap: int,
              scale: str = "full") -> adapter.FleetConfig:
    """The ``FleetConfig`` lap ``lap`` of a run with ``--seed seed`` replays.

    The same config handed to ``repro.sim.run_fleet`` yields the same
    deterministic summaries and cache digests (pinned by the smoke test).
    """
    size = SIZES[workload][scale]
    base = adapter.SimulationConfig.scaled(
        query_count=size.queries_per_client,
        object_count=size.objects).with_overrides(
            workload_seed=subseed(seed, lap, "queries"))
    if workload in ("fleet_mixed", "sharded_mixed", "durable_churn"):
        fleet = adapter.default_fleet(
            size.clients, base=base, fleet_seed=PANEL_FLEET_SEED)
        if workload == "sharded_mixed":
            return dataclasses.replace(fleet, shards=4, partitioner="grid",
                                       router_cache=True,
                                       router_cache_bytes=65536)
        if workload == "durable_churn":
            return dataclasses.replace(
                fleet, update_rate=0.4, consistency="versioned",
                update_seed=subseed(seed, lap, "updates"))
        return fleet
    if workload == "client_local":
        mix = adapter.QueryMix(range_=1.0, knn=1.0, join=0.0)
        half = size.clients // 2
        groups = (
            adapter.ClientGroupSpec(name="tight", clients=half,
                                    cache_fraction=0.002, speed_factor=0.5,
                                    query_mix=mix),
            adapter.ClientGroupSpec(name="roomy", clients=size.clients - half,
                                    cache_fraction=0.05, speed_factor=0.25,
                                    query_mix=mix))
        return adapter.FleetConfig(base=base, groups=groups,
                                   fleet_seed=PANEL_FLEET_SEED)
    if workload == "wire_uds":
        groups = (adapter.ClientGroupSpec(
            name="remote", clients=size.clients, mobility_model="DIR",
            speed_factor=8.0, cache_fraction=0.005,
            query_mix=adapter.QueryMix(range_=2.0, knn=1.0, join=0.0)),)
        return adapter.FleetConfig(base=base, groups=groups,
                                   fleet_seed=PANEL_FLEET_SEED)
    raise ValueError(f"unknown workload {workload!r}")


@dataclasses.dataclass
class Deployment:
    """Everything one lap runs against; built cold, closed after the lap."""

    workload: str
    fleet: adapter.FleetConfig
    specs: list
    sessions: Dict[int, object]
    events: List[Tuple]
    #: The object the sessions call ``execute`` on.
    server: object
    #: Holder of the live object table (``.objects``) the oracle scans.
    tree: object
    #: Trees whose ``store.reads`` count the lap's logical page reads.
    trees: List[object]
    #: Setup time by phase, in ms (the per-layer setup metrics).
    phases: Dict[str, float]
    updater: Optional[object] = None
    sharded: Optional[object] = None
    store_path: Optional[str] = None
    server_process: Optional[subprocess.Popen] = None
    #: In-process server over the same dataset as the remote one.
    twin: Optional[object] = None

    def close(self) -> None:
        """Release stores, connections and the server process."""
        if self.server_process is not None:
            for session in self.sessions.values():
                session.server.close()
        if self.sharded is not None:
            self.sharded.close()
        else:
            for tree in self.trees:
                tree.store.close()
        stop_server(self.server_process)


def _timed(phases: Dict[str, float], name: str, call: Callable):
    start = time.perf_counter()
    result = call()
    phases[name] = phases.get(name, 0.0) + (time.perf_counter() - start) * 1e3
    return result


def _bulk_tree(base: adapter.SimulationConfig, phases: Dict[str, float]):
    records = _timed(phases, "datasets.build_ms", lambda: adapter.make_dataset(
        base.dataset_name, base.object_count, seed=base.dataset_seed,
        mean_object_bytes=base.mean_object_bytes, zipf_theta=base.zipf_theta))
    return _timed(phases, "rtree.bulk.build_ms", lambda: adapter.bulk_load_str(
        records, size_model=adapter.SizeModel(page_bytes=base.page_bytes)))


def build(workload: str, fleet: adapter.FleetConfig,
          workdir: str) -> Deployment:
    """Build lap state from nothing: dataset, index, server, traces, sessions.

    ``workdir`` (inside ``bench/out``) receives the durable store or the
    server's socket.  Anything started here is released by
    :meth:`Deployment.close`, which the caller runs in a ``finally``.
    """
    base = fleet.base
    phases: Dict[str, float] = {}
    specs = fleet.client_specs()
    deployment = Deployment(workload=workload, fleet=fleet, specs=specs,
                            sessions={}, events=[], server=None, tree=None,
                            trees=[], phases=phases)
    try:
        if workload == "sharded_mixed":
            state = _timed(phases, "sharding.router.build_ms",
                           lambda: adapter.build_sharded_state(
                               base, fleet.shards,
                               partitioner=fleet.partitioner))
            deployment.sharded = state
            state.router.attach_result_cache(adapter.PartitionResultCache(
                capacity_bytes=fleet.router_cache_bytes))
            ground_truth = adapter.GroundTruthCache(state.view)
            deployment.server, deployment.tree = state.router, state.view
            deployment.sessions = {spec.client_id: adapter.make_session(
                spec.model, state.view, spec.config, server=state.router,
                replacement_policy=spec.replacement_policy,
                ground_truth=ground_truth) for spec in specs}
        elif workload == "wire_uds":
            socket_path = os.path.join(workdir, "s.sock")
            deployment.server_process = _timed(
                phases, "net.server.spawn_ms",
                lambda: spawn_server(socket_path, base, workdir))
            tree = _bulk_tree(base, phases)
            shared = _timed(phases, "rtree.partition_tree.build_ms",
                            lambda: adapter.build_shared_state(base, tree=tree))
            deployment.trees = [shared.tree]
            deployment.tree, deployment.twin = shared.tree, shared.server
            endpoint = adapter.Endpoint(transport="uds", path=socket_path)
            for spec in specs:
                handle = adapter.RemoteSessionClient(
                    endpoint, shared.size_model,
                    client_name=f"client-{spec.client_id}")
                deployment.sessions[spec.client_id] = adapter.make_session(
                    spec.model, shared.tree, spec.config, server=handle,
                    replacement_policy=spec.replacement_policy,
                    ground_truth=shared.ground_truth)
        else:
            tree = _bulk_tree(base, phases)
            if workload == "durable_churn":
                deployment.store_path = os.path.join(workdir, "server.rpro")
                _timed(phases, "storage.paged.save_tree_ms",
                       lambda: adapter.save_tree(tree, deployment.store_path))
                shared = _timed(
                    phases, "rtree.partition_tree.build_ms",
                    lambda: adapter.build_shared_state(
                        base, store_path=deployment.store_path,
                        store_buffer_pages=DURABLE_BUFFER_PAGES,
                        store_writable=True, store_durable=True))
                deployment.updater = adapter.DatasetUpdater(
                    shared.tree, shared.server,
                    ground_truth=shared.ground_truth)
            else:
                shared = _timed(
                    phases, "rtree.partition_tree.build_ms",
                    lambda: adapter.build_shared_state(base, tree=tree))
            deployment.trees = [shared.tree]
            deployment.server, deployment.tree = shared.server, shared.tree
            deployment.sessions = adapter.make_dynamic_sessions(
                fleet, shared, specs, deployment.updater)
        if deployment.sharded is not None:
            deployment.trees = [shard.tree
                                for shard in deployment.sharded.shards]
        deployment.events = _timed(
            phases, "workload.trace_gen_ms",
            lambda: adapter.build_dynamic_events(fleet, specs))
    except BaseException:
        deployment.close()
        raise
    return deployment


# --------------------------------------------------------------------------- #
# the repro serve child
# --------------------------------------------------------------------------- #
def spawn_server(socket_path: str, config: adapter.SimulationConfig,
                 workdir: str, timeout: float = 60.0) -> subprocess.Popen:
    """Start ``repro serve`` on ``socket_path``; return once it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = adapter.SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(os.path.join(workdir, "serve.err"), "wb") as errors:
        process = subprocess.Popen(
            adapter.serve_command(socket_path, config), env=env,
            stdout=subprocess.PIPE, stderr=errors)
    try:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.startswith(b"serving"):
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select(
                [process.stdout], [], [], remaining)[0]
            if not ready or process.poll() is not None:
                raise RuntimeError(
                    f"repro serve did not start listening on {socket_path}")
            line = process.stdout.readline()
    except BaseException:
        stop_server(process)
        raise
    return process


def stop_server(process: Optional[subprocess.Popen]) -> Optional[int]:
    """Interrupt the server, reap it, and return its exit code.

    ``repro serve`` stops on SIGINT (it has no SIGTERM path); a server that
    ignores it for ten seconds is killed, and is reaped either way.
    """
    if process is None:
        return None
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode
