"""Building the simulated environment and replaying traces against models."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.mobility import PoissonThinkTime, make_mobility_model
from repro.rtree.bulk import bulk_load_str
from repro.rtree.partition_tree import build_partition_trees
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import RTree
from repro.core.server import ServerQueryProcessor
from repro.sim.config import SimulationConfig, dataset_records, meta_mismatches
from repro.sim.metrics import SimulationResult
from repro.sim.sessions import ClientSession, GroundTruthCache, make_session
from repro.workload.generator import QueryGenerator
from repro.workload.schedule import KnnRampSchedule
from repro.workload.trace import QueryTrace, TraceRecord

T = TypeVar("T")


@dataclass
class SharedServerState:
    """The server-side state shared by every client of one experiment.

    One dataset, one R*-tree, one query processor and one memoised
    ground-truth store — built once and reused by every session (single-trace
    comparisons) or every fleet client (multi-client simulations).
    """

    tree: RTree
    server: ServerQueryProcessor
    ground_truth: GroundTruthCache

    @property
    def size_model(self) -> SizeModel:
        return self.tree.size_model


@dataclass
class SimulationEnvironment:
    """Everything shared between the caching models of one experiment."""

    config: SimulationConfig
    tree: RTree
    server: ServerQueryProcessor
    trace: QueryTrace
    ground_truth: Optional[GroundTruthCache] = None
    knn_schedule: Optional[KnnRampSchedule] = None

    def __post_init__(self) -> None:
        if self.ground_truth is None:
            self.ground_truth = GroundTruthCache(self.tree)

    @property
    def size_model(self) -> SizeModel:
        return self.tree.size_model


def map_maybe_parallel(task: Callable[..., T],
                       argument_lists: Iterable[Sequence[object]],
                       max_workers: Optional[int]) -> List[T]:
    """Run ``task(*args)`` for every args tuple, optionally in worker processes.

    The single dispatch point shared by :func:`run_models`, the sweeps and
    the fleet runner: with ``max_workers`` > 1 (and more than one task) the
    calls fan out over a :class:`ProcessPoolExecutor`; otherwise they run
    serially.  Results come back in submission order either way.  ``task``
    must be a module-level callable and all arguments picklable.
    """
    argument_lists = list(argument_lists)
    if max_workers is not None and max_workers > 1 and len(argument_lists) > 1:
        workers = min(max_workers, len(argument_lists))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, *args) for args in argument_lists]
            return [future.result() for future in futures]
    return [task(*args) for args in argument_lists]


def build_tree(config: SimulationConfig) -> RTree:
    """Generate the dataset of ``config`` and bulk-load it into an R*-tree."""
    size_model = SizeModel(page_bytes=config.page_bytes)
    return bulk_load_str(dataset_records(config), size_model=size_model)


def _check_store_meta(config: SimulationConfig, meta: dict, store_path: str) -> None:
    """Reject a store whose recorded generating config contradicts ``config``.

    A mismatch means the caller mixed dataset flags between ``save-tree``
    time and load time — caught here with a clear message instead of
    silently simulating a hybrid.
    """
    mismatches = meta_mismatches(config, meta)
    if mismatches:
        from repro.storage.backend import StorageError
        raise StorageError(
            f"{store_path} was written for a different dataset configuration "
            f"({'; '.join(mismatches)}); rerun with matching flags or "
            f"re-save the store")


def build_shared_state(config: SimulationConfig,
                       store_path: Optional[str] = None,
                       store_buffer_pages: Optional[int] = None,
                       tree: Optional[RTree] = None,
                       store_writable: bool = False,
                       store_durable: bool = False) -> SharedServerState:
    """Build the dataset, the R-tree and the server (no trace).

    With ``store_path`` the tree is not rebuilt from the dataset seeds but
    loaded from a ``.rpro`` page store (see :mod:`repro.storage.paged`):
    the server then performs actual file reads for page accesses, with
    visited-page accounting identical to the in-memory backend.  A store
    whose recorded generating configuration contradicts ``config`` is
    rejected.  ``store_writable`` opens the store through its copy-on-write
    overlay so the dynamic-dataset subsystem can mutate the tree (the file
    itself stays untouched).  ``store_durable`` opens the durable write
    mode instead: the store recovers its write-ahead log to the newest
    committed version and attaches a writer, so every update batch commits
    durably (see :func:`repro.storage.paged.load_tree`).  Physical I/O
    counters start at zero once the state is built, so
    ``tree.store.io_stats()`` afterwards measures query-driven I/O only.

    A prebuilt ``tree`` (matching ``config``) skips the dataset rebuild —
    used by callers that already hold the deterministic tree, e.g. right
    after checkpointing it.  Mutually exclusive with ``store_path``.
    """
    if store_durable and store_path is None:
        raise ValueError("store_durable needs a store_path to log to")
    if store_path is not None:
        if tree is not None:
            raise ValueError("pass either store_path or tree, not both")
        from repro.storage.paged import DEFAULT_BUFFER_PAGES, load_tree, read_header
        _check_store_meta(config, read_header(store_path).get("meta", {}),
                          store_path)
        tree = load_tree(store_path,
                         buffer_pages=(store_buffer_pages
                                       if store_buffer_pages is not None
                                       else DEFAULT_BUFFER_PAGES),
                         copy_on_write=store_writable,
                         writable=store_durable)
    elif tree is None:
        tree = build_tree(config)
    partition_trees = build_partition_trees(tree.all_nodes())
    server = ServerQueryProcessor(tree, size_model=tree.size_model,
                                  partition_trees=partition_trees)
    # Partition-tree construction swept every page; that is startup I/O.
    tree.store.reset_io_stats()
    return SharedServerState(tree=tree, server=server,
                             ground_truth=GroundTruthCache(tree))


def replay_store_trace(config: SimulationConfig, trace: QueryTrace,
                       store_path: Optional[str] = None,
                       store_buffer_pages: Optional[int] = None,
                       tree: Optional[RTree] = None
                       ) -> Tuple[List[Tuple[int, float, float, float, float]],
                                  int, Dict[str, int]]:
    """Replay ``trace`` through one APRO session; the backend-invariance probe.

    The shared kernel of ``repro persist verify`` and the ``storage_paged``
    golden fingerprint: returns ``(per_query_rows, logical_reads, io_stats)``
    where each row is the deterministic
    ``(server_page_reads, uplink, downlink, result_bytes, response_time)``
    tuple.  Two replays of the same trace — one in-memory, one through a
    page store — must return identical rows and logical read totals; only
    ``io_stats`` may differ.  The store handle is closed before returning.
    """
    shared = build_shared_state(config, store_path=store_path,
                                store_buffer_pages=store_buffer_pages,
                                tree=tree)
    session = make_session("APRO", shared.tree, config, server=shared.server)
    rows = [(cost.server_page_reads, cost.uplink_bytes, cost.downlink_bytes,
             cost.result_bytes, cost.response_time)
            for cost in (session.process(record) for record in trace)]
    stats = (rows, shared.tree.store.reads, shared.tree.store.io_stats())
    shared.tree.store.close()
    return stats


def generate_trace(config: SimulationConfig,
                   knn_schedule: Optional[KnnRampSchedule] = None) -> QueryTrace:
    """Generate the (mobility, think time, query) trace of one client."""
    mobility = make_mobility_model(config.mobility_model, speed=config.speed,
                                   seed=config.mobility_seed)
    arrival = PoissonThinkTime(mean_seconds=config.think_time_mean,
                               seed=config.mobility_seed + 1)
    generator = QueryGenerator(window_area=config.window_area, k_max=config.k_max,
                               join_distance=config.join_distance,
                               join_window_area=config.effective_join_window_area(),
                               mix=config.query_mix, seed=config.workload_seed)
    trace = QueryTrace()
    elapsed = 0.0
    for index in range(config.query_count):
        think = arrival.sample()
        elapsed += think
        position = mobility.advance(think)
        k_override = knn_schedule.k_at(index) if knn_schedule is not None else None
        query = generator.next_query(position, k_override=k_override)
        trace.append(TraceRecord(index=index, position=position,
                                 think_time=think, query=query,
                                 arrival_time=elapsed))
    return trace


def build_environment(config: SimulationConfig,
                      knn_schedule: Optional[KnnRampSchedule] = None,
                      store_path: Optional[str] = None) -> SimulationEnvironment:
    """Build the dataset, the R-tree, the server and a query trace.

    ``store_path`` serves the R-tree from a ``.rpro`` page store instead of
    rebuilding it in memory (see :func:`build_shared_state`).
    """
    shared = build_shared_state(config, store_path=store_path)
    trace = generate_trace(config, knn_schedule=knn_schedule)
    return SimulationEnvironment(config=config, tree=shared.tree, server=shared.server,
                                 trace=trace, ground_truth=shared.ground_truth,
                                 knn_schedule=knn_schedule)


def run_session(session: ClientSession, trace: QueryTrace,
                config: SimulationConfig) -> SimulationResult:
    """Replay ``trace`` against ``session`` and collect the metrics."""
    result = SimulationResult(model=session.name, config_summary=config.as_table())
    for record in trace:
        cost = session.process(record)
        snapshot = session.cache_snapshot(record.index)
        result.record(cost, snapshot)
    return result


def run_model(environment: SimulationEnvironment, model: str,
              replacement_policy: Optional[str] = None) -> SimulationResult:
    """Run one caching model against the environment's trace."""
    session = make_session(model, environment.tree, environment.config,
                           server=environment.server,
                           replacement_policy=replacement_policy,
                           ground_truth=environment.ground_truth)
    return run_session(session, environment.trace, environment.config)


def _run_model_worker(config: SimulationConfig, trace: QueryTrace,
                      model: str, replacement_policy: Optional[str]) -> Tuple[str, SimulationResult]:
    """Process-pool task: rebuild the server state, replay the shipped trace.

    The trace travels to the worker verbatim (it is small and picklable)
    rather than being regenerated from seeds, so a caller-supplied or
    deserialised trace runs identically in serial and parallel modes.
    """
    shared = build_shared_state(config)
    environment = SimulationEnvironment(config=config, tree=shared.tree,
                                        server=shared.server, trace=trace,
                                        ground_truth=shared.ground_truth)
    return model, run_model(environment, model, replacement_policy=replacement_policy)


def run_models(environment: SimulationEnvironment, models: Iterable[str],
               replacement_policy: Optional[str] = None,
               max_workers: Optional[int] = None) -> Dict[str, SimulationResult]:
    """Run several caching models against the same trace (paired comparison).

    With ``max_workers`` > 1 the models run in parallel worker processes;
    every worker rebuilds the deterministic server state from the (picklable)
    configuration and replays the environment's own trace, so the per-model
    byte/hit-rate metrics are identical to a serial run.  Serially, the
    models share one :class:`GroundTruthCache`, so only the first model pays
    for each ground-truth computation.
    """
    models = list(models)
    if max_workers is not None and max_workers > 1 and len(models) > 1:
        pairs = map_maybe_parallel(
            _run_model_worker,
            [(environment.config, environment.trace, model, replacement_policy)
             for model in models],
            max_workers)
        return dict(pairs)
    return {model: run_model(environment, model, replacement_policy=replacement_policy)
            for model in models}


def run_comparison(config: SimulationConfig, models: Iterable[str] = ("PAG", "SEM", "APRO"),
                   knn_schedule: Optional[KnnRampSchedule] = None,
                   replacement_policy: Optional[str] = None,
                   max_workers: Optional[int] = None,
                   store_path: Optional[str] = None) -> Dict[str, SimulationResult]:
    """Convenience wrapper: build an environment and run several models on it."""
    environment = build_environment(config, knn_schedule=knn_schedule,
                                    store_path=store_path)
    return run_models(environment, models, replacement_policy=replacement_policy,
                      max_workers=max_workers)
