"""Building the shared server state and the clients' query traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mobility import PoissonThinkTime, make_mobility_model
from repro.rtree.bulk import bulk_load_str
from repro.rtree.partition_tree import build_partition_trees
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import RTree
from repro.core.server import ServerQueryProcessor
from repro.sim.config import SimulationConfig, dataset_records, meta_mismatches
from repro.sim.sessions import GroundTruthCache
from repro.workload.generator import QueryGenerator
from repro.workload.schedule import KnnRampSchedule
from repro.workload.trace import QueryTrace, TraceRecord


@dataclass
class SharedServerState:
    """The server-side state shared by every client of one experiment.

    One dataset, one R*-tree, one query processor and one memoised
    ground-truth store — built once and reused by every client of a fleet
    or a paired comparison.
    """

    tree: RTree
    server: ServerQueryProcessor
    ground_truth: GroundTruthCache

    @property
    def size_model(self) -> SizeModel:
        return self.tree.size_model


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
