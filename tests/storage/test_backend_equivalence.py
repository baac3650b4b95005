"""Backend invariance: the file store must be indistinguishable from memory.

The contract of :mod:`repro.storage` is that swapping the in-memory page
store for the paged file backend changes *nothing* observable about query
processing: identical results, identical per-query visited-page counts,
identical byte accounting, identical eviction decisions — under every
replacement policy.  Only the physical I/O counters may differ.
"""

from __future__ import annotations

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.deployment import open_deployment
from repro.sim.fleet import ClientGroupSpec, FleetConfig, replay_backend
from repro.sim.runner import build_shared_state, build_tree, generate_trace
from repro.sim.sessions import make_session
from repro.storage import save_tree
from repro.storage.paged import DEFAULT_BUFFER_PAGES

CONFIG = SimulationConfig.tiny(query_count=30, object_count=600)

ALL_POLICIES = ("GRD1", "GRD2", "GRD3", "LRU", "MRU", "FAR")


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("equiv") / "server.rpro"
    save_tree(build_tree(CONFIG), str(path))
    return str(path)


def _replay(store_path, policy, model="APRO"):
    """Per-query deterministic observations plus store-level counters."""
    config = CONFIG.with_overrides(replacement_policy=policy)
    shared = build_shared_state(config, store_path=store_path)
    session = make_session(model, shared.tree, config, server=shared.server)
    per_query = []
    for record in generate_trace(config):
        reads_before = shared.tree.store.reads
        cost = session.process(record)
        per_query.append({
            "visited_pages": cost.server_page_reads,
            "logical_reads": shared.tree.store.reads - reads_before,
            "uplink": cost.uplink_bytes,
            "downlink": cost.downlink_bytes,
            "result_bytes": cost.result_bytes,
            "saved_bytes": cost.saved_bytes,
            "response_time": cost.response_time,
            "contacted": cost.contacted_server,
        })
    return per_query, shared.tree.store.reads, session


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_file_backend_matches_memory_under_policy(store_path, policy):
    memory_rows, memory_reads, memory_session = _replay(None, policy)
    file_rows, file_reads, file_session = _replay(store_path, policy)
    assert file_rows == memory_rows
    assert file_reads == memory_reads
    # The eviction decisions were identical too: same final cache, byte for
    # byte (items, metadata, orderings).
    assert (file_session.cache.content_digest()
            == memory_session.cache.content_digest())


@pytest.mark.parametrize("model", ("FPRO", "CPRO"))
def test_file_backend_matches_memory_other_index_forms(store_path, model):
    memory_rows, memory_reads, _ = _replay(None, "GRD3", model=model)
    file_rows, file_reads, _ = _replay(store_path, "GRD3", model=model)
    assert file_rows == memory_rows
    assert file_reads == memory_reads


def test_replay_backend_agrees_across_backends(store_path):
    """The ``persist verify`` probe: the same rows and logical reads on
    both backends, and only the file side reads the file."""
    memory_rows, memory_reads, memory_io = replay_backend(CONFIG)
    file_rows, file_reads, file_io = replay_backend(
        CONFIG, store_path=store_path, store_buffer_pages=16)
    assert file_rows == memory_rows
    assert len(file_rows) == CONFIG.query_count
    assert file_reads == memory_reads > 0
    assert memory_io["file_reads"] == 0 < file_io["file_reads"]


def test_open_deployment_sizes_the_store_buffer(store_path):
    fleet = FleetConfig.make(CONFIG, [ClientGroupSpec("APRO", clients=1)])
    for pages, expected in ((16, 16), (None, DEFAULT_BUFFER_PAGES)):
        deployment = open_deployment(fleet, store_path,
                                     store_buffer_pages=pages)
        try:
            assert deployment.tree.store.buffer_pages == expected
        finally:
            deployment.close()


def test_query_level_page_counts_are_nonzero(store_path):
    """Sanity: the comparison above is not vacuously over all-zero counts."""
    rows, total_reads, _ = _replay(store_path, "GRD3")
    assert total_reads > 0
    assert any(row["visited_pages"] > 0 for row in rows)


def test_tiny_buffer_changes_io_not_decisions(store_path):
    """A pathological 1-page buffer degrades I/O, never correctness."""
    from repro.storage import load_tree
    from repro.core.server import ServerQueryProcessor
    from repro.sim.runner import build_partition_trees

    config = CONFIG
    trace = generate_trace(config)

    def replay_with_buffer(buffer_pages):
        tree = load_tree(store_path, buffer_pages=buffer_pages)
        server = ServerQueryProcessor(
            tree, size_model=tree.size_model,
            partition_trees=build_partition_trees(tree.all_nodes()))
        session = make_session("APRO", tree, config, server=server)
        rows = [(session.process(record).server_page_reads) for record in trace]
        return rows, tree.store.reads, tree.store.io_stats()

    big_rows, big_reads, big_io = replay_with_buffer(256)
    tiny_rows, tiny_reads, tiny_io = replay_with_buffer(1)
    assert tiny_rows == big_rows
    assert tiny_reads == big_reads
    assert tiny_io["file_reads"] >= big_io["file_reads"]


def test_io_stats_exclude_startup_scans(store_path):
    """Counters measure query I/O: zero right after the state is built."""
    shared = build_shared_state(CONFIG, store_path=store_path)
    assert shared.tree.store.io_stats() == {"file_reads": 0, "file_writes": 0,
                                            "buffer_hits": 0}
    shared.tree.store.close()


def test_store_with_mismatched_meta_is_rejected(tmp_path):
    from repro.storage import StorageError
    path = tmp_path / "meta.rpro"
    save_tree(build_tree(CONFIG), str(path),
              meta={"dataset": CONFIG.dataset_name,
                    "object_count": CONFIG.object_count})
    # Matching config loads fine...
    build_shared_state(CONFIG, store_path=str(path)).tree.store.close()
    # ...a different object count is refused with a clear message.
    with pytest.raises(StorageError, match="object_count"):
        build_shared_state(CONFIG.with_overrides(object_count=999),
                           store_path=str(path))
    # Meta keys outside the known set are ignored.
    other = tmp_path / "free.rpro"
    save_tree(build_tree(CONFIG), str(other), meta={"note": "anything"})
    build_shared_state(CONFIG.with_overrides(object_count=999),
                       store_path=str(other)).tree.store.close()
