"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.datasets import generate_ne_like, generate_uniform
from repro.geometry import Point, Rect
from repro.rtree import RTree, SizeModel, bulk_load_str
from repro.rtree.entry import ObjectRecord


def make_records(count: int, seed: int = 0, spread: float = 1.0,
                 size_bytes: int = 1000) -> list:
    """Uniform random point-like records with deterministic ids and sizes."""
    rng = random.Random(seed)
    records = []
    for object_id in range(count):
        x, y = rng.random() * spread, rng.random() * spread
        mbr = Rect(x, y, min(1.0, x + 0.002), min(1.0, y + 0.002))
        records.append(ObjectRecord(object_id=object_id, mbr=mbr, size_bytes=size_bytes))
    return records


@pytest.fixture(scope="session")
def small_records():
    """120 deterministic records for index-level tests."""
    return make_records(120, seed=5)


@pytest.fixture(scope="session")
def clustered_records():
    """A small NE-like clustered dataset."""
    return generate_ne_like(400, seed=3)


@pytest.fixture(scope="session")
def small_tree(small_records):
    """A bulk-loaded tree with small fanout (several levels)."""
    return bulk_load_str(small_records, size_model=SizeModel(page_bytes=256))


@pytest.fixture(scope="session")
def clustered_tree(clustered_records):
    """A bulk-loaded tree over the clustered dataset."""
    return bulk_load_str(clustered_records, size_model=SizeModel(page_bytes=512))


@pytest.fixture()
def dynamic_tree(small_records):
    """A dynamically built (insert-by-insert) tree; rebuilt per test."""
    tree = RTree(size_model=SizeModel(page_bytes=256))
    tree.insert_all(small_records)
    return tree


# --------------------------------------------------------------------------- #
# fleet equivalence helpers shared by tests/net and tests/sim
# --------------------------------------------------------------------------- #
def save_fleet_store(fleet, directory):
    """Checkpoint ``fleet``'s server side under ``directory``.

    Returns the ``store_path`` to run the fleet from: one ``.rpro`` file,
    or a shard-store directory for a sharded fleet.
    """
    if fleet.is_sharded:
        from repro.sharding import build_sharded_state, save_sharded_state
        store = str(directory / "shards")
        state = build_sharded_state(fleet.base, fleet.shards,
                                    partitioner=fleet.partitioner)
        save_sharded_state(state, store)
        state.close()
    else:
        from repro.sim.runner import build_tree
        from repro.storage import save_tree
        store = str(directory / "server.rpro")
        save_tree(build_tree(fleet.base), store)
    return store


def deterministic_cost(cost):
    """Every seed-deterministic field of one per-query cost record."""
    return (cost.query_index, cost.query_type, cost.uplink_bytes,
            cost.downlink_bytes, cost.downloaded_result_bytes,
            cost.confirmed_cached_bytes, cost.index_downlink_bytes,
            cost.result_bytes, cost.cached_result_bytes, cost.saved_bytes,
            cost.contacted_server, cost.server_page_reads,
            cost.sync_uplink_bytes, cost.sync_downlink_bytes,
            cost.refreshed_items, cost.invalidated_items, cost.response_time)


def assert_byte_identical(reference, other):
    """Two fleet results agree on every per-query cost and final cache."""
    assert len(reference.clients) == len(other.clients)
    for ref_client, client in zip(reference.clients, other.clients):
        assert ([deterministic_cost(cost) for cost in ref_client.costs]
                == [deterministic_cost(cost) for cost in client.costs])
        assert ref_client.final_cache_digest == client.final_cache_digest
        assert ref_client.final_cache_used_bytes \
            == client.final_cache_used_bytes


def assert_reconciled(networked, transport, clients):
    """Every client's channel totals equal the server's ledgers exactly."""
    summary = networked.net_summary
    assert summary is not None
    assert summary["transport"] == transport
    assert summary["all_reconciled"] is True
    assert len(summary["clients"]) == clients
    for entry in summary["clients"]:
        assert entry["reconciled"] is True
        assert entry["retries"] == 0
        assert entry["client_uplink_bytes"] == entry["server_uplink_bytes"]
        assert entry["client_downlink_bytes"] \
            == entry["server_downlink_bytes"]
        assert entry["queries_served"] > 0
        # Raw wire bytes exist but never enter the modelled accounting.
        assert entry["wire_bytes_to_server"] > entry["client_uplink_bytes"] \
            or entry["wire_bytes_to_server"] > 0
