"""The loopback deployment's equivalence contract.

A fleet served over a real socket (UDS or TCP) must be **byte-identical**
to the in-process fleet: every deterministic per-query cost field, every
final cache digest, every cache byte count — for static fleets, for all
three consistency modes under churn, and for sharded fleets.  On top of
the cost identity, every client's ``WirelessChannel`` totals must
reconcile *exactly* with the server's per-connection ledgers
(``net_summary``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.fleet import default_fleet, run_fleet
from tests.conftest import (
    assert_byte_identical as _assert_byte_identical,
    assert_reconciled as _assert_reconciled,
    save_fleet_store,
)

ALL_TRANSPORTS = ("uds", "tcp")


def _small_fleet(policy="GRD3", queries=10, objects=800, clients=4):
    base = SimulationConfig.scaled(query_count=queries, object_count=objects
                                   ).with_overrides(replacement_policy=policy)
    return default_fleet(clients, base=base)


def _networked(fleet, transport):
    return run_fleet(dataclasses.replace(fleet, transport=transport))


# --------------------------------------------------------------------------- #
# static fleets
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
@pytest.mark.parametrize("policy", ["GRD3", "LRU"])
def test_static_fleet_is_byte_identical(transport, policy):
    fleet = _small_fleet(policy=policy)
    reference = run_fleet(fleet)
    networked = _networked(fleet, transport)
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, transport, clients=4)
    assert reference.net_summary is None


# --------------------------------------------------------------------------- #
# dynamic fleets: all three consistency modes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("consistency", ["versioned", "ttl", "none"])
def test_dynamic_fleet_is_byte_identical_over_uds(consistency):
    fleet = dataclasses.replace(_small_fleet(), update_rate=0.05,
                                consistency=consistency)
    reference = run_fleet(fleet)
    networked = _networked(fleet, "uds")
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, "uds", clients=4)
    assert reference.update_summary == networked.update_summary


def test_dynamic_versioned_fleet_is_byte_identical_over_tcp():
    fleet = dataclasses.replace(_small_fleet(), update_rate=0.05,
                                consistency="versioned")
    reference = run_fleet(fleet)
    networked = _networked(fleet, "tcp")
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, "tcp", clients=4)


def test_versioned_sync_traffic_lands_in_the_ledger():
    """Under churn the handshake bytes show up on both sides and agree."""
    fleet = dataclasses.replace(_small_fleet(), update_rate=0.1,
                                consistency="versioned")
    networked = _networked(fleet, "uds")
    sync_uplink = sum(cost.sync_uplink_bytes for client in networked.clients
                      for cost in client.costs)
    assert sync_uplink > 0
    client_uplink = sum(entry["client_uplink_bytes"]
                        for entry in networked.net_summary["clients"])
    plain_uplink = sum(cost.uplink_bytes - cost.sync_uplink_bytes
                      for client in networked.clients
                      for cost in client.costs)
    assert client_uplink == plain_uplink + sync_uplink


# --------------------------------------------------------------------------- #
# sharded fleets behind the wire
# --------------------------------------------------------------------------- #
def test_sharded_fleet_is_byte_identical_over_uds():
    fleet = dataclasses.replace(_small_fleet(), shards=2)
    reference = run_fleet(fleet)
    networked = _networked(fleet, "uds")
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, "uds", clients=4)
    assert networked.shard_summary["shards"] == 2
    assert reference.shard_summary["queries_routed"] \
        == networked.shard_summary["queries_routed"]


def test_sharded_versioned_fleet_is_byte_identical_over_uds():
    fleet = dataclasses.replace(_small_fleet(), shards=2, update_rate=0.05,
                                consistency="versioned")
    reference = run_fleet(fleet)
    networked = _networked(fleet, "uds")
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, "uds", clients=4)
    assert reference.update_summary == networked.update_summary


# --------------------------------------------------------------------------- #
# the storage axis: a networked fleet serves whatever the deployment opened
# --------------------------------------------------------------------------- #
#: storage -> (fleet overrides, durable): the read-only paged store, its
#: copy-on-write overlay under churn, and the WAL-backed durable store.
STORAGE = {
    "paged": ({}, False),
    "paged-cow": ({"update_rate": 0.05, "consistency": "versioned"}, False),
    "durable": ({"update_rate": 0.05, "consistency": "versioned"}, True),
}


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
@pytest.mark.parametrize("storage", sorted(STORAGE))
@pytest.mark.parametrize("shards", [None, 2])
def test_store_backed_fleet_is_byte_identical(transport, storage, shards,
                                              tmp_path):
    """uds/tcp x {paged, copy-on-write, durable} x {single, shard dir}.

    The reference is the *in-memory*, in-process twin: storage and
    transport must both be invisible in every deterministic quantity.
    """
    overrides, durable = STORAGE[storage]
    fleet = dataclasses.replace(_small_fleet(), shards=shards, **overrides)
    reference = run_fleet(fleet)
    networked = run_fleet(dataclasses.replace(fleet, transport=transport),
                          store_path=save_fleet_store(fleet, tmp_path),
                          durable=durable)
    _assert_byte_identical(reference, networked)
    _assert_reconciled(networked, transport, clients=4)
    assert reference.shard_summary == networked.shard_summary
    if durable:
        # Every applied batch went through a write-ahead log; nothing else
        # about the update history differs from the in-memory twin.
        assert networked.update_summary["wal_commits"] \
            == networked.update_summary["applied"] > 0
        assert reference.update_summary \
            == dict(networked.update_summary, wal_commits=0)
    else:
        assert reference.update_summary == networked.update_summary


# --------------------------------------------------------------------------- #
# config guard rails
# --------------------------------------------------------------------------- #
def test_unknown_transport_is_rejected():
    fleet = _small_fleet()
    with pytest.raises(ValueError, match="transport"):
        dataclasses.replace(fleet, transport="carrier-pigeon")


def test_networked_fleet_rejects_parallel_workers():
    fleet = dataclasses.replace(_small_fleet(), transport="uds")
    with pytest.raises(ValueError, match="serial"):
        run_fleet(fleet, max_workers=2)
