"""Tests for the dataset updater and the cache-consistency protocols."""

import random

import pytest

from repro.core.server import ServerQueryProcessor
from repro.geometry import Point, Rect
from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.rtree.entry import ObjectRecord
from repro.sim.config import SimulationConfig
from repro.sim.sessions import ProactiveSession, make_session
from repro.updates import DatasetUpdater, make_protocol
from repro.updates.protocol import TTLProtocol
from repro.updates.stream import UpdateEvent
from repro.workload.queries import RangeQuery
from repro.workload.trace import TraceRecord


def _records(count, seed=9):
    rng = random.Random(seed)
    records = []
    for object_id in range(count):
        x, y = rng.random(), rng.random()
        records.append(ObjectRecord(object_id=object_id,
                                    mbr=Rect(x, y, min(1, x + 0.004),
                                             min(1, y + 0.004)),
                                    size_bytes=1000))
    return records


def _system(count=60):
    tree = bulk_load_str(_records(count), size_model=SizeModel(page_bytes=256))
    server = ServerQueryProcessor(tree)
    updater = DatasetUpdater(tree, server)
    return tree, server, updater


def _insert_event(index, object_id, rng=None):
    rng = rng or random.Random(index)
    x, y = rng.random(), rng.random()
    return UpdateEvent(index=index, arrival_time=float(index), kind="insert",
                       object_id=object_id,
                       mbr=Rect(x, y, min(1, x + 0.004), min(1, y + 0.004)),
                       size_bytes=800)


# --------------------------------------------------------------------------- #
# DatasetUpdater
# --------------------------------------------------------------------------- #
def test_updater_applies_and_versions_dirty_nodes():
    tree, server, updater = _system()
    before = dict(updater.registry.node_versions)
    assert updater.apply(_insert_event(0, 60))
    assert 60 in tree.objects
    assert_tree_valid(tree)
    assert updater.registry.node_versions != before
    assert updater.registry.dataset_version == 1
    # The owning leaf's version bumped and its partition tree was dropped.
    leaf_id = next(node.node_id for node in tree.all_nodes()
                   if node.is_leaf and any(e.object_id == 60 for e in node.entries))
    assert updater.registry.node_version(leaf_id) > 1
    assert leaf_id not in server.partition_trees


def test_updater_delete_and_modify():
    tree, server, updater = _system()
    assert updater.apply(UpdateEvent(index=0, arrival_time=0.0, kind="delete",
                                     object_id=5))
    assert 5 not in tree.objects
    assert updater.registry.object_version(5) is None
    assert_tree_valid(tree)

    event = _insert_event(1, 6)
    moved = UpdateEvent(index=1, arrival_time=1.0, kind="modify", object_id=6,
                        mbr=event.mbr, size_bytes=777)
    assert updater.apply(moved)
    assert tree.objects[6].size_bytes == 777
    assert updater.registry.object_version(6) == 2
    assert_tree_valid(tree)


def test_updater_skips_noop_events():
    tree, server, updater = _system()
    assert not updater.apply(UpdateEvent(index=0, arrival_time=0.0,
                                         kind="delete", object_id=999))
    assert not updater.apply(_insert_event(1, 5))  # id already live
    assert updater.applied == 0 and updater.skipped == 2
    assert updater.registry.dataset_version == 0


def test_updater_clears_shared_ground_truth():
    from repro.sim.sessions import GroundTruthCache
    tree, server, _ = _system()
    ground_truth = GroundTruthCache(tree)
    updater = DatasetUpdater(tree, server, ground_truth=ground_truth)
    query = RangeQuery(window=Rect(0.0, 0.0, 1.0, 1.0))
    before_ids, _ = ground_truth.results_for(query)
    assert len(ground_truth) == 1
    updater.apply(UpdateEvent(index=0, arrival_time=0.0, kind="delete",
                              object_id=before_ids[0]))
    assert len(ground_truth) == 0
    after_ids, _ = ground_truth.results_for(query)
    assert before_ids[0] not in after_ids


def test_updater_survives_heavy_churn():
    tree, server, updater = _system(count=120)
    rng = random.Random(17)
    next_id = 120
    for step in range(150):
        roll = rng.random()
        live = sorted(tree.objects)
        if roll < 0.4 or len(live) < 20:
            updater.apply(_insert_event(step, next_id, rng))
            next_id += 1
        elif roll < 0.7:
            updater.apply(UpdateEvent(index=step, arrival_time=float(step),
                                      kind="delete",
                                      object_id=rng.choice(live)))
        else:
            x, y = rng.random(), rng.random()
            updater.apply(UpdateEvent(index=step, arrival_time=float(step),
                                      kind="modify",
                                      object_id=rng.choice(live),
                                      mbr=Rect(x, y, min(1, x + 0.004),
                                               min(1, y + 0.004)),
                                      size_bytes=rng.randint(500, 1500)))
        assert_tree_valid(tree)


# --------------------------------------------------------------------------- #
# protocols
# --------------------------------------------------------------------------- #
def _session(tree, server, updater, mode, ttl=10.0):
    config = SimulationConfig.tiny().with_overrides(explicit_cache_bytes=50_000)
    protocol = make_protocol(mode, updater=updater,
                             size_model=tree.size_model, ttl_seconds=ttl)
    return ProactiveSession(tree, config, server=server, consistency=protocol)


def _query_at(index, now, center=Point(0.5, 0.5), side=0.4):
    return TraceRecord(index=index, position=center, think_time=1.0,
                       arrival_time=now,
                       query=RangeQuery(window=Rect.from_center(
                           center, side, side).clamped_unit()))


def test_snapshot_entries_are_built_once_and_die_with_the_partition_tree():
    """The supporting index ships memoised entries: an update rebuilds the
    entries of exactly the nodes it mutated, every other node's entries are
    the very objects shipped before."""
    tree, server, updater = _system(count=120)
    query = RangeQuery(window=Rect(0.0, 0.0, 1.0, 1.0))

    def shipped():
        return {snapshot.node_id: {entry.code: entry for entry in snapshot.elements}
                for snapshot in server.execute(query).index_snapshots}

    before = shipped()
    again = shipped()
    assert all(again[node_id][code] is entry
               for node_id, entries in before.items() for code, entry in entries.items())

    dropped_before = set(server.partition_trees)
    assert updater.apply(_insert_event(0, 500))
    mutated = dropped_before - set(server.partition_trees)
    assert mutated and len(mutated) < len(before)
    after = shipped()
    for node_id in before.keys() & after.keys():
        for code, entry in after[node_id].items():
            if node_id in mutated:
                assert before[node_id].get(code) is not entry
            else:
                assert before[node_id][code] is entry
    # The rebuilt entries describe the new content: the object is shipped.
    assert any(entry.object_id == 500
               for node_id in mutated for entry in after[node_id].values())


def test_make_protocol_validation():
    assert make_protocol("none") is None
    assert isinstance(make_protocol("ttl"), TTLProtocol)
    with pytest.raises(ValueError, match="unknown consistency"):
        make_protocol("gossip")
    with pytest.raises(ValueError, match="DatasetUpdater"):
        make_protocol("versioned")
    with pytest.raises(ValueError, match="positive"):
        TTLProtocol(ttl_seconds=0.0)


def test_versioned_sync_bills_the_handshake_every_query():
    tree, server, updater = _system()
    session = _session(tree, server, updater, "versioned")
    first = session.process(_query_at(0, 1.0))
    assert first.sync_uplink_bytes == 0  # cache was empty: nothing to validate
    second = session.process(_query_at(1, 2.0))
    # The client cannot know the dataset is unchanged without asking, so a
    # non-empty cache pays the per-item validation stamps every query...
    stamp = tree.size_model.pointer_bytes + 4
    expected = tree.size_model.query_header_bytes + stamp * len(session.cache)
    assert second.sync_uplink_bytes > 0
    # ...but with no updates every verdict is 'valid': nothing is refreshed
    # or dropped and the cache contents stay byte-identical to static.
    assert second.refreshed_items == 0 and second.invalidated_items == 0
    third = session.process(_query_at(2, 3.0))
    assert third.sync_uplink_bytes == expected


def test_versioned_sync_bills_and_reconciles_after_updates():
    tree, server, updater = _system()
    session = _session(tree, server, updater, "versioned")
    session.process(_query_at(0, 1.0))
    assert len(session.cache) > 0
    victim = sorted(session.cache.cached_object_ids())[0]
    updater.apply(UpdateEvent(index=0, arrival_time=1.5, kind="delete",
                              object_id=victim))
    cost = session.process(_query_at(1, 2.0))
    assert cost.sync_uplink_bytes > 0
    assert cost.sync_downlink_bytes > 0
    assert cost.invalidated_items + cost.refreshed_items > 0
    assert not session.cache.has_object(victim)
    assert session.cache.invalidations > 0
    session.cache.validate()


def test_ttl_expires_stale_subtrees_without_traffic():
    tree, server, updater = _system()
    session = _session(tree, server, updater, "ttl", ttl=5.0)
    session.process(_query_at(0, 1.0))
    assert len(session.cache) > 0
    cost = session.process(_query_at(1, 2.0))
    assert cost.invalidated_items == 0  # still fresh
    cost = session.process(_query_at(2, 20.0))  # far past the TTL
    assert cost.invalidated_items > 0
    assert cost.sync_uplink_bytes == 0 and cost.sync_downlink_bytes == 0
    session.cache.validate()


def test_sub_second_ttl_is_accepted_and_expires_after_it():
    tree, server, updater = _system()
    session = _session(tree, server, updater, "ttl", ttl=0.5)
    assert session.consistency.ttl_seconds == 0.5
    session.process(_query_at(0, 1.0))
    assert len(session.cache) > 0
    cost = session.process(_query_at(1, 1.4))
    assert cost.invalidated_items == 0  # shipped 0.4 s ago: still fresh
    cost = session.process(_query_at(2, 1.6))
    assert cost.invalidated_items > 0  # shipped 0.6 s ago: expired
    session.cache.validate()


def test_refresh_item_keeps_cache_bookkeeping_coherent():
    tree, server, updater = _system()
    session = _session(tree, server, updater, "versioned")
    session.process(_query_at(0, 1.0))
    cached = sorted(session.cache.cached_object_ids())
    assert cached, "expected cached objects"
    target = cached[0]
    # Grow the object in place: versioned must refresh, not drop, because
    # the owning leaf is unchanged apart from the payload size.
    record = tree.objects[target]
    updater.apply(UpdateEvent(index=0, arrival_time=1.2, kind="modify",
                              object_id=target, mbr=record.mbr,
                              size_bytes=record.size_bytes + 500))
    cost = session.process(_query_at(1, 2.0))
    assert cost.refreshed_items >= 1
    assert session.cache.get_object(target).size_bytes == record.size_bytes + 500
    assert session.cache.refreshes >= 1
    session.cache.validate()


def test_make_session_rejects_consistency_for_baselines():
    tree, server, updater = _system()
    protocol = make_protocol("ttl")
    config = SimulationConfig.tiny()
    with pytest.raises(ValueError, match="does not support"):
        make_session("PAG", tree, config, consistency=protocol)
    session = make_session("APRO", tree, config, server=server,
                           consistency=protocol)
    assert isinstance(session, ProactiveSession)
    assert isinstance(session.consistency, TTLProtocol)
