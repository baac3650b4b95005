"""Tests for dynamic fleets: one shared mutation history, many clients."""

import dataclasses

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.fleet import (
    ClientGroupSpec,
    FleetConfig,
    build_dynamic_events,
    build_fleet_events,
    default_fleet,
    run_fleet,
)
from repro.sim.runner import build_tree


def _base(queries=6, objects=250):
    return SimulationConfig.tiny(query_count=queries, object_count=objects)


def _fleet(clients=4, **overrides):
    fleet = default_fleet(clients, base=_base())
    return dataclasses.replace(fleet, **overrides) if overrides else fleet


def test_fleet_config_validates_dynamic_knobs():
    with pytest.raises(ValueError, match="consistency"):
        _fleet(consistency="gossip")
    with pytest.raises(ValueError, match="update_rate"):
        _fleet(update_rate=-0.1)
    with pytest.raises(ValueError, match="ttl_seconds"):
        _fleet(ttl_seconds=0.0)
    assert not _fleet().is_dynamic
    assert _fleet(update_rate=0.1).is_dynamic
    assert _fleet(consistency="ttl").is_dynamic


def test_sub_second_fleet_ttl_is_accepted_and_expires_shipped_items():
    def invalidated(ttl_seconds):
        result = run_fleet(_fleet(consistency="ttl", ttl_seconds=ttl_seconds))
        return sum(cost.invalidated_items for client in result.clients
                   for cost in client.costs)

    # Clients think for seconds between queries, so a 0.5 s TTL expires
    # what the previous query shipped; a TTL longer than the run never does.
    assert invalidated(0.5) > 0
    assert invalidated(1e9) == 0


def test_initial_object_ids_match_the_built_tree():
    base = _base()
    tree = build_tree(base)
    from repro.sim.fleet import _initial_object_ids
    assert sorted(tree.objects) == _initial_object_ids(base)


def test_dynamic_events_interleave_updates_without_reordering_queries():
    fleet = _fleet(update_rate=0.1, consistency="versioned")
    specs = fleet.client_specs()
    merged = build_dynamic_events(fleet, specs)
    queries = [(t, cid, rec) for kind, t, cid, rec in merged if kind == "query"]
    assert queries == build_fleet_events(specs)
    updates = [event for kind, _, _, event in merged if kind == "update"]
    assert updates, "expected update events at this rate"
    times = [t for _, t, _, _ in merged]
    assert times == sorted(times)


def test_all_clients_observe_one_mutation_history():
    result = run_fleet(_fleet(update_rate=0.1, consistency="versioned"))
    summary = result.update_summary
    assert summary["applied"] > 0
    assert summary["applied"] == (summary["inserts"] + summary["deletes"]
                                  + summary["modifies"])
    assert summary["consistency"] == "versioned"
    # Every client ran its full trace against the mutating server.
    assert all(len(client.costs) == 6 for client in result.clients)
    # Deterministic: the same fleet replays to identical digests and traffic.
    again = run_fleet(_fleet(update_rate=0.1, consistency="versioned"))
    assert ([c.final_cache_digest for c in result.clients]
            == [c.final_cache_digest for c in again.clients])
    assert (result.deterministic_group_summary()
            == again.deterministic_group_summary())


def test_zero_update_none_fleet_is_decision_identical_to_static():
    static = run_fleet(_fleet())
    explicit = run_fleet(_fleet(update_rate=0.0, consistency="none"))
    assert static.update_summary is None and explicit.update_summary is None
    assert ([c.final_cache_digest for c in static.clients]
            == [c.final_cache_digest for c in explicit.clients])
    assert (static.deterministic_group_summary()
            == explicit.deterministic_group_summary())


def test_zero_update_versioned_fleet_keeps_static_digests():
    """With no updates every handshake verdict is 'valid' (the handshake
    still costs traffic but never mutates the cache), so even the
    protocol-enabled fleet reaches byte-identical cache contents."""
    static = run_fleet(_fleet())
    versioned = run_fleet(_fleet(update_rate=0.0, consistency="versioned"))
    assert ([c.final_cache_digest for c in static.clients]
            == [c.final_cache_digest for c in versioned.clients])


def test_consistency_protocols_diverge_under_updates():
    digests = {}
    for mode in ("versioned", "ttl", "none"):
        result = run_fleet(_fleet(update_rate=0.15, consistency=mode))
        digests[mode] = [c.final_cache_digest for c in result.clients]
    assert digests["versioned"] != digests["none"]
    assert digests["ttl"] != digests["none"]


def test_dynamic_fleet_rejects_workers_and_baseline_models():
    with pytest.raises(ValueError, match="dynamic fleet shares one mutating "
                                         "server"):
        run_fleet(_fleet(update_rate=0.1), max_workers=4)
    fleet = FleetConfig.make(_base(), [ClientGroupSpec(name="pag", clients=2,
                                                       model="PAG")])
    fleet = dataclasses.replace(fleet, update_rate=0.1)
    with pytest.raises(ValueError, match="dynamic fleet"):
        run_fleet(fleet)


def test_dynamic_fleet_over_cow_page_store(tmp_path):
    from repro.storage.paged import save_tree
    base = _base()
    store = str(tmp_path / "server.rpro")
    save_tree(build_tree(base), store)
    with open(store, "rb") as handle:
        bytes_before = handle.read()
    fleet = _fleet(update_rate=0.1, consistency="versioned")
    result = run_fleet(fleet, store_path=store)
    assert result.update_summary["applied"] > 0
    # The store file itself is untouched by the copy-on-write overlay.
    with open(store, "rb") as handle:
        assert handle.read() == bytes_before
    # And the disk-backed dynamic run is decision-identical to in-memory.
    in_memory = run_fleet(fleet)
    assert ([c.final_cache_digest for c in result.clients]
            == [c.final_cache_digest for c in in_memory.clients])


def test_restart_supports_dynamic_fleets(tmp_path):
    """Halting an updating fleet and resuming reproduces the full run."""
    from repro.sim.restart import resume_fleet, run_fleet_interrupted
    fleet = _fleet(update_rate=0.1, consistency="versioned")
    uninterrupted = run_fleet(fleet)
    directory = str(tmp_path / "session")
    state = run_fleet_interrupted(fleet, halt_after=8, directory=directory)
    assert state["dynamic"] is True
    assert state["durable"] is False
    assert state["updater"]["kind"] == "dataset-updater"
    resumed, _ = resume_fleet(directory)
    assert ([c.final_cache_digest for c in resumed.clients]
            == [c.final_cache_digest for c in uninterrupted.clients])
    assert resumed.update_summary["applied"] \
        == uninterrupted.update_summary["applied"]


def test_restart_durable_validation(tmp_path):
    from repro.sim.restart import run_fleet_interrupted
    # Durable halt needs a fleet that actually writes ...
    with pytest.raises(ValueError, match="dynamic"):
        run_fleet_interrupted(_fleet(), halt_after=3,
                              directory=str(tmp_path / "a"), durable=True)
    # ... and a disk store for the WAL to live next to.
    with pytest.raises(ValueError, match="store"):
        run_fleet_interrupted(_fleet(update_rate=0.1), halt_after=3,
                              directory=str(tmp_path / "b"), durable=True)


def test_fleet_roundtrips_dynamic_fields_through_session_files():
    from repro.sim.restart import fleet_from_dict, fleet_to_dict
    fleet = _fleet(update_rate=0.2, consistency="ttl", ttl_seconds=33.0)
    assert fleet_from_dict(fleet_to_dict(fleet)) == fleet
    # Pre-dynamic session files (no update fields) still load as static.
    legacy = fleet_to_dict(_fleet())
    for key in ("update_rate", "consistency", "ttl_seconds", "update_seed"):
        legacy.pop(key)
    assert not fleet_from_dict(legacy).is_dynamic
