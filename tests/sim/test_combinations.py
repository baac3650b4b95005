"""Every row of the combination table, walked.

``repro.sim.deployment.COMBINATIONS`` is the only place a feature
combination is decided.  For each row this suite builds the smallest run
that has the row's features and then holds the table to its word:

* an **enabled** row runs and is byte-identical (per-query costs, cache
  digests, update and shard summaries) to its in-memory, in-process,
  serial, uninterrupted twin — same fleet, same topology, nothing else;
* a **rejected** row raises the row's ``ValueError`` through the library
  *and* makes ``repro fleet …`` exit with ``repro fleet: error: <message>``
  and no traceback.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.deployment import COMBINATIONS, check_combination, run_features
from repro.sim.fleet import ClientGroupSpec, FleetConfig, default_fleet, run_fleet
from repro.sim.restart import (
    SESSION_FILE,
    fleet_from_dict,
    fleet_to_dict,
    resume_fleet,
    run_fleet_interrupted,
)
from tests.conftest import (
    assert_byte_identical,
    assert_reconciled,
    save_fleet_store,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
BASE = SimulationConfig.scaled(query_count=8, object_count=600)
DYNAMIC = {"update_rate": 0.05, "consistency": "versioned"}


ENABLED = [frozenset(row.split())
           for row, message in COMBINATIONS.items() if message is None]
REJECTED = [(frozenset(row.split()), message)
            for row, message in COMBINATIONS.items() if message is not None]


def _row_id(features):
    return "+".join(sorted(features)).replace("/", "-")


REJECTED_IDS = [_row_id(features) for features, _ in REJECTED]


# --------------------------------------------------------------------------- #
# from a row's features to the smallest run that has them
# --------------------------------------------------------------------------- #
def _wants(features):
    """Resolve every axis: what the row names, else the plain default.

    ``durable`` rows default to the dynamic, store-backed run durability
    needs, so that only the row under test can fire.
    """
    return {
        "dynamic": "dynamic" in features
        or ("durable" in features and "static" not in features),
        "store": "store" in features
        or ("durable" in features and "memory" not in features),
        "sharded": "sharded" in features,
        "baseline": "baseline-model" in features,
    }


def _twin(features):
    """The in-memory, in-process fleet with the row's topology and churn."""
    wants = _wants(features)
    if wants["baseline"]:
        fleet = FleetConfig.make(BASE, [
            ClientGroupSpec(name="pagers", clients=2, model="PAG"),
            ClientGroupSpec(name="walkers", clients=2)])
    else:
        fleet = default_fleet(4, base=BASE)
    overrides = dict(DYNAMIC) if wants["dynamic"] else {}
    if wants["sharded"]:
        overrides["shards"] = 2
    if "router-cache" in features:
        # Part of the topology: the cache is result-identical to cache-off
        # but bills its own wire-level bytes, so the twin keeps it.
        overrides["router_cache"] = True
    return dataclasses.replace(fleet, **overrides)


def _fleet(features, transport="uds"):
    """``_twin`` behind the row's transport, if it names one."""
    if "networked" in features:
        return dataclasses.replace(_twin(features), transport=transport)
    return _twin(features)


def _run(features, fleet, store_path, tmp_path):
    """Drive the library entry point the row's features select."""
    durable = "durable" in features
    if "halt/resume" in features:
        directory = str(tmp_path / "session")
        total = fleet.total_clients * fleet.base.query_count
        run_fleet_interrupted(fleet, halt_after=total // 2,
                              directory=directory, store_path=store_path,
                              durable=durable)
        return resume_fleet(directory)[0]
    return run_fleet(fleet, max_workers=2 if "workers" in features else None,
                     store_path=store_path, durable=durable)


def _cli_args(features, tmp_path):
    wants = _wants(features)
    args = ["fleet", "--queries", "4", "--objects", "300"]
    args += (["--group", "pagers:2:RAN:PAG"] if wants["baseline"]
             else ["--clients", "3"])
    if wants["dynamic"]:
        args += ["--update-rate", "0.1", "--consistency", "versioned"]
    if wants["store"]:
        args += ["--store", str(tmp_path / "server.rpro")]
    for feature, flags in (
            ("durable", ["--durable"]),
            ("sharded", ["--shards", "2"]),
            ("router-cache", ["--router-cache"]),
            ("networked", ["--transport", "uds"]),
            ("workers", ["--workers", "2"]),
            ("halt/resume", ["--halt-after", "3",
                             "--session-dir", str(tmp_path / "session")])):
        if feature in features:
            args += flags
    return args


# --------------------------------------------------------------------------- #
# the table itself
# --------------------------------------------------------------------------- #
def test_table_rows_are_distinct_and_rejections_come_first():
    rows = [frozenset(row.split()) for row in COMBINATIONS]
    assert len(set(rows)) == len(rows)
    verdicts = [message is None for message in COMBINATIONS.values()]
    assert verdicts == sorted(verdicts)
    assert len({message for _, message in REJECTED}) == len(REJECTED)


@pytest.mark.parametrize("features", ENABLED, ids=_row_id)
def test_no_rejected_row_shadows_an_enabled_one(features):
    run = dict(max_workers=2 if "workers" in features else None,
               store_path="x" if _wants(features)["store"] else None,
               durable="durable" in features,
               halt_resume="halt/resume" in features)
    assert features <= run_features(_fleet(features), **run)
    check_combination(_fleet(features), **run)


# --------------------------------------------------------------------------- #
# enabled rows: byte-identical to the plain twin
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("features", ENABLED, ids=_row_id)
def test_enabled_row_is_byte_identical_to_its_twin(features, tmp_path):
    reference = run_fleet(_twin(features))
    transports = ("uds", "tcp") if "networked" in features else ("inproc",)
    for transport in transports:
        workdir = tmp_path / transport
        workdir.mkdir()
        fleet = _fleet(features, transport)
        store = (save_fleet_store(fleet, workdir)
                 if _wants(features)["store"] else None)
        result = _run(features, fleet, store, workdir)
        assert_byte_identical(reference, result)
        assert (result.deterministic_group_summary()
                == reference.deterministic_group_summary())
        if "networked" in features:
            assert_reconciled(result, transport, clients=4)
        else:
            assert result.net_summary is None
        assert result.shard_summary == reference.shard_summary
        if reference.update_summary is None:
            assert result.update_summary is None
        else:
            commits = result.update_summary["wal_commits"]
            assert commits == (result.update_summary["applied"]
                               if "durable" in features else 0)
            assert dict(result.update_summary, wal_commits=0) \
                == reference.update_summary


# --------------------------------------------------------------------------- #
# rejected rows: one message, library and CLI alike
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("row", REJECTED, ids=REJECTED_IDS)
def test_rejected_row_raises_its_message_through_the_library(row, tmp_path):
    features, message = row
    store = str(tmp_path / "server.rpro") \
        if _wants(features)["store"] else None
    with pytest.raises(ValueError, match=re.escape(message)):
        _run(features, _fleet(features), store, tmp_path)


@pytest.mark.parametrize("row", REJECTED, ids=REJECTED_IDS)
def test_rejected_row_is_a_clean_cli_error(row, tmp_path):
    features, message = row
    environment = dict(os.environ, PYTHONPATH=SRC)
    outcome = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + _cli_args(features, tmp_path),
        env=environment, capture_output=True, text=True, timeout=120)
    assert outcome.returncode != 0
    assert "Traceback" not in outcome.stderr
    assert f"repro fleet: error: {message}" in outcome.stderr


# --------------------------------------------------------------------------- #
# the bug the table fixed: a networked halt used to run in-process
# --------------------------------------------------------------------------- #
def test_networked_halt_is_refused_at_library_level(tmp_path):
    fleet = dataclasses.replace(default_fleet(3, base=BASE), transport="uds")
    with pytest.raises(ValueError, match="connection ledgers restart"):
        run_fleet_interrupted(fleet, halt_after=3, directory=str(tmp_path))
    assert not os.listdir(tmp_path)
    # A session file that claims such a deployment is refused too, instead
    # of silently resuming as an in-process fleet.
    from repro.storage.snapshot import load_state, save_state
    inproc = dataclasses.replace(fleet, transport="inproc")
    run_fleet_interrupted(inproc, halt_after=3, directory=str(tmp_path))
    session = os.path.join(str(tmp_path), SESSION_FILE)
    state = load_state(session)
    assert state["fleet"]["transport"] == "inproc"
    state["fleet"]["transport"] = "uds"
    save_state(state, session)
    with pytest.raises(ValueError, match="connection ledgers restart"):
        resume_fleet(str(tmp_path))


def test_session_files_round_trip_every_fleet_field():
    fleet = dataclasses.replace(
        default_fleet(3, base=BASE), fleet_seed=9, update_rate=0.2,
        consistency="ttl", ttl_seconds=33.0, update_seed=5, shards=2,
        partitioner="kd", transport="tcp", router_cache=True,
        router_cache_bytes=4096)
    defaults = default_fleet(3, base=BASE)
    changed = {field.name for field in dataclasses.fields(FleetConfig)
               if getattr(fleet, field.name) != getattr(defaults, field.name)}
    assert changed == {field.name for field in dataclasses.fields(FleetConfig)
                       } - {"base", "groups"}
    data = fleet_to_dict(fleet)
    assert set(data) == {field.name
                         for field in dataclasses.fields(FleetConfig)}
    assert fleet_from_dict(data) == fleet
    assert fleet_from_dict(json.loads(json.dumps(data))) == fleet


# --------------------------------------------------------------------------- #
# the status board: one fleet section, one key set, whatever the deployment
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("overrides", [
    {}, DYNAMIC, {"shards": 2}, {"transport": "uds"},
    dict(DYNAMIC, shards=2, transport="tcp", router_cache=True),
], ids=["static", "dynamic", "sharded", "networked", "everything"])
def test_every_deployment_publishes_the_same_fleet_section(overrides):
    from repro.obs.status import StatusBoard, board_active
    fleet = dataclasses.replace(default_fleet(3, base=BASE), **overrides)
    board = StatusBoard()
    with board_active(board):
        run_fleet(fleet)
    sections = board.status()["sections"]
    assert sections["fleet"] == {
        "clients": 3, "events": sections["fleet"]["events"],
        "consistency": fleet.consistency, "shards": fleet.shards,
        "partitioner": fleet.partitioner, "transport": fleet.transport}
    assert sections["fleet"]["events"] >= 3 * BASE.query_count
    assert "error" not in sections["cache"]
    assert ("shards" in sections) == fleet.is_sharded
    assert ("updates" in sections) == fleet.is_dynamic
    assert ("net" in sections) == fleet.is_networked
