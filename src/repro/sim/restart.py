"""Warm-restart fleet sessions: kill a running fleet, resume it later.

A production deployment restarts — processes crash, clients go offline
overnight — and a proactive cache that survives the restart is worth real
bytes (the paper's whole premise is that cached state substitutes for
downlink traffic).  This module makes a fleet run *resumable*:

* :func:`run_fleet_interrupted` simulates the first ``halt_after`` events
  of the fleet's deterministic global event list, then persists one
  snapshot per client (cache + adaptive-controller + consistency-protocol
  state, via :meth:`~repro.sim.sessions.ProactiveSession.state_dict`) plus
  the fleet configuration, every cost recorded so far and — for a dynamic
  fleet — the updater snapshot into a session directory;
* :func:`resume_fleet` rebuilds the shared server state, restores every
  session and replays the *remaining* events.

Because the event list, the server state and every per-client seed are
deterministic, a killed-and-resumed run reaches exactly the same final
cache contents (same digests) and the same deterministic metrics as an
uninterrupted run — asserted by the warm-restart tests and surfaced
through the ``repro fleet --halt-after/--resume`` CLI flags.

Dynamic fleets (``--update-rate`` / ``--consistency``) resume through one
of two equivalent routes back to the halt-time tree:

* **replay** (the default) — the server tree is rebuilt at time zero and
  the pre-halt *update* events are re-applied through a fresh updater;
  queries never mutate the tree and the event list is deterministic, so
  the rebuilt tree equals the one that was killed;
* **durable** (``durable=True``, requires a disk store) — every committed
  batch already sits in the store's write-ahead log, so reopening the
  store in the durable mode (:func:`repro.storage.paged.load_tree` with
  ``writable=True``) recovers the halt-time tree directly — exactly what
  a ``kill -9``'d server process does on restart — and the resumed run
  keeps committing to the same log.

Both functions run the same pipeline as :func:`~repro.sim.fleet.run_fleet`
— :func:`~repro.sim.deployment.open_deployment`, the one session factory,
:func:`~repro.sim.deployment.replay` with ``stop`` (halt) or ``start``
(resume) — so a static fleet is simply the dynamic case without update
events or an updater snapshot.

Only proactive sessions (APRO / FPRO / CPRO) are resumable; PAG and SEM
sessions raise when snapshotted.  Sharded and networked fleets are not
resumable (router statistics and connection ledgers are not part of the
snapshot).  All three are refused up front from
:data:`~repro.sim.deployment.COMBINATIONS`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost_model import QueryCost
from repro.sim.config import SimulationConfig
from repro.sim.deployment import check_combination, open_deployment, replay
from repro.sim.fleet import (
    ClientGroupSpec,
    FleetClientSpec,
    FleetConfig,
    build_dynamic_events,
    finish_fleet,
    fresh_results,
    make_sessions,
)
from repro.sim.metrics import ClientResult, FleetResult
from repro.storage.snapshot import load_state, save_state
from repro.workload.generator import QueryMix

SESSION_FILE = "session.json"


# --------------------------------------------------------------------------- #
# (de)serialising the fleet configuration
# --------------------------------------------------------------------------- #
def fleet_to_dict(fleet: FleetConfig) -> dict:
    """JSON-serialisable form of a :class:`FleetConfig` (every field)."""
    # asdict recurses into nested dataclasses, so base, its query_mix and
    # every group arrive as plain dicts already.
    return dataclasses.asdict(fleet)


def fleet_from_dict(data: dict) -> FleetConfig:
    """Rebuild a :class:`FleetConfig` from :func:`fleet_to_dict` output.

    Keys are matched against the dataclass's own fields, so session files
    written before a field existed (the dynamic-dataset, sharding or
    transport knobs) load with its default and resume as the fleets they
    were.
    """
    values = {field.name: data[field.name]
              for field in dataclasses.fields(FleetConfig)
              if field.name in data}
    base = dict(data["base"])
    base["query_mix"] = QueryMix(**base["query_mix"])
    values["base"] = SimulationConfig(**base)
    groups = []
    for entry in data["groups"]:
        entry = dict(entry)
        if entry.get("query_mix") is not None:
            entry["query_mix"] = QueryMix(**entry["query_mix"])
        groups.append(ClientGroupSpec(**entry))
    values["groups"] = tuple(groups)
    return FleetConfig(**values)


def _client_entries(specs: Sequence[FleetClientSpec], sessions: Dict,
                    results: Dict[int, ClientResult]) -> List[dict]:
    """The per-client block of a session file (costs + session snapshot)."""
    return [
        {
            "client_id": spec.client_id,
            "group": spec.group,
            "model": spec.model,
            "costs": [dataclasses.asdict(cost)
                      for cost in results[spec.client_id].costs],
            "arrival_times": list(results[spec.client_id].arrival_times),
            "session": sessions[spec.client_id].state_dict(),
        }
        for spec in specs
    ]


def _restore_clients(specs: Sequence[FleetClientSpec], sessions: Dict,
                     state: dict) -> Dict[int, ClientResult]:
    """Restore every session snapshot; rebuild the per-client results."""
    results: Dict[int, ClientResult] = {}
    by_id = {entry["client_id"]: entry for entry in state["clients"]}
    for spec in specs:
        entry = by_id[spec.client_id]
        sessions[spec.client_id].restore_state(entry["session"])
        results[spec.client_id] = ClientResult(
            client_id=spec.client_id, group=spec.group, model=spec.model,
            costs=[QueryCost(**cost) for cost in entry["costs"]],
            arrival_times=list(entry["arrival_times"]))
    return results


# --------------------------------------------------------------------------- #
# halt / resume
# --------------------------------------------------------------------------- #
def run_fleet_interrupted(fleet: FleetConfig, halt_after: int, directory: str,
                          store_path: Optional[str] = None,
                          durable: bool = False) -> dict:
    """Run the first ``halt_after`` global events, then persist the session.

    Returns the session state that was written to
    ``directory/session.json``.  ``halt_after`` counts events of the global
    arrival-ordered event list (for a dynamic fleet: the merged query +
    update list, not per-client queries); the run stops *after* processing
    that many events, simulating a process killed mid-fleet.

    ``durable`` (dynamic fleets with a disk store only) commits every
    update batch to the store's write-ahead log as it runs, so
    :func:`resume_fleet` recovers the halt-time tree from the log instead
    of replaying the pre-halt update history; the session file then only
    records *that* the log is authoritative.
    """
    if halt_after < 0:
        raise ValueError("halt_after must be non-negative")
    check_combination(fleet, store_path=store_path, durable=durable,
                      halt_resume=True)
    specs = fleet.client_specs()
    deployment = open_deployment(fleet, store_path, durable)
    try:
        sessions = make_sessions(deployment, specs)
        results = fresh_results(specs)
        events = build_dynamic_events(fleet, specs)
        halt_after = min(halt_after, len(events))
        replay(deployment, sessions, results, events, stop=halt_after)
        updater = deployment.updater
        state = {
            "format": 1,
            "kind": "fleet-session",
            "fleet": fleet_to_dict(fleet),
            "store_path": store_path,
            "dynamic": fleet.is_dynamic,
            "durable": durable,
            "processed_events": halt_after,
            "total_events": len(events),
            # Counters + version registry; None for a static fleet.
            "updater": updater.state_dict() if updater is not None else None,
            "clients": _client_entries(specs, sessions, results),
        }
    finally:
        deployment.close()
    os.makedirs(directory, exist_ok=True)
    save_state(state, os.path.join(directory, SESSION_FILE))
    return state


def resume_fleet(directory: str) -> Tuple[FleetResult, dict]:
    """Resume a halted fleet session and run it to completion.

    Returns ``(result, session_state)`` where ``result`` covers the *whole*
    run — the costs recorded before the halt plus the resumed remainder —
    exactly as an uninterrupted :func:`~repro.sim.fleet.run_fleet` would
    have reported them (wall-clock CPU fields aside).

    A dynamic fleet's halt-time server tree comes back by whichever route
    the session was halted with — WAL recovery (``durable``) or
    deterministic replay of the pre-halt update events — then the updater
    and session snapshots are restored and the remaining merged events
    replay exactly as an uninterrupted run would have processed them.
    """
    state = load_state(os.path.join(directory, SESSION_FILE))
    if state.get("kind") != "fleet-session" or state.get("format") != 1:
        raise ValueError(f"{directory}: not a fleet session directory")
    fleet = fleet_from_dict(state["fleet"])
    store_path = state.get("store_path")
    durable = bool(state.get("durable"))
    processed = state["processed_events"]
    check_combination(fleet, store_path=store_path, durable=durable,
                      halt_resume=True)
    specs = fleet.client_specs()
    deployment = open_deployment(fleet, store_path, durable)
    try:
        events = build_dynamic_events(fleet, specs)
        if deployment.updater is not None:
            if not durable:
                # Rebuild the halt-time tree by re-applying the pre-halt
                # update events: queries never mutate the tree and the
                # merged event list is deterministic, so the rebuilt tree
                # equals the one that was killed.  The durable route skips
                # this — WAL recovery inside open_deployment already landed
                # the tree at the newest committed batch.
                replay(deployment, {}, {}, [event for event in
                                            events[:processed]
                                            if event[0] == "update"])
            deployment.updater.restore_state(state["updater"])
        sessions = make_sessions(deployment, specs)
        results = _restore_clients(specs, sessions, state)
        replay(deployment, sessions, results, events, start=processed)
        return finish_fleet(deployment, specs, sessions, results), state
    finally:
        deployment.close()
