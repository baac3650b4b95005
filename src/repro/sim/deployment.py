"""One deployment pipeline: what a fleet runs against and how it is replayed.

The paper's experiment is a single loop — cache-holding clients replay
traces against a server.  Every flavour of fleet is that loop over a
differently *composed* :class:`Deployment`:

* **storage** — an in-memory tree, a paged ``.rpro`` store (opened
  copy-on-write when the fleet mutates the dataset) or the durable store
  that commits every update batch to its write-ahead log;
* **topology** — one server, or the shard router (plus its result cache);
* **transport** — in-process calls, or a loopback socket dialled *around*
  the already-built deployment by :func:`repro.net.fleet.serve`.

:func:`open_deployment` composes the three; :func:`replay` is the only
loop that feeds fleet events to sessions and the updater (a static fleet
simply has no update events, a halt is ``stop``, a resume is ``start``);
:data:`COMBINATIONS` is the only place a feature combination is decided.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

from repro.core.cost_model import QueryCost
from repro.core.handles import LocalServerHandle, ServerHandle, TreeView
from repro.obs import instrument as obs
from repro.obs.status import publish
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import PageStore
from repro.sim.metrics import ClientResult, FleetResult
from repro.sim.runner import build_shared_state
from repro.sim.sessions import ClientSession, GroundTruthCache
from repro.storage.paged import PagedFileBackend
from repro.workload.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fleet import FleetClientSpec, FleetConfig
    from repro.updates.applier import Updater
    from repro.updates.protocol import ConsistencyProtocol
    from repro.updates.stream import UpdateEvent

#: Models that speak the server protocol; PAG and SEM answer from the
#: ground-truth oracle and have neither a consistency story nor snapshots.
PROACTIVE_MODELS = ("APRO", "FPRO", "CPRO")


# --------------------------------------------------------------------------- #
# the combination table
# --------------------------------------------------------------------------- #
_SERIAL = "cannot be split over worker processes; run it serially"
_MODELS = f"supported models: {', '.join(PROACTIVE_MODELS)}"

#: The features a run must *all* have (vocabulary: :func:`run_features`) ->
#: the one ``ValueError`` text every entry point raises for that
#: combination, or ``None`` for an enabled one, which
#: ``tests/sim/test_combinations.py`` pins byte-identical to its in-memory,
#: in-process twin.  Rejections come first and the first one a run matches
#: is the one reported; ``docs/cli.md`` mirrors the table row for row.
COMBINATIONS: Dict[str, Optional[str]] = {
    "router-cache single": "router_cache needs a sharded fleet (set shards)",
    "durable static":
        "durable mode only applies to dynamic fleets (--update-rate / "
        "--consistency): a static fleet never writes, so there is nothing "
        "to log",
    "durable memory":
        "durable mode needs a disk store to log to (pass store_path / "
        "--store)",
    "workers dynamic":
        f"a dynamic fleet shares one mutating server, so its clients "
        f"{_SERIAL}",
    "workers sharded":
        f"a sharded fleet routes every query through one shared router, so "
        f"its clients {_SERIAL}",
    "workers networked":
        f"a networked fleet serves every client from one loopback server, "
        f"so its clients {_SERIAL}",
    "halt/resume sharded":
        "sharded fleets (--shards) cannot be halted and resumed: router "
        "statistics and the result-cache fact store are not part of the "
        "session snapshot, so the resumed shard summary would differ",
    "halt/resume networked":
        "networked fleets (--transport uds/tcp) cannot be halted and "
        "resumed: connection ledgers restart with the server, so the "
        "resumed net summary would cover half a run",
    "halt/resume baseline-model":
        f"PAG and SEM sessions do not support warm restarts; resumable "
        f"models: {', '.join(PROACTIVE_MODELS)}",
    "baseline-model dynamic":
        f"PAG and SEM have no consistency protocol, so they cannot join a "
        f"dynamic fleet; {_MODELS}",
    "baseline-model sharded":
        f"PAG and SEM answer from the ground-truth oracle, not the server "
        f"protocol, so they cannot join a sharded fleet; {_MODELS}",
    "baseline-model networked":
        f"PAG and SEM answer from the ground-truth oracle, not the server "
        f"protocol, so they cannot join a networked fleet; {_MODELS}",
    "workers static single inproc": None,
    "baseline-model static single inproc": None,
    "store static": None,
    "store dynamic": None,
    "durable store dynamic": None,
    "sharded": None,
    "sharded dynamic": None,
    "sharded router-cache": None,
    "sharded store": None,
    "sharded durable store dynamic": None,
    "networked": None,
    "networked dynamic": None,
    "networked store static": None,
    "networked store dynamic": None,
    "networked durable store dynamic": None,
    "networked sharded router-cache": None,
    "networked sharded store": None,
    "networked sharded durable store dynamic": None,
    "halt/resume": None,
    "halt/resume store": None,
    "halt/resume dynamic": None,
    "halt/resume durable store dynamic": None,
}


def run_features(fleet: "FleetConfig", max_workers: Optional[int] = None,
                 store_path: Optional[str] = None, durable: bool = False,
                 halt_resume: bool = False) -> FrozenSet[str]:
    """The feature set of one requested run, in the table's vocabulary."""
    flags = {
        "workers": max_workers is not None and max_workers > 1,
        "store": store_path is not None, "memory": store_path is None,
        "durable": durable,
        "sharded": fleet.is_sharded, "single": not fleet.is_sharded,
        "router-cache": fleet.router_cache,
        "networked": fleet.is_networked, "inproc": not fleet.is_networked,
        "dynamic": fleet.is_dynamic, "static": not fleet.is_dynamic,
        "halt/resume": halt_resume,
        "baseline-model": any(group.model.upper() not in PROACTIVE_MODELS
                              for group in fleet.groups),
    }
    return frozenset(name for name, present in flags.items() if present)


def check_combination(fleet: "FleetConfig", max_workers: Optional[int] = None,
                      store_path: Optional[str] = None, durable: bool = False,
                      halt_resume: bool = False) -> None:
    """Raise the table's ``ValueError`` if the requested run is rejected.

    Called by ``run_fleet``, ``run_fleet_interrupted``, ``resume_fleet``
    and the CLI, so a combination is refused with the same message
    wherever it is asked for.
    """
    features = run_features(fleet, max_workers, store_path, durable,
                            halt_resume)
    for row, message in COMBINATIONS.items():
        if message is not None and features.issuperset(row.split()):
            raise ValueError(message)


# --------------------------------------------------------------------------- #
# the deployment value
# --------------------------------------------------------------------------- #
#: What one client is wired to: its server handle and consistency protocol.
ClientWiring = Tuple[ServerHandle, Optional["ConsistencyProtocol"]]


@dataclass
class Deployment:
    """An opened server side: everything sessions are built against.

    ``server`` is what answers queries, ``tree`` the client-facing tree
    view, ``updater`` the applier of the fleet's mutation history (``None``
    for a static fleet).  ``dial`` is set by a transport wrapper to hand
    every client its own remote handle instead of ``server``.
    """

    fleet: "FleetConfig"
    server: LocalServerHandle
    tree: TreeView
    size_model: SizeModel
    ground_truth: GroundTruthCache
    updater: Optional["Updater"] = None
    dial: Optional[Callable[["FleetClientSpec"], "ClientWiring"]] = None
    #: Run after every applied update (remote catalogues go stale).
    update_hooks: List[Callable[[], None]] = field(default_factory=list)
    #: Each stamps one summary block on a finished :class:`FleetResult`.
    summarisers: List[Callable[[FleetResult], None]] = field(
        default_factory=list)
    _closers: ExitStack = field(default_factory=ExitStack)

    def connect(self, spec: "FleetClientSpec") -> "ClientWiring":
        """The ``(server handle, consistency protocol)`` of one client."""
        if self.dial is not None:
            return self.dial(spec)
        from repro.updates import make_protocol
        return self.server, make_protocol(
            self.fleet.consistency, updater=self.updater,
            size_model=self.size_model, ttl_seconds=self.fleet.ttl_seconds)

    def apply_update(self, event: "UpdateEvent") -> None:
        """Land one update: the updater applies it, then the hooks run."""
        assert self.updater is not None, "an update event needs an updater"
        self.updater.apply(event)
        for hook in self.update_hooks:
            hook()

    def summaries(self, result: FleetResult) -> None:
        """Stamp every summary block this deployment owns on ``result``."""
        for summarise in self.summarisers:
            summarise(result)

    def on_close(self, release: Callable[[], object]) -> None:
        """Register ``release`` to run (last in, first out) on close."""
        self._closers.callback(release)

    def close(self) -> None:
        """Release everything the deployment opened."""
        self._closers.close()


def open_deployment(fleet: "FleetConfig", store_path: Optional[str] = None,
                    durable: bool = False) -> Deployment:
    """Compose storage × topology × transport into one :class:`Deployment`.

    ``store_path`` names a ``.rpro`` file (a shard-store directory for a
    sharded fleet), opened read-only for a fleet that never writes,
    copy-on-write for one that does and — with ``durable`` — through the
    write-ahead log.  A networked fleet wraps the finished in-process
    deployment in a loopback server.  The caller owns the result and must
    :meth:`~Deployment.close` it.
    """
    writable = fleet.update_rate > 0
    if fleet.shards is not None:
        from repro.sharding import (
            PartitionResultCache, ShardedUpdater, build_sharded_state,
        )
        state = build_sharded_state(
            fleet.base, fleet.shards, partitioner=fleet.partitioner,
            store_dir=store_path, writable=writable, durable=durable)
        deployment = Deployment(fleet, state.router, state.view,
                                state.size_model, GroundTruthCache(state.view))
        deployment.on_close(state.close)
        if fleet.router_cache:
            state.router.attach_result_cache(
                PartitionResultCache(capacity_bytes=fleet.router_cache_bytes))
        if fleet.is_dynamic:
            deployment.updater = ShardedUpdater(
                state.router, ground_truth=deployment.ground_truth)

        def shard_summary(result: FleetResult) -> None:
            result.shard_summary = state.shard_summary(fleet.partitioner)
        deployment.summarisers.append(shard_summary)
        publish("shards", lambda: state.shard_summary(fleet.partitioner))
    else:
        shared = build_shared_state(fleet.base, store_path=store_path,
                                    store_writable=writable,
                                    store_durable=durable)
        deployment = Deployment(fleet, shared.server, shared.tree,
                                shared.size_model, shared.ground_truth)
        deployment.on_close(lambda: shared.tree.store.close())
        if fleet.is_dynamic:
            from repro.updates import DatasetUpdater
            deployment.updater = DatasetUpdater(
                shared.tree, shared.server, ground_truth=shared.ground_truth)
            publish("wal", lambda: _wal_facts(shared.tree.store))
    updater = deployment.updater
    if updater is not None:
        def update_summary(result: FleetResult) -> None:
            result.update_summary = dict(updater.summary())
            result.update_summary["consistency"] = fleet.consistency
        deployment.summarisers.append(update_summary)
        publish("updates", lambda: dict(updater.summary()))
    if fleet.is_networked:
        from repro.net.fleet import serve
        try:
            serve(deployment)
        except BaseException:
            deployment.close()
            raise
    return deployment


def _wal_facts(store: PageStore) -> Dict[str, object]:
    """Live write-ahead-log facts of a (possibly non-durable) store."""
    wal = store.wal if isinstance(store, PagedFileBackend) else None
    if wal is None:
        return {"durable": False}
    return {"durable": True, "records_written": wal.records_written,
            "bytes_written": wal.bytes_written}


# --------------------------------------------------------------------------- #
# the replay loop
# --------------------------------------------------------------------------- #
def replay(deployment: Deployment, sessions: Dict[int, ClientSession],
           results: Dict[int, ClientResult], events: Sequence[Tuple],
           start: int = 0, stop: Optional[int] = None) -> None:
    """Process ``events[start:stop]`` in arrival order.

    ``events`` is the merged list of
    :func:`~repro.sim.fleet.build_dynamic_events`: an ``("update", t, None,
    event)`` lands on the deployment's updater, a ``("query", t, client_id,
    record)`` runs through its client's session and records on its result.
    A halted run passes ``stop``; a resumed one passes the same offset as
    ``start``.
    """
    for kind, arrival_time, client_id, payload in islice(events, start, stop):
        if kind == "update":
            if obs.ENABLED:
                with obs.active().span("update", kind=payload.kind,
                                       seq=payload.index):
                    deployment.apply_update(payload)
                obs.active().count("repro_updates_total", 1.0)
            else:
                deployment.apply_update(payload)
        else:
            if obs.ENABLED:
                cost = _process_traced(sessions[client_id], client_id,
                                       payload)
            else:
                cost = sessions[client_id].process(payload)
            results[client_id].record(cost, arrival_time)


def _process_traced(session: ClientSession, client_id: int,
                    record: TraceRecord) -> QueryCost:
    """Run one query under an open ``query`` span, annotated with its cost."""
    instrument = obs.active()
    with instrument.span("query", client=client_id, seq=record.index,
                         kind=record.query.query_type.value):
        cost = session.process(record)
        instrument.annotate(
            pages=cost.server_page_reads,
            uplink_bytes=cost.uplink_bytes,
            downlink_bytes=cost.downlink_bytes,
            contacted_server=cost.contacted_server)
    instrument.count("repro_queries_total", 1.0, kind=cost.query_type)
    instrument.count("repro_query_pages_total", float(cost.server_page_reads))
    return cost
