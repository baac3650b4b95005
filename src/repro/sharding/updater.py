"""Routing dataset updates to their owning shard.

:class:`ShardedUpdater` is the sharded counterpart of
:class:`~repro.updates.applier.DatasetUpdater`: both satisfy
:class:`~repro.updates.applier.Updater`, so a dynamic sharded fleet plugs
into :func:`repro.updates.protocol.make_protocol` unchanged.

Routing rules (deterministic by construction):

* **insert** — the new object goes to the shard whose *static partition
  region* contains its centre (the same rule for the life of the
  deployment, persisted in the shard manifest);
* **delete / modify** — routed to the object's *current owner* through the
  router's owner table.  A modify keeps the object in its shard even when
  it drifts across a region boundary: the shard's live root MBR (which all
  query pruning uses) grows to cover it, so results stay exact and
  ownership stays stable.

Every shard has its own :class:`DatasetUpdater` (per-shard dirty-page
tracking and partition-tree invalidation) but all of them stamp one shared
:class:`~repro.updates.registry.VersionRegistry` — page ids are globally
disjoint and object ids globally unique, so one registry serves the whole
deployment, and the router's virtual root participates in versioning like
any real page (its content changes when a shard root splits, shrinks or
changes MBR).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sessions import GroundTruthCache

from repro.updates.applier import DatasetUpdater
from repro.updates.registry import VersionRegistry
from repro.updates.stream import UpdateEvent
from repro.sharding.router import ShardRouter


class ShardedUpdater:
    """Applies one shared update history across the shard set."""

    def __init__(self, router: ShardRouter,
                 ground_truth: Optional["GroundTruthCache"] = None,
                 registry: Optional[VersionRegistry] = None) -> None:
        self.router = router
        self.registry = registry or VersionRegistry()
        self.ground_truth = ground_truth
        router.registry = self.registry
        # The consistency protocols address "the server" through these two.
        self.tree = router.tree
        self.server = router
        self._shard_updaters: List[DatasetUpdater] = [
            DatasetUpdater(shard.tree, shard.server, ground_truth=None,
                           registry=self.registry)
            for shard in router.shards]
        self.skipped = 0

    # ------------------------------------------------------------------ #
    # applying events
    # ------------------------------------------------------------------ #
    def apply(self, event: UpdateEvent) -> bool:
        """Route one update event to its shard; returns False on a no-op."""
        router = self.router
        if event.kind == "insert":
            if router.owner_of(event.object_id) is not None:
                self.skipped += 1
                return False
            touched = router.plan.region_index_for(event.mbr.center())
            applied = self._shard_updaters[touched].apply(event)
            if applied:
                router.adopt_object(event.object_id, touched)
        else:
            touched = router.owner_of(event.object_id)
            if touched is None:
                self.skipped += 1
                return False
            applied = self._shard_updaters[touched].apply(event)
            if applied and event.kind == "delete":
                router.release_object(event.object_id)
        if applied:
            # Fence the partition-result cache's facts for the mutated
            # shard (the registry has already stamped the new version).
            router.note_shard_mutated(touched)
            router.refresh_virtual_root()
            if self.ground_truth is not None:
                self.ground_truth.clear()
        return applied

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, int]:
        """Deterministic counters pooled across the shard updaters."""
        pooled = {"applied": 0, "skipped": self.skipped, "inserts": 0,
                  "deletes": 0, "modifies": 0, "wal_commits": 0}
        for updater in self._shard_updaters:
            shard_summary = updater.summary()
            pooled["applied"] += shard_summary["applied"]
            pooled["skipped"] += shard_summary["skipped"]
            pooled["inserts"] += shard_summary["inserts"]
            pooled["deletes"] += shard_summary["deletes"]
            pooled["modifies"] += shard_summary["modifies"]
            pooled["wal_commits"] += shard_summary["wal_commits"]
        pooled["dataset_version"] = self.registry.dataset_version
        pooled["live_objects"] = len(self.tree.objects)
        return pooled
