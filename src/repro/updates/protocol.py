"""Client-side cache-consistency protocols for dynamic datasets.

Three protocols, selected per fleet with ``--consistency``:

``versioned`` — version-stamped nodes with lazy (pull-based) validation.
    Before each query the client piggybacks the ids and version stamps of
    every cached item on the uplink; the server answers with a per-item
    verdict — *valid* (unchanged), *refresh* (content changed in place:
    fresh bytes ship and are billed on the downlink) or *drop* (the page
    or object is gone, or moved so its cached position in the hierarchy is
    wrong: the item and its cached descendants are invalidated).  After the
    handshake the cache is coherent with the current tree, so query results
    are exact; the price is per-query validation traffic.

``ttl`` — the classic time-to-live baseline.  Items expire ``ttl_seconds``
    of simulated time after they were last shipped; expired subtrees are
    invalidated before the query runs.  No validation traffic, but results
    may be stale for up to one TTL window.

``none`` — the staleness baseline: never validate, never expire.  With
    ``update_rate == 0`` this is *decision-identical* to a static (PR 3)
    fleet — byte-identical cache digests — because no protocol code path
    touches the cache at all.

All wire traffic is modelled in exact bytes through the shared
:class:`~repro.rtree.sizes.SizeModel` and lands in the per-query
:class:`~repro.core.cost_model.QueryCost` (``sync_uplink_bytes`` /
``sync_downlink_bytes``), so staleness-vs-traffic trade-offs show up in the
ordinary headline metrics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.cache import CacheItemState, ProactiveCache
from repro.core.items import CachedIndexNode, CachedObject, CacheEntry
from repro.core.handles import LocalServerHandle
from repro.core.server import ServerResponse
from repro.obs import instrument as obs
from repro.rtree.sizes import SizeModel
from repro.updates.applier import Updater
from repro.updates.stream import CONSISTENCY_MODES
from repro.updates.validation import (
    DROP,
    REFRESH,
    LocalValidationService,
    ValidationService,
    ValidationStamp,
    ValidationVerdict,
)

#: Wire bytes of one version stamp (a 32-bit counter).
VERSION_BYTES = 4


@dataclass
class CacheSyncReport:
    """What one pre-query consistency handshake cost and did."""

    uplink_bytes: int = 0
    downlink_bytes: int = 0
    refreshed_items: int = 0
    dropped_items: int = 0

    @property
    def contacted_server(self) -> bool:
        """True when the handshake involved a round trip."""
        return self.uplink_bytes > 0


def full_node_snapshot(server: LocalServerHandle,
                       node_id: int) -> CachedIndexNode:
    """The full (all-real-entries) cached form of a node's current content.

    This is what the server ships when a validation verdict says *refresh*:
    the node's complete entry set, coded through its (freshly rebuilt)
    partition tree so later compact-form merges keep working.
    """
    node = server.tree.store.peek(node_id)
    pt = server.partition_tree_for(node_id)
    elements: Dict[str, CacheEntry] = {}
    for entry in node.entries:
        code = pt.entry_code(entry)
        if entry.is_leaf_entry:
            elements[code] = CacheEntry(mbr=entry.mbr, code=code,
                                        object_id=entry.object_id)
        else:
            elements[code] = CacheEntry(mbr=entry.mbr, code=code,
                                        child_id=entry.child_id)
    return CachedIndexNode(node_id=node_id, level=node.level,
                           elements=elements)


class ConsistencyProtocol(abc.ABC):
    """Per-session consistency state and the pre-query synchronisation hook."""

    name = "base"

    @abc.abstractmethod
    def sync(self, cache: ProactiveCache, now: float,
             context: Optional[dict] = None) -> CacheSyncReport:
        """Reconcile the cache with the server before a query executes."""

    def note_response(self, cache: ProactiveCache, response: ServerResponse,
                      now: float) -> None:
        """Record protocol metadata for items a query response just cached."""

    # -- persistence (dynamic halt/resume) -------------------------------- #
    def state_dict(self) -> dict:
        """Snapshot the per-session protocol state for a warm restart.

        Protocols with no state beyond their configuration (rebuilt by the
        session factory) return just the envelope.
        """
        return {"format": 1, "kind": f"{self.name}-protocol"}

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`state_dict`."""
        self._check_snapshot(state)

    def _check_snapshot(self, state: dict) -> None:
        expected = f"{self.name}-protocol"
        if state.get("format") != 1 or state.get("kind") != expected:
            raise ValueError(f"not a {expected} snapshot: "
                             f"{state.get('kind')!r}")


class TTLProtocol(ConsistencyProtocol):
    """Expire cached items a fixed simulated-time budget after shipping."""

    name = "ttl"

    def __init__(self, ttl_seconds: float) -> None:
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.ttl_seconds = ttl_seconds
        self._shipped_at: Dict[str, float] = {}

    def sync(self, cache: ProactiveCache, now: float,
             context: Optional[dict] = None) -> CacheSyncReport:
        """Invalidate every cached subtree older than the TTL (no traffic).

        Dropping an expired ancestor drops its cached descendants with it
        (the cache's structural constraint), even when those are younger.
        """
        report = CacheSyncReport()
        self._shipped_at = {key: at for key, at in self._shipped_at.items()
                            if key in cache.items}
        expired = [key for key in cache.items
                   if now - self._shipped_at.get(key, now) > self.ttl_seconds]
        for key in expired:
            if key in cache.items:
                report.dropped_items += len(cache.invalidate_subtree(key))
        if obs.ENABLED:
            obs.active().event("consistency.sync", protocol=self.name,
                               dropped=report.dropped_items)
        return report

    def note_response(self, cache: ProactiveCache, response: ServerResponse,
                      now: float) -> None:
        """Stamp (or re-stamp) the shipping time of every item now cached."""
        from repro.core.items import item_key_for_node, item_key_for_object
        for snapshot in response.index_snapshots:
            if cache.has_node(snapshot.node_id):
                self._shipped_at[item_key_for_node(snapshot.node_id)] = now
        for delivery in response.deliveries:
            if cache.has_object(delivery.record.object_id):
                self._shipped_at[
                    item_key_for_object(delivery.record.object_id)] = now

    # -- persistence (dynamic halt/resume) -------------------------------- #
    # repro: allow[STM01] ttl_seconds is constructor configuration the
    # session factory re-injects on resume.
    def state_dict(self) -> dict:
        """Snapshot the shipping-time table (simulated-clock stamps)."""
        return {"format": 1, "kind": "ttl-protocol",
                "shipped_at": dict(self._shipped_at)}

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`state_dict`."""
        self._check_snapshot(state)
        self._shipped_at = dict(state["shipped_at"])


class VersionedProtocol(ConsistencyProtocol):
    """Version-stamped nodes with lazy validation against a server service.

    The protocol is pure client-side logic: it builds one
    :class:`~repro.updates.validation.ValidationStamp` per cached item,
    hands the batch to a
    :class:`~repro.updates.validation.ValidationService` and applies the
    verdicts in stamp order.  With the default
    :class:`~repro.updates.validation.LocalValidationService` this is the
    classic in-process deployment; with the networked service the same
    stamps travel over the wire and the same verdicts come back, which is
    what keeps the loopback fleets byte-identical.
    """

    name = "versioned"

    def __init__(self, updater: Optional[Updater] = None,
                 size_model: Optional[SizeModel] = None,
                 service: Optional[ValidationService] = None) -> None:
        if service is None:
            if updater is None:
                raise ValueError("VersionedProtocol needs an updater or a "
                                 "validation service")
            service = LocalValidationService(updater)
        if size_model is None:
            if updater is None:
                raise ValueError("a service-backed VersionedProtocol needs "
                                 "an explicit size_model")
            size_model = updater.tree.size_model
        self.updater = updater
        self.service = service
        self.size_model = size_model
        self._node_versions: Dict[int, int] = {}
        self._object_versions: Dict[int, int] = {}

    # -- helpers --------------------------------------------------------- #
    def _stamp_for(self, state: CacheItemState) -> ValidationStamp:
        """The identity/version stamp one cached item piggybacks uplink."""
        parent_id: Optional[int] = None
        if state.parent_key is not None:
            parent_id = int(state.parent_key.partition(":")[2])
        if state.is_index_item:
            item_id = state.payload.node_id
            cached = self._node_versions.get(item_id, 1)
        else:
            item_id = state.payload.object_id
            cached = self._object_versions.get(item_id, 1)
        return ValidationStamp(is_node=state.is_index_item, item_id=item_id,
                               cached_version=cached, parent_id=parent_id)

    def _drop(self, cache: ProactiveCache, key: str,
              report: CacheSyncReport) -> None:
        for removed in cache.invalidate_subtree(key):
            report.dropped_items += 1
            state_kind, _, raw_id = removed.partition(":")
            if state_kind == "node":
                self._node_versions.pop(int(raw_id), None)
            else:
                self._object_versions.pop(int(raw_id), None)

    # -- the handshake ---------------------------------------------------- #
    def sync(self, cache: ProactiveCache, now: float,
             context: Optional[dict] = None) -> CacheSyncReport:
        """Validate every cached item against the server's version stamps.

        The client cannot know whether the dataset changed without asking,
        so every query with a non-empty cache pays the handshake — that
        per-query validation traffic *is* the protocol's cost and is
        exactly what the staleness-vs-traffic comparisons measure.  Only
        an empty cache (nothing to validate) skips the round trip.
        """
        report = CacheSyncReport()
        if not cache.items:
            return report
        # Stamps of items the replacement policy has since evicted are
        # dead weight; prune them so the tables track the live cache.
        self._node_versions = {
            node_id: version for node_id, version in self._node_versions.items()
            if f"node:{node_id}" in cache.items}
        self._object_versions = {
            object_id: version
            for object_id, version in self._object_versions.items()
            if f"obj:{object_id}" in cache.items}
        keys = list(cache.items)
        stamps = [self._stamp_for(cache.items[key]) for key in keys]
        stamp_bytes = self.size_model.pointer_bytes + VERSION_BYTES
        report.uplink_bytes = (self.size_model.query_header_bytes
                               + stamp_bytes * len(keys))
        # Verdict vector: one byte per validated item, plus the header.
        report.downlink_bytes = self.size_model.query_header_bytes + len(keys)
        verdicts = self.service.validate(stamps)
        if len(verdicts) != len(stamps):
            raise ValueError(f"validation service answered {len(verdicts)} "
                             f"verdicts for {len(stamps)} stamps")
        for key, stamp, verdict in zip(keys, stamps, verdicts):
            state = cache.items.get(key)
            if state is None:  # removed with an earlier key's drop cascade
                continue
            if stamp.is_node:
                self._apply_node_verdict(cache, key, state, stamp, verdict,
                                         report, context)
            else:
                self._apply_object_verdict(cache, key, stamp, verdict,
                                           report, context)
        self.service.finish_sync(report.uplink_bytes, report.downlink_bytes)
        if obs.ENABLED:
            obs.active().event("consistency.sync", protocol=self.name,
                               validated=len(keys),
                               refreshed=report.refreshed_items,
                               dropped=report.dropped_items,
                               uplink_bytes=report.uplink_bytes,
                               downlink_bytes=report.downlink_bytes)
        return report

    def _apply_node_verdict(self, cache: ProactiveCache, key: str,
                            state: CacheItemState, stamp: ValidationStamp,
                            verdict: ValidationVerdict,
                            report: CacheSyncReport,
                            context: Optional[dict]) -> None:
        if verdict.action == DROP:
            self._drop(cache, key, report)
            return
        if verdict.action != REFRESH:
            return
        snapshot = verdict.node
        if snapshot is None:
            raise ValueError("node REFRESH verdict without a snapshot")
        size = snapshot.size_bytes(self.size_model)
        report.downlink_bytes += size
        cache.refresh_item(key, snapshot, size, context)
        report.refreshed_items += 1
        self._node_versions[stamp.item_id] = verdict.version
        if verdict.is_leaf:
            # Cached objects filed under this leaf must still be owned by
            # it; a split may have moved them to a sibling page.
            owned = {element.object_id
                     for element in snapshot.elements.values()
                     if element.object_id is not None}
            for child_key in list(state.cached_children):
                child = cache.items.get(child_key)
                if (child is not None and not child.is_index_item
                        and child.payload.object_id not in owned):
                    self._drop(cache, child_key, report)

    def _apply_object_verdict(self, cache: ProactiveCache, key: str,
                              stamp: ValidationStamp,
                              verdict: ValidationVerdict,
                              report: CacheSyncReport,
                              context: Optional[dict]) -> None:
        if verdict.action == DROP:
            self._drop(cache, key, report)
            return
        if verdict.action != REFRESH:
            return
        record = verdict.record
        if record is None:
            raise ValueError("object REFRESH verdict without a record")
        payload = CachedObject(object_id=stamp.item_id, mbr=record.mbr,
                               size_bytes=record.size_bytes)
        report.downlink_bytes += record.size_bytes
        cache.refresh_item(key, payload, record.size_bytes, context)
        report.refreshed_items += 1
        self._object_versions[stamp.item_id] = verdict.version

    # -- persistence (dynamic halt/resume) -------------------------------- #
    # repro: allow[STM01] updater and size_model are live wiring the
    # session factory re-injects on resume.
    def state_dict(self) -> dict:
        """Snapshot the per-item version tables (id keys become strings)."""
        return {
            "format": 1, "kind": "versioned-protocol",
            "node_versions": {str(node_id): version for node_id, version
                              in self._node_versions.items()},
            "object_versions": {str(object_id): version for object_id, version
                                in self._object_versions.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`state_dict`."""
        self._check_snapshot(state)
        self._node_versions = {int(node_id): version for node_id, version
                               in state["node_versions"].items()}
        self._object_versions = {int(object_id): version for object_id, version
                                 in state["object_versions"].items()}

    # -- learning versions from responses --------------------------------- #
    def note_response(self, cache: ProactiveCache, response: ServerResponse,
                      now: float) -> None:
        """Stamp the versions the server just shipped for cached items.

        The server stamped the shipped content with its current versions,
        so the lookup is metadata the response already carried — it is not
        billed as extra traffic, locally or over the wire.
        """
        node_ids = [snapshot.node_id for snapshot in response.index_snapshots
                    if cache.has_node(snapshot.node_id)]
        object_ids = [delivery.record.object_id
                      for delivery in response.deliveries
                      if cache.has_object(delivery.record.object_id)]
        if not node_ids and not object_ids:
            return
        node_versions, object_versions = self.service.current_versions(
            node_ids, object_ids)
        self._node_versions.update(node_versions)
        self._object_versions.update(object_versions)


def make_protocol(mode: str, updater: Optional[Updater] = None,
                  size_model: Optional[SizeModel] = None,
                  ttl_seconds: float = 120.0,
                  service: Optional[ValidationService] = None,
                  ) -> Optional[ConsistencyProtocol]:
    """Instantiate a consistency protocol by CLI name.

    Returns ``None`` for ``"none"``: the staleness baseline attaches no
    protocol object at all, so the static code path stays literally
    untouched — which is what makes the zero-update digest-identity
    guarantee trivial to uphold.  ``versioned`` requires an ``updater``
    (it validates against the updater's registry and live tree) or an
    explicit validation ``service`` (the networked deployments pass the
    wire-backed one, plus the fleet's shared ``size_model``).
    """
    key = (mode or "none").lower()
    if key not in CONSISTENCY_MODES:
        raise ValueError(f"unknown consistency mode {mode!r}; expected one "
                         f"of {', '.join(CONSISTENCY_MODES)}")
    if key == "none":
        return None
    if key == "ttl":
        return TTLProtocol(ttl_seconds=ttl_seconds)
    if updater is None and service is None:
        raise ValueError("versioned consistency needs a DatasetUpdater or "
                         "a ValidationService")
    return VersionedProtocol(updater, size_model=size_model, service=service)
