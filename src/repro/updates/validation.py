"""The consistency-validation service behind the versioned protocol.

The versioned protocol's handshake is a pure request/response exchange:
the client sends one *stamp* per cached item (what it holds and at which
version), the server answers one *verdict* per stamp (keep it, drop it, or
refresh it with fresh bytes).  This module names that exchange so the same
client-side protocol code runs against two service implementations:

* :class:`LocalValidationService` — answers from the in-process
  :class:`~repro.updates.applier.Updater`; this is the classic simulated
  deployment;
* ``repro.net.client.NetValidationService`` — ships the same stamps over
  the wire to a :class:`~repro.net.server.ReproServer` and decodes the
  same verdicts, which is what keeps the loopback-networked fleets
  *byte-identical* to the in-process ones.

The verdict for each stamp is computed from server-side state only, so
batching the whole cache's stamps into one exchange is decision-identical
to the old one-item-at-a-time validation: a verdict can only be *applied
or skipped* client-side (an earlier drop may have removed the item), never
changed by another verdict.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.items import CachedIndexNode
from repro.rtree.entry import ObjectRecord
from repro.updates.applier import Updater

#: Verdict actions (wire constants — never renumber).
VALID = 0
DROP = 1
REFRESH = 2


@dataclass(frozen=True, slots=True)
class ValidationStamp:
    """One cached item's identity and version, as the client reports it.

    ``parent_id`` is the node id of the item's *cached* parent (``None``
    for a root-attached item): the server compares it against the live
    hierarchy so an item that moved since it was cached is dropped rather
    than silently refreshed in the wrong position.
    """

    is_node: bool
    item_id: int
    cached_version: int
    parent_id: Optional[int]


@dataclass(slots=True)
class ValidationVerdict:
    """The server's answer for one stamp.

    ``action`` is :data:`VALID`, :data:`DROP` or :data:`REFRESH`.  A node
    refresh carries the full snapshot plus its leaf flag (the client uses
    it to re-check ownership of cached child objects); an object refresh
    carries the fresh record.  ``version`` is the server's current version
    stamp of the refreshed item.
    """

    action: int
    version: int = 0
    node: Optional[CachedIndexNode] = None
    is_leaf: bool = False
    record: Optional[ObjectRecord] = None


class ValidationService(abc.ABC):
    """What the versioned protocol needs from the server side."""

    @abc.abstractmethod
    def validate(self, stamps: Sequence[ValidationStamp]
                 ) -> List[ValidationVerdict]:
        """One verdict per stamp, in stamp order."""

    @abc.abstractmethod
    def current_versions(self, node_ids: Sequence[int],
                         object_ids: Sequence[int]
                         ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The server's current version stamps of the named items.

        Items without a registry entry are simply absent from the returned
        mappings (the protocol leaves its cached stamp untouched for them).
        """

    def finish_sync(self, uplink_bytes: int, downlink_bytes: int) -> None:
        """Hook invoked once per completed handshake with its billed bytes.

        The local service ignores it; the networked service bills the
        modelled bytes to the client's wireless channel and reports the
        applied downlink back to the server's per-connection ledger.
        """


class LocalValidationService(ValidationService):
    """Answer validation requests from the in-process dataset updater."""

    def __init__(self, updater: Updater) -> None:
        self.updater = updater

    # -- verdict computation ---------------------------------------------- #
    def validate(self, stamps: Sequence[ValidationStamp]
                 ) -> List[ValidationVerdict]:
        """One verdict per stamp, read from the live tree and registry."""
        return [self._validate_node(stamp) if stamp.is_node
                else self._validate_object(stamp) for stamp in stamps]

    def _validate_node(self, stamp: ValidationStamp) -> ValidationVerdict:
        from repro.updates.protocol import full_node_snapshot
        registry = self.updater.registry
        tree = self.updater.tree
        node_id = stamp.item_id
        current = registry.node_version(node_id)
        if current is None or node_id not in tree.store:
            return ValidationVerdict(action=DROP)
        if current == stamp.cached_version:
            return ValidationVerdict(action=VALID)
        node = tree.store.peek(node_id)
        if not node.entries or node.parent_id != stamp.parent_id:
            return ValidationVerdict(action=DROP)
        snapshot = full_node_snapshot(self.updater.server, node_id)
        return ValidationVerdict(action=REFRESH, version=current,
                                 node=snapshot, is_leaf=node.is_leaf)

    def _validate_object(self, stamp: ValidationStamp) -> ValidationVerdict:
        registry = self.updater.registry
        tree = self.updater.tree
        object_id = stamp.item_id
        current = registry.object_version(object_id)
        if current is None:
            return ValidationVerdict(action=DROP)
        if current == stamp.cached_version:
            return ValidationVerdict(action=VALID)
        record = tree.objects.get(object_id)
        if record is None:
            return ValidationVerdict(action=DROP)
        if stamp.parent_id is not None:
            # The client holds the object under a cached leaf: the live
            # hierarchy must still agree before a refresh-in-place is safe.
            leaf_id = stamp.parent_id
            still_owned = (leaf_id in tree.store
                           and any(entry.object_id == object_id
                                   for entry in
                                   tree.store.peek(leaf_id).entries))
            if not still_owned:
                return ValidationVerdict(action=DROP)
        # A root-attached stamp (parent_id=None) makes no hierarchy claim:
        # the record still existing is all a refresh needs.  (Pre-PR-9 this
        # path dropped every version-changed parentless object outright.)
        return ValidationVerdict(action=REFRESH, version=current,
                                 record=record)

    # -- version stamps for fresh responses -------------------------------- #
    def current_versions(self, node_ids: Sequence[int],
                         object_ids: Sequence[int]
                         ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Registry lookups; unregistered items are omitted."""
        registry = self.updater.registry
        node_versions: Dict[int, int] = {}
        for node_id in node_ids:
            version = registry.node_version(node_id)
            if version is not None:
                node_versions[node_id] = version
        object_versions: Dict[int, int] = {}
        for object_id in object_ids:
            version = registry.object_version(object_id)
            if version is not None:
                object_versions[object_id] = version
        return node_versions, object_versions
