"""Applying update events to the live server: tree mutation + dirty tracking.

:class:`DatasetUpdater` is the server-side half of the dynamic-dataset
subsystem.  It owns the shared R-tree (in memory or on a copy-on-write
paged backend), mutates it through the ordinary R* insert / delete paths,
and — the part everything downstream depends on — works out exactly which
pages the mutation touched by diffing cheap per-node content fingerprints
before and after.  Dirty pages get their versions bumped in the
:class:`~repro.updates.registry.VersionRegistry` and their memoised
partition trees dropped (the server lazily rebuilds them); the shared
ground-truth memo is cleared because its cached result sets are stale.

Dirty detection is funnel-based: while an event applies, the updater wraps
the store's ``edit`` / ``allocate`` / ``free`` methods — the only paths a
structural mutation can take — and afterwards re-fingerprints exactly the
touched pages.  That handles every mutation shape (splits, forced
reinsertion, condense cascades, root growth and shrink) in O(touched
pages), and on a copy-on-write paged backend never re-decodes untouched
file pages.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sessions import GroundTruthCache

from repro.core.handles import LocalServerHandle
from repro.core.server import ServerQueryProcessor
from repro.obs import instrument as obs
from repro.rtree.entry import ObjectRecord
from repro.rtree.node import Node
from repro.rtree.serialize import encode_node, encode_object
from repro.rtree.tree import RTree, TreeView
from repro.storage.paged import PagedFileBackend
from repro.storage.wal import Delta, WalRecord
from repro.updates.registry import VersionRegistry
from repro.updates.stream import UpdateEvent


def _node_fingerprint(node: Node) -> Tuple:
    """A content tuple that changes iff the shipped form of the page changes."""
    return (node.level, node.parent_id,
            tuple((entry.child_id, entry.object_id,
                   entry.mbr.min_x, entry.mbr.min_y,
                   entry.mbr.max_x, entry.mbr.max_y)
                  for entry in node.entries))


@runtime_checkable
class Updater(Protocol):
    """Whatever applies a fleet's mutation history to its server side.

    What the consistency protocols, the validation service and the
    deployment pipeline hold; satisfied structurally by
    :class:`DatasetUpdater` and the sharded deployment's
    :class:`~repro.sharding.updater.ShardedUpdater`.
    """

    @property
    def registry(self) -> VersionRegistry: ...

    @property
    def tree(self) -> TreeView: ...

    @property
    def server(self) -> LocalServerHandle: ...

    def apply(self, event: UpdateEvent) -> bool: ...

    def summary(self) -> Dict[str, int]: ...


class DatasetUpdater:
    """Mutates the live tree and keeps the server's derived state coherent.

    Parameters
    ----------
    tree:
        The server's R-tree; must be writable (in-memory, or a paged
        backend opened with ``copy_on_write=True``).
    server:
        The query processor whose memoised partition trees must track the
        mutations.
    ground_truth:
        Optional shared ground-truth memo to clear on every mutation.
    registry:
        Version registry to stamp; a fresh one is created when omitted.
    """

    def __init__(self, tree: RTree, server: ServerQueryProcessor,
                 ground_truth: Optional["GroundTruthCache"] = None,
                 registry: Optional[VersionRegistry] = None) -> None:
        self.tree = tree
        self.server = server
        self.ground_truth = ground_truth
        self.registry = registry or VersionRegistry()
        # Queries entering through the server pin the registry's committed
        # version (MVCC): a pin taken mid-batch raises, so readers never
        # observe a half-applied batch.
        server.registry = self.registry
        self.applied = 0
        self.skipped = 0
        self.counts = {"insert": 0, "delete": 0, "modify": 0}
        #: Batches durably committed to a write-ahead log (0 without one).
        self.wal_commits = 0
        self._fingerprints = self._snapshot()

    def _snapshot(self) -> Dict[int, Tuple]:
        return {node.node_id: _node_fingerprint(node)
                for node in self.tree.all_nodes()}

    # ------------------------------------------------------------------ #
    # applying events
    # ------------------------------------------------------------------ #
    def apply(self, event: UpdateEvent) -> bool:
        """Apply one update event; returns False when it was a no-op.

        A delete or modify of an id that no longer exists, or an insert of
        an id that already does, is skipped (counted in :attr:`skipped`) —
        this keeps replaying *subsets* of a logged event list legal, which
        the property harness's shrink loop relies on.
        """
        return self.apply_batch((event,)) == 1

    def apply_batch(self, events: Iterable[UpdateEvent]) -> int:
        """Apply a batch of events as one atomic commit; returns applied count.

        The whole batch is bracketed by the registry's
        :meth:`~repro.updates.registry.VersionRegistry.begin_batch` /
        ``commit_batch`` (readers pinning a version mid-batch raise), and —
        when the tree's store carries a write-ahead log — lands on disk as
        exactly one commit record, fsync'd once before this call returns, so
        a crash either persists the batch completely or not at all.  If the
        append fails the exception propagates and the log refuses further
        commits until the store is recovered.
        """
        touched: Set[int] = set()
        freed: Set[int] = set()
        deltas: List[Tuple[int, Optional[ObjectRecord]]] = []
        applied = 0
        self.registry.begin_batch()
        try:
            with self._watch_store(touched, freed):
                for event in events:
                    if self._apply_event(event, deltas):
                        applied += 1
            if applied:
                changed = self._propagate_dirty(touched, freed)
                self.registry.dataset_version += applied
                self._commit(changed, freed, deltas)
        finally:
            self.registry.commit_batch()
        return applied

    def _apply_event(self, event: UpdateEvent,
                     deltas: List[Tuple[int, Optional[ObjectRecord]]]) -> bool:
        """Mutate the tree for one event, recording its object deltas."""
        mutated = False
        if event.kind == "insert":
            if event.object_id not in self.tree.objects:
                record = ObjectRecord(object_id=event.object_id,
                                      mbr=event.mbr,
                                      size_bytes=event.size_bytes)
                self.tree.insert(record)
                self.registry.bump_object(event.object_id)
                deltas.append((event.object_id, record))
                mutated = True
        elif event.kind == "delete":
            if self.tree.delete(event.object_id):
                self.registry.drop_object(event.object_id)
                deltas.append((event.object_id, None))
                mutated = True
        else:  # modify: atomic delete + reinsert under the same id
            if self.tree.delete(event.object_id):
                record = ObjectRecord(object_id=event.object_id,
                                      mbr=event.mbr,
                                      size_bytes=event.size_bytes)
                self.tree.insert(record)
                self.registry.bump_object(event.object_id)
                # Two deltas, mirroring the operational order, so replay
                # reproduces the dict-reinsertion position exactly.
                deltas.append((event.object_id, None))
                deltas.append((event.object_id, record))
                mutated = True
        if not mutated:
            self.skipped += 1
            return False
        self.applied += 1
        self.counts[event.kind] += 1
        return True

    def _commit(self, changed: Set[int], freed: Set[int],
                deltas: List[Tuple[int, Optional[ObjectRecord]]]) -> None:
        """Append the batch to the store's WAL, if one is attached."""
        store = self.tree.store
        if not isinstance(store, PagedFileBackend) or store.wal is None:
            return
        pages: List[Delta] = [(node_id, None) for node_id in freed]
        pages.extend((node_id, encode_node(store.peek(node_id)))
                     for node_id in changed)
        record = WalRecord(
            version=self.registry.dataset_version,
            root_id=self.tree.root_id,
            height=self.tree.height,
            next_page_id=store.next_page_id,
            pages=tuple(sorted(pages, key=lambda delta: delta[0])),
            objects=tuple(
                (object_id, None if obj is None else encode_object(obj))
                for object_id, obj in deltas))
        store.commit_record(record)
        self.wal_commits += 1
        if obs.ENABLED:
            obs.active().count("repro_wal_commits_total", 1.0)

    @contextmanager
    def _watch_store(self, touched: set, freed: set) -> Iterator[None]:
        """Record which pages a mutation touches, via the store's own funnel.

        Every structural change flows through ``edit`` / ``allocate`` /
        ``free`` (the RTree mutation paths fetch mutable nodes exclusively
        with ``edit``), so wrapping the three methods for the duration of
        one event yields the exact candidate set to re-fingerprint — no
        whole-tree sweep, and on a copy-on-write paged backend no
        re-decode of untouched file pages.
        """
        store = self.tree.store
        original_edit = store.edit
        original_allocate = store.allocate
        original_free = store.free

        def edit(node_id: int) -> Node:
            touched.add(node_id)
            return original_edit(node_id)

        def allocate(level: int) -> Node:
            node = original_allocate(level)
            touched.add(node.node_id)
            return node

        def free(node_id: int) -> None:
            freed.add(node_id)
            return original_free(node_id)

        store.edit, store.allocate, store.free = edit, allocate, free
        try:
            yield
        finally:
            store.edit = original_edit
            store.allocate = original_allocate
            store.free = original_free

    def _propagate_dirty(self, touched: Set[int], freed: Set[int]) -> Set[int]:
        """Re-fingerprint the touched pages; stamp versions, drop derived state.

        Returns the set of pages whose content actually changed — the page
        images the commit record must carry.
        """
        partition_trees = self.server.partition_trees
        changed: Set[int] = set()
        for node_id in freed:
            self.registry.drop_node(node_id)
            partition_trees.pop(node_id, None)
            self._fingerprints.pop(node_id, None)
        for node_id in touched - freed:
            fingerprint = _node_fingerprint(self.tree.store.peek(node_id))
            if self._fingerprints.get(node_id) != fingerprint:
                self._fingerprints[node_id] = fingerprint
                self.registry.bump_node(node_id)
                partition_trees.pop(node_id, None)
                changed.add(node_id)
        if self.ground_truth is not None:
            self.ground_truth.clear()
        return changed

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, int]:
        """Deterministic counters for reports and perf fingerprints."""
        return {
            "applied": self.applied,
            "skipped": self.skipped,
            "inserts": self.counts["insert"],
            "deletes": self.counts["delete"],
            "modifies": self.counts["modify"],
            "dataset_version": self.registry.dataset_version,
            "live_objects": len(self.tree.objects),
            "wal_commits": self.wal_commits,
        }

    # ------------------------------------------------------------------ #
    # persistence (dynamic halt/resume)
    # ------------------------------------------------------------------ #
    # repro: allow[STM01] tree/server/ground_truth are the live wiring the
    # resume path reconstructs; _fingerprints is re-snapshotted from the
    # restored tree by restore_state.
    def state_dict(self) -> dict:
        """Snapshot the updater's counters and registry for halt/resume."""
        return {
            "format": 1,
            "kind": "dataset-updater",
            "applied": self.applied,
            "skipped": self.skipped,
            "counts": dict(self.counts),
            "wal_commits": self.wal_commits,
            "registry": self.registry.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a halt-time snapshot; the tree must already be at the
        matching state (recovered from a WAL, or rebuilt by replay)."""
        if state.get("format") != 1 or state.get("kind") != "dataset-updater":
            raise ValueError(f"not a dataset-updater snapshot: "
                             f"{state.get('kind')!r}")
        self.applied = state["applied"]
        self.skipped = state["skipped"]
        self.counts = dict(state["counts"])
        self.wal_commits = state["wal_commits"]
        self.registry.restore_state(state["registry"])
        self._fingerprints = self._snapshot()
