"""Version stamps for node pages and object records.

The versioned consistency protocol needs one fact per cached item: *has the
server-side original changed since this copy was shipped?*  The registry
answers it with monotonically increasing per-id version counters — every
page whose content changes (entries added, removed, MBR adjusted) and every
object record that is inserted, modified or deleted gets a bump from the
:class:`~repro.updates.applier.DatasetUpdater`.  Versions start at 1 for
anything that existed before the first update; page and object ids are
never reused by either storage backend, so a dead id can simply be marked
dead forever.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.storage.backend import StorageError


class VersionRegistry:
    """Per-id version counters for nodes and objects, plus death records.

    The registry is also the MVCC gatekeeper of the durable write path:
    the updater brackets every batch with :meth:`begin_batch` /
    :meth:`commit_batch`, and readers call :meth:`pin` at query start.
    ``committed_version`` only advances at commit, and pinning inside an
    open batch raises — so a scatter-gather query can never observe a
    half-applied batch, and a pin taken before a crash names a version
    recovery is guaranteed to reach.
    """

    def __init__(self) -> None:
        self.node_versions: Dict[int, int] = {}
        self.object_versions: Dict[int, int] = {}
        self.dead_nodes: Set[int] = set()
        self.dead_objects: Set[int] = set()
        #: Bumped once per applied update event; cheap "anything changed?" probe.
        self.dataset_version = 0
        #: ``dataset_version`` as of the last completed batch.
        self.committed_version = 0
        self._in_batch = False

    # ------------------------------------------------------------------ #
    # batch bracketing and read pinning (MVCC)
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> None:
        """Open an update batch; reads are barred until it commits."""
        if self._in_batch:
            raise StorageError("update batch already open (re-entrant or "
                               "concurrent batches are not supported)")
        self._in_batch = True

    def commit_batch(self) -> int:
        """Close the open batch, publishing its dataset version to readers."""
        if not self._in_batch:
            raise StorageError("commit_batch without begin_batch")
        self._in_batch = False
        self.committed_version = self.dataset_version
        return self.committed_version

    def pin(self) -> int:
        """Stamp a read: the committed version this query executes against.

        Raises when a batch is mid-apply — the one moment derived state
        (page images, partition trees, version tables) may be internally
        inconsistent.
        """
        if self._in_batch:
            raise StorageError("cannot pin a read mid-batch: an update "
                               "batch is being applied")
        return self.committed_version

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    # repro: allow[STM01] _in_batch is per-process transient state: a
    # snapshot is only taken between batches, where it is always False.
    def state_dict(self) -> dict:
        """JSON-ready snapshot; id keys become strings, sets sorted lists."""
        return {
            "format": 1,
            "kind": "version-registry",
            "dataset_version": self.dataset_version,
            "committed_version": self.committed_version,
            "node_versions": {str(node_id): version for node_id, version
                              in self.node_versions.items()},
            "object_versions": {str(object_id): version for object_id, version
                                in self.object_versions.items()},
            "dead_nodes": sorted(self.dead_nodes),
            "dead_objects": sorted(self.dead_objects),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`state_dict`."""
        if state.get("format") != 1 or state.get("kind") != "version-registry":
            raise StorageError(f"not a version-registry snapshot: "
                               f"{state.get('kind')!r}")
        self.dataset_version = state["dataset_version"]
        self.committed_version = state["committed_version"]
        self.node_versions = {int(node_id): version for node_id, version
                              in state["node_versions"].items()}
        self.object_versions = {int(object_id): version for object_id, version
                                in state["object_versions"].items()}
        self.dead_nodes = set(state["dead_nodes"])
        self.dead_objects = set(state["dead_objects"])
        self._in_batch = False

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def node_version(self, node_id: int) -> Optional[int]:
        """Current version of a node page; ``None`` when the page is dead."""
        if node_id in self.dead_nodes:
            return None
        return self.node_versions.get(node_id, 1)

    def object_version(self, object_id: int) -> Optional[int]:
        """Current version of an object record; ``None`` when deleted."""
        if object_id in self.dead_objects:
            return None
        return self.object_versions.get(object_id, 1)

    # ------------------------------------------------------------------ #
    # mutation (the updater drives these)
    # ------------------------------------------------------------------ #
    def bump_node(self, node_id: int) -> int:
        """Record that a node page's content changed; returns the new version."""
        self.dead_nodes.discard(node_id)
        version = self.node_versions.get(node_id, 1) + 1
        self.node_versions[node_id] = version
        return version

    def bump_object(self, object_id: int) -> int:
        """Record that an object record changed; returns the new version."""
        self.dead_objects.discard(object_id)
        version = self.object_versions.get(object_id, 1) + 1
        self.object_versions[object_id] = version
        return version

    def drop_node(self, node_id: int) -> None:
        """Record that a node page was freed."""
        self.dead_nodes.add(node_id)

    def drop_object(self, object_id: int) -> None:
        """Record that an object record was deleted."""
        self.dead_objects.add(object_id)
