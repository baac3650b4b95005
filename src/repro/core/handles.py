"""The server seams, each stated once as a structural protocol.

In the paper a client knows its server through one exchange — (query +
remainder) in, (results + supporting index) out — plus a few bytes of root
catalogue.  :class:`ServerHandle` is that exchange as a type; everything a
session, the wire server and :meth:`Deployment.connect
<repro.sim.deployment.Deployment.connect>` hold is one of these, whether
the answers come from a :class:`~repro.core.server.ServerQueryProcessor`,
a :class:`~repro.sharding.router.ShardRouter` or a
:class:`~repro.net.client.RemoteSessionClient` behind a socket.
:class:`LocalServerHandle` adds what only an in-process server can offer
(its tree view, partition trees and version registry) and is what the
consistency-validation side programs against.

The protocols are structural: implementers do **not** inherit from them (a
``Protocol`` base slows ``__init__`` and changes the MRO of hot-path
classes); ``tests/test_seams.py`` pins who satisfies what.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.rtree.tree import TreeView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.remainder import RemainderQuery
    from repro.core.server import ServerResponse
    from repro.core.supporting_index import SupportingIndexPolicy
    from repro.geometry import Rect
    from repro.rtree.partition_tree import PartitionTree
    from repro.workload.queries import Query

__all__ = ["LocalServerHandle", "ServerHandle", "TreeView", "VersionPin"]


@runtime_checkable
class VersionPin(Protocol):
    """What a server needs of the update pipeline's version registry.

    A query pins the committed dataset version when it starts (MVCC);
    pinning raises mid-batch, so a reader never observes a half-applied
    update batch.  Keeps the core tier below :mod:`repro.updates`.
    """

    def pin(self) -> int: ...


@runtime_checkable
class ServerHandle(Protocol):
    """Whatever answers a client's (remainder) queries."""

    @property
    def root_id(self) -> int: ...

    @property
    def root_mbr(self) -> Rect: ...

    def execute(self, query: Query,
                remainder: Optional[RemainderQuery] = None,
                policy: Optional[SupportingIndexPolicy] = None) -> ServerResponse: ...


@runtime_checkable
class LocalServerHandle(ServerHandle, Protocol):
    """A :class:`ServerHandle` living in this process."""

    @property
    def tree(self) -> TreeView: ...

    @property
    def registry(self) -> Optional[VersionPin]: ...

    def partition_tree_for(self, node_id: int) -> PartitionTree: ...
