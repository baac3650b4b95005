"""Byte-size model for index entries, nodes, objects and wire messages.

The paper's evaluation is entirely in terms of bytes travelling over a
384 Kbps channel and bytes occupying a client cache, so the reproduction
needs a single consistent accounting of "how big is an entry / node /
object / query / remainder query".  This module is that single source of
truth; every cache and the network model consult it.

Defaults follow the paper: 4 KB pages, 10 KB average objects.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SizeModel:
    """Byte sizes of the building blocks of the system.

    Attributes
    ----------
    page_bytes:
        Capacity of one R-tree node (disk page).  The paper uses 4 KB.
    coordinate_bytes:
        Bytes per coordinate; an MBR stores four coordinates.
    pointer_bytes:
        Bytes per child pointer / object id.
    query_header_bytes:
        Fixed overhead of any query message (type tag, client id, ...).
    object_id_bytes:
        Bytes to name one object on the uplink (page caching sends these).
    """

    page_bytes: int = 4096
    coordinate_bytes: int = 8
    pointer_bytes: int = 4
    query_header_bytes: int = 16
    object_id_bytes: int = 8

    # ------------------------------------------------------------------ #
    # index sizes
    # ------------------------------------------------------------------ #
    @property
    def entry_bytes(self) -> int:
        """Bytes of one R-tree entry: an MBR plus a pointer."""
        return 4 * self.coordinate_bytes + self.pointer_bytes

    @property
    def node_capacity(self) -> int:
        """Maximum number of entries per node given the page size."""
        return max(2, self.page_bytes // self.entry_bytes)

    def node_bytes(self, entry_count: int) -> int:
        """Bytes of a (possibly partial / compact) node with ``entry_count`` entries."""
        return self.pointer_bytes + entry_count * self.entry_bytes

    def super_entry_bytes(self) -> int:
        """Bytes of a super entry: an MBR plus the ``(node, code)`` designator."""
        return 4 * self.coordinate_bytes + 2 * self.pointer_bytes

    # ------------------------------------------------------------------ #
    # query / message sizes
    # ------------------------------------------------------------------ #
    def point_bytes(self) -> int:
        """Bytes of an encoded point."""
        return 2 * self.coordinate_bytes

    def rect_bytes(self) -> int:
        """Bytes of an encoded rectangle."""
        return 4 * self.coordinate_bytes

    def query_descriptor_bytes(self, parameter_count: int = 1) -> int:
        """Bytes of a query descriptor with ``parameter_count`` scalar parameters."""
        return self.query_header_bytes + self.rect_bytes() + parameter_count * self.coordinate_bytes

    def id_list_bytes(self, count: int) -> int:
        """Bytes needed to name ``count`` objects (page-caching uplink)."""
        return count * self.object_id_bytes

    def frontier_entry_bytes(self) -> int:
        """Bytes of one priority-queue entry shipped inside a remainder query."""
        return 4 * self.coordinate_bytes + 2 * self.pointer_bytes
