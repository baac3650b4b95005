"""Binary (de)serialisation of R-tree nodes and object records.

These are the page codecs of the persistence subsystem
(:mod:`repro.storage.paged`): one node or one object record per disk page,
matching the paper's model of an R-tree whose nodes *are* pages.  The format
is deliberately simple and fully deterministic:

* all integers are little-endian fixed width; absent ids (``parent_id`` of
  the root) encode as ``-1``;
* all coordinates are IEEE-754 doubles, so every ``Rect`` round-trips
  bit-exactly — traversal decisions (intersection tests, MINDIST orderings)
  over a decoded tree are *identical* to the in-memory original, which is
  what makes the file backend's visited-page counts provably equal to the
  in-memory accounting;
* entry order inside a node is preserved, so a decoded node re-encodes to
  the identical byte string (save → load → save is byte-stable).

Wire layout
-----------
Node page::

    <q node_id> <i level> <q parent_id|-1> <i entry_count>
    entry*: <B kind> <q id> <4d mbr>      # kind 0 = child, 1 = object

Object page::

    <q object_id> <q size_bytes> <4d mbr>
"""

from __future__ import annotations

import struct
from typing import List

from repro.geometry import Rect
from repro.rtree.entry import Entry, ObjectRecord
from repro.rtree.node import Node

_NODE_HEADER = struct.Struct("<qiqi")
_NODE_ENTRY = struct.Struct("<Bq4d")
_OBJECT_RECORD = struct.Struct("<qq4d")

_KIND_CHILD = 0
_KIND_OBJECT = 1


def encoded_object_size() -> int:
    """Encoded byte size of one object record (fixed width)."""
    return _OBJECT_RECORD.size


def encode_node(node: Node) -> bytes:
    """Serialise one node to its page byte string."""
    parts: List[bytes] = [_NODE_HEADER.pack(
        node.node_id, node.level,
        -1 if node.parent_id is None else node.parent_id,
        len(node.entries))]
    for entry in node.entries:
        mbr = entry.mbr
        if entry.is_leaf_entry:
            kind, ref = _KIND_OBJECT, entry.object_id
        else:
            kind, ref = _KIND_CHILD, entry.child_id
        parts.append(_NODE_ENTRY.pack(kind, ref, mbr.min_x, mbr.min_y,
                                      mbr.max_x, mbr.max_y))
    return b"".join(parts)


def decode_node(data: bytes) -> Node:
    """Reconstruct a node from its page byte string (entry order preserved)."""
    node_id, level, parent_id, entry_count = _NODE_HEADER.unpack_from(data, 0)
    entries: List[Entry] = []
    offset = _NODE_HEADER.size
    for _ in range(entry_count):
        kind, ref, min_x, min_y, max_x, max_y = _NODE_ENTRY.unpack_from(data, offset)
        offset += _NODE_ENTRY.size
        mbr = Rect(min_x, min_y, max_x, max_y)
        if kind == _KIND_OBJECT:
            entries.append(Entry(mbr=mbr, object_id=ref))
        elif kind == _KIND_CHILD:
            entries.append(Entry(mbr=mbr, child_id=ref))
        else:
            raise ValueError(f"corrupt node page: unknown entry kind {kind}")
    return Node(node_id=node_id, level=level, entries=entries,
                parent_id=None if parent_id == -1 else parent_id)


def encode_object(record: ObjectRecord) -> bytes:
    """Serialise one object record to its page byte string."""
    mbr = record.mbr
    return _OBJECT_RECORD.pack(record.object_id, record.size_bytes,
                               mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)


def decode_object(data: bytes) -> ObjectRecord:
    """Reconstruct an object record from its page byte string."""
    object_id, size_bytes, min_x, min_y, max_x, max_y = _OBJECT_RECORD.unpack_from(data, 0)
    return ObjectRecord(object_id=object_id,
                        mbr=Rect(min_x, min_y, max_x, max_y),
                        size_bytes=size_bytes)
