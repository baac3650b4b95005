"""The payload codecs as they were written over ``PayloadReader``, kept as the oracle.

Until the codecs were rewritten as offset decoders, every field of every
payload went through a bounds-checked ``PayloadReader`` method call
(``unpack`` / ``read_bytes`` / ``expect_end``) and a ``_read_*`` helper.
:mod:`repro.net.codec` now walks each payload with an integer offset and one
precompiled ``struct`` call per fixed-width run, and claims the same bytes
out of every encoder and the same values out of every decoder.  The old
module lives on here verbatim, with the deleted ``PayloadReader`` class
beside it, and the differential suite (``test_codec_differential.py``)
compares against it.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.items import CachedIndexNode, CacheEntry, FrontierTarget, TargetKind
from repro.core.remainder import FrontierItem, RemainderQuery
from repro.core.server import IndexNodeSnapshot, ObjectDelivery, ServerResponse
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.net.frames import FrameError
from repro.rtree.entry import ObjectRecord
from repro.rtree.sizes import SizeModel
from repro.updates.validation import (
    DROP,
    REFRESH,
    VALID,
    ValidationStamp,
    ValidationVerdict,
)
from repro.workload.queries import JoinQuery, KNNQuery, Query, RangeQuery


class PayloadReader:
    """Bounds-checked sequential access to one frame payload.

    The payload codecs read through this so a truncated or oversized
    payload surfaces as a :class:`FrameError` — the same taxonomy as a
    failed CRC — rather than an uncaught ``struct.error``.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self._data) - self._offset

    def unpack(self, codec: struct.Struct) -> Tuple[object, ...]:
        """Read one fixed-width struct record."""
        if self.remaining < codec.size:
            raise FrameError(f"truncated payload: needed {codec.size} "
                             f"bytes, {self.remaining} left")
        values = codec.unpack_from(self._data, self._offset)
        self._offset += codec.size
        return values

    def read_bytes(self, count: int) -> bytes:
        """Read a raw byte run (length-prefixed strings)."""
        if count < 0 or self.remaining < count:
            raise FrameError(f"truncated payload: needed {count} bytes, "
                             f"{self.remaining} left")
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def expect_end(self) -> None:
        """Reject trailing garbage after the last decoded field."""
        if self.remaining:
            raise FrameError(f"{self.remaining} trailing bytes after the "
                             "final payload field")


#: Wire protocol revision; bumped on any incompatible frame/payload change.
PROTOCOL_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_RECT = struct.Struct("<4d")
_POINT = struct.Struct("<2d")

_QUERY_RANGE = 0
_QUERY_KNN = 1
_QUERY_JOIN = 2

_TARGET_KINDS = (TargetKind.NODE, TargetKind.OBJECT, TargetKind.SUPER)

_ENTRY_SUPER = 0
_ENTRY_CHILD = 1
_ENTRY_OBJECT = 2

_FORMS = (IndexForm.FULL, IndexForm.COMPACT, IndexForm.ADAPTIVE)


# --------------------------------------------------------------------------- #
# primitive helpers
# --------------------------------------------------------------------------- #
def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"string of {len(data)} bytes exceeds the u16 "
                         "length prefix")
    return _U16.pack(len(data)) + data


def _read_str(reader: PayloadReader) -> str:
    (length,) = reader.unpack(_U16)
    data = reader.read_bytes(int(length))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError(f"garbled string field: {error}") from error


def _pack_opt_id(value: Optional[int]) -> bytes:
    if value is None:
        return _U8.pack(0)
    return _U8.pack(1) + _I64.pack(value)


def _read_opt_id(reader: PayloadReader) -> Optional[int]:
    (present,) = reader.unpack(_U8)
    if present == 0:
        return None
    if present != 1:
        raise FrameError(f"bad presence flag {present}")
    (value,) = reader.unpack(_I64)
    return int(value)


def _pack_rect(rect: Rect) -> bytes:
    return _RECT.pack(rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def _read_rect(reader: PayloadReader) -> Rect:
    min_x, min_y, max_x, max_y = reader.unpack(_RECT)
    return Rect(float(min_x), float(min_y), float(max_x), float(max_y))


def _read_bool(reader: PayloadReader) -> bool:
    (value,) = reader.unpack(_U8)
    if value not in (0, 1):
        raise FrameError(f"bad boolean flag {value}")
    return bool(value)


def _read_count(reader: PayloadReader, what: str) -> int:
    (count,) = reader.unpack(_U32)
    if count > 1 << 24:
        raise FrameError(f"implausible {what} count {count}")
    return int(count)


# --------------------------------------------------------------------------- #
# queries
# --------------------------------------------------------------------------- #
def encode_query(query: Query) -> bytes:
    """Serialise one query (range / kNN / join)."""
    if isinstance(query, RangeQuery):
        return _U8.pack(_QUERY_RANGE) + _pack_rect(query.window)
    if isinstance(query, KNNQuery):
        return (_U8.pack(_QUERY_KNN)
                + _POINT.pack(query.point.x, query.point.y)
                + _I64.pack(query.k))
    if isinstance(query, JoinQuery):
        return (_U8.pack(_QUERY_JOIN) + _pack_rect(query.window)
                + _F64.pack(query.threshold))
    raise TypeError(f"unsupported query type {type(query)!r}")


def read_query(reader: PayloadReader) -> Query:
    """Decode one query."""
    (kind,) = reader.unpack(_U8)
    if kind == _QUERY_RANGE:
        return RangeQuery(window=_read_rect(reader))
    if kind == _QUERY_KNN:
        x, y = reader.unpack(_POINT)
        (k,) = reader.unpack(_I64)
        if k <= 0:
            raise FrameError(f"bad kNN k {k}")
        return KNNQuery(point=Point(float(x), float(y)), k=int(k))
    if kind == _QUERY_JOIN:
        window = _read_rect(reader)
        (threshold,) = reader.unpack(_F64)
        if threshold < 0:
            raise FrameError(f"bad join threshold {threshold}")
        return JoinQuery(window=window, threshold=float(threshold))
    raise FrameError(f"unknown query kind {kind}")


# --------------------------------------------------------------------------- #
# frontier / remainder
# --------------------------------------------------------------------------- #
def encode_target(target: FrontierTarget) -> bytes:
    """Serialise one frontier target."""
    parts = [_U8.pack(_TARGET_KINDS.index(target.kind)),
             _pack_rect(target.mbr),
             _F64.pack(target.priority),
             _pack_opt_id(target.node_id),
             _pack_opt_id(target.object_id),
             _pack_str(target.code),
             _pack_opt_id(target.parent_node_id),
             _U8.pack(1 if target.confirm_only else 0)]
    return b"".join(parts)


def read_target(reader: PayloadReader) -> FrontierTarget:
    """Decode one frontier target."""
    (kind_index,) = reader.unpack(_U8)
    if kind_index >= len(_TARGET_KINDS):
        raise FrameError(f"unknown frontier target kind {kind_index}")
    mbr = _read_rect(reader)
    (priority,) = reader.unpack(_F64)
    node_id = _read_opt_id(reader)
    object_id = _read_opt_id(reader)
    code = _read_str(reader)
    parent_node_id = _read_opt_id(reader)
    confirm_only = _read_bool(reader)
    return FrontierTarget(kind=_TARGET_KINDS[kind_index], mbr=mbr,
                          priority=float(priority), node_id=node_id,
                          object_id=object_id, code=code,
                          parent_node_id=parent_node_id,
                          confirm_only=confirm_only)


def encode_remainder(remainder: RemainderQuery) -> bytes:
    """Serialise one remainder query (without its embedded query)."""
    parts = [_U32.pack(len(remainder.frontier))]
    for item in remainder.frontier:
        parts.append(_U8.pack(len(item)))
        for target in item:
            parts.append(encode_target(target))
    if remainder.k_remaining is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1) + _I64.pack(remainder.k_remaining))
    if remainder.reported_fmr is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1) + _F64.pack(remainder.reported_fmr))
    return b"".join(parts)


def read_remainder(reader: PayloadReader, query: Query) -> RemainderQuery:
    """Decode one remainder query around its already-decoded query."""
    item_count = _read_count(reader, "frontier item")
    frontier: List[FrontierItem] = []
    for _ in range(item_count):
        (width,) = reader.unpack(_U8)
        if width not in (1, 2):
            raise FrameError(f"bad frontier item width {width}")
        frontier.append(tuple(read_target(reader) for _ in range(width)))
    k_remaining: Optional[int] = None
    if _read_bool(reader):
        (k_value,) = reader.unpack(_I64)
        k_remaining = int(k_value)
    reported_fmr: Optional[float] = None
    if _read_bool(reader):
        (fmr,) = reader.unpack(_F64)
        reported_fmr = float(fmr)
    return RemainderQuery(query=query, frontier=frontier,
                          k_remaining=k_remaining, reported_fmr=reported_fmr)


def encode_policy(policy: SupportingIndexPolicy) -> bytes:
    """Serialise the supporting-index policy shipped with a query."""
    return (_U8.pack(_FORMS.index(policy.form)) + _I32.pack(policy.depth)
            + _I32.pack(policy.max_depth))


def read_policy(reader: PayloadReader) -> SupportingIndexPolicy:
    """Decode a supporting-index policy."""
    (form_index,) = reader.unpack(_U8)
    if form_index >= len(_FORMS):
        raise FrameError(f"unknown index form {form_index}")
    depth, max_depth = reader.unpack(struct.Struct("<ii"))
    if depth < 0:
        raise FrameError(f"bad policy depth {depth}")
    return SupportingIndexPolicy(form=_FORMS[form_index], depth=int(depth),
                                 max_depth=int(max_depth))


def encode_query_request(query: Query,
                         remainder: Optional[RemainderQuery],
                         policy: Optional[SupportingIndexPolicy]) -> bytes:
    """The QUERY frame payload: query + optional remainder + policy."""
    parts = [encode_query(query)]
    if remainder is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1) + encode_remainder(remainder))
    if policy is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1) + encode_policy(policy))
    return b"".join(parts)


def decode_query_request(payload: bytes) -> Tuple[
        Query, Optional[RemainderQuery], Optional[SupportingIndexPolicy]]:
    """Decode a QUERY frame payload."""
    reader = PayloadReader(payload)
    query = read_query(reader)
    remainder = read_remainder(reader, query) if _read_bool(reader) else None
    policy = read_policy(reader) if _read_bool(reader) else None
    reader.expect_end()
    return query, remainder, policy


# --------------------------------------------------------------------------- #
# cache entries / node snapshots / responses
# --------------------------------------------------------------------------- #
def encode_cache_entry(entry: CacheEntry) -> bytes:
    """Serialise one cached-node element (real or super entry)."""
    if entry.object_id is not None:
        kind, ref = _ENTRY_OBJECT, entry.object_id
    elif entry.child_id is not None:
        kind, ref = _ENTRY_CHILD, entry.child_id
    else:
        kind, ref = _ENTRY_SUPER, 0
    return (_U8.pack(kind) + _pack_rect(entry.mbr) + _pack_str(entry.code)
            + _I64.pack(ref))


def read_cache_entry(reader: PayloadReader) -> CacheEntry:
    """Decode one cached-node element."""
    (kind,) = reader.unpack(_U8)
    mbr = _read_rect(reader)
    code = _read_str(reader)
    (ref,) = reader.unpack(_I64)
    if kind == _ENTRY_SUPER:
        return CacheEntry(mbr=mbr, code=code)
    if kind == _ENTRY_CHILD:
        return CacheEntry(mbr=mbr, code=code, child_id=int(ref))
    if kind == _ENTRY_OBJECT:
        return CacheEntry(mbr=mbr, code=code, object_id=int(ref))
    raise FrameError(f"unknown cache entry kind {kind}")


def encode_object_record(record: ObjectRecord) -> bytes:
    """Serialise one object record (id, payload size, MBR)."""
    return (_I64.pack(record.object_id) + _I64.pack(record.size_bytes)
            + _pack_rect(record.mbr))


def read_object_record(reader: PayloadReader) -> ObjectRecord:
    """Decode one object record."""
    (object_id,) = reader.unpack(_I64)
    (size_bytes,) = reader.unpack(_I64)
    mbr = _read_rect(reader)
    return ObjectRecord(object_id=int(object_id), mbr=mbr,
                        size_bytes=int(size_bytes))


def encode_snapshot(snapshot: IndexNodeSnapshot) -> bytes:
    """Serialise one shipped index-node snapshot (element order preserved)."""
    parts = [_I64.pack(snapshot.node_id), _I32.pack(snapshot.level),
             _pack_opt_id(snapshot.parent_id),
             _U32.pack(len(snapshot.elements))]
    parts.extend(encode_cache_entry(element) for element in snapshot.elements)
    return b"".join(parts)


def read_snapshot(reader: PayloadReader) -> IndexNodeSnapshot:
    """Decode one index-node snapshot."""
    (node_id,) = reader.unpack(_I64)
    (level,) = reader.unpack(_I32)
    parent_id = _read_opt_id(reader)
    element_count = _read_count(reader, "snapshot element")
    elements = [read_cache_entry(reader) for _ in range(element_count)]
    return IndexNodeSnapshot(node_id=int(node_id), level=int(level),
                             parent_id=parent_id, elements=elements)


def encode_catalog(root_id: int, root_mbr: Rect) -> bytes:
    """The root-catalogue payload piggybacked on acks."""
    return _I64.pack(root_id) + _pack_rect(root_mbr)


def read_catalog(reader: PayloadReader) -> Tuple[int, Rect]:
    """Decode a root-catalogue payload."""
    (root_id,) = reader.unpack(_I64)
    return int(root_id), _read_rect(reader)


def encode_response(response: ServerResponse, root_id: int,
                    root_mbr: Rect) -> bytes:
    """The RESPONSE frame payload: the full response + catalogue piggyback."""
    parts = [encode_catalog(root_id, root_mbr),
             _U32.pack(len(response.deliveries))]
    for delivery in response.deliveries:
        parts.append(encode_object_record(delivery.record))
        parts.append(_pack_opt_id(delivery.parent_node_id))
        parts.append(_U8.pack(1 if delivery.confirm_only else 0))
    parts.append(_U32.pack(len(response.index_snapshots)))
    parts.extend(encode_snapshot(snapshot)
                 for snapshot in response.index_snapshots)
    parts.append(_I64.pack(response.accessed_node_count))
    parts.append(_I64.pack(response.examined_elements))
    parts.append(_F64.pack(response.cpu_seconds))
    return b"".join(parts)


def decode_response(payload: bytes) -> Tuple[ServerResponse, int, Rect]:
    """Decode a RESPONSE frame payload → (response, root_id, root_mbr)."""
    reader = PayloadReader(payload)
    root_id, root_mbr = read_catalog(reader)
    delivery_count = _read_count(reader, "delivery")
    deliveries: List[ObjectDelivery] = []
    for _ in range(delivery_count):
        record = read_object_record(reader)
        parent_node_id = _read_opt_id(reader)
        confirm_only = _read_bool(reader)
        deliveries.append(ObjectDelivery(record=record,
                                         parent_node_id=parent_node_id,
                                         confirm_only=confirm_only))
    snapshot_count = _read_count(reader, "snapshot")
    snapshots = [read_snapshot(reader) for _ in range(snapshot_count)]
    (accessed,) = reader.unpack(_I64)
    (examined,) = reader.unpack(_I64)
    (cpu_seconds,) = reader.unpack(_F64)
    reader.expect_end()
    response = ServerResponse(deliveries=deliveries, index_snapshots=snapshots,
                              accessed_node_count=int(accessed),
                              examined_elements=int(examined),
                              cpu_seconds=float(cpu_seconds))
    return response, root_id, root_mbr


# --------------------------------------------------------------------------- #
# session control
# --------------------------------------------------------------------------- #
def encode_hello(client_name: str, size_model: SizeModel) -> bytes:
    """The HELLO payload: protocol version, client name, size-model check.

    Client and server must model bytes with the same parameters or every
    cost figure silently diverges; the handshake pins the five size-model
    constants and the server rejects a mismatch with a typed error.
    """
    return (_U16.pack(PROTOCOL_VERSION) + _pack_str(client_name)
            + struct.pack("<5I", size_model.page_bytes,
                          size_model.coordinate_bytes,
                          size_model.pointer_bytes,
                          size_model.query_header_bytes,
                          size_model.object_id_bytes))


def decode_hello(payload: bytes) -> Tuple[int, str, Tuple[int, ...]]:
    """Decode a HELLO payload → (version, client name, size-model tuple)."""
    reader = PayloadReader(payload)
    (version,) = reader.unpack(_U16)
    name = _read_str(reader)
    model = tuple(int(value) for value in reader.unpack(struct.Struct("<5I")))
    reader.expect_end()
    return int(version), name, model


def size_model_tuple(size_model: SizeModel) -> Tuple[int, ...]:
    """The five pinned size-model constants, in wire order."""
    return (size_model.page_bytes, size_model.coordinate_bytes,
            size_model.pointer_bytes, size_model.query_header_bytes,
            size_model.object_id_bytes)


def encode_hello_ack(root_id: int, root_mbr: Rect,
                     has_validation: bool) -> bytes:
    """The HELLO_ACK payload: catalogue + whether SYNC is answerable."""
    return (encode_catalog(root_id, root_mbr)
            + _U8.pack(1 if has_validation else 0))


def decode_hello_ack(payload: bytes) -> Tuple[int, Rect, bool]:
    """Decode a HELLO_ACK payload."""
    reader = PayloadReader(payload)
    root_id, root_mbr = read_catalog(reader)
    has_validation = _read_bool(reader)
    reader.expect_end()
    return root_id, root_mbr, has_validation


def decode_catalog_ack(payload: bytes) -> Tuple[int, Rect]:
    """Decode a CATALOG_ACK payload."""
    reader = PayloadReader(payload)
    root_id, root_mbr = read_catalog(reader)
    reader.expect_end()
    return root_id, root_mbr


def encode_error(code: str, message: str) -> bytes:
    """The ERROR payload: a machine code plus a human message."""
    return _pack_str(code) + _pack_str(message)


def decode_error(payload: bytes) -> Tuple[str, str]:
    """Decode an ERROR payload."""
    reader = PayloadReader(payload)
    code = _read_str(reader)
    message = _read_str(reader)
    reader.expect_end()
    return code, message


# --------------------------------------------------------------------------- #
# consistency validation
# --------------------------------------------------------------------------- #
def encode_sync_request(stamps: Sequence[ValidationStamp]) -> bytes:
    """The SYNC payload: one stamp per cached item."""
    parts = [_U32.pack(len(stamps))]
    for stamp in stamps:
        parts.append(_U8.pack(1 if stamp.is_node else 0))
        parts.append(_I64.pack(stamp.item_id))
        parts.append(_U32.pack(stamp.cached_version))
        parts.append(_pack_opt_id(stamp.parent_id))
    return b"".join(parts)


def decode_sync_request(payload: bytes) -> List[ValidationStamp]:
    """Decode a SYNC payload."""
    reader = PayloadReader(payload)
    stamp_count = _read_count(reader, "stamp")
    stamps: List[ValidationStamp] = []
    for _ in range(stamp_count):
        is_node = _read_bool(reader)
        (item_id,) = reader.unpack(_I64)
        (version,) = reader.unpack(_U32)
        parent_id = _read_opt_id(reader)
        stamps.append(ValidationStamp(is_node=is_node, item_id=int(item_id),
                                      cached_version=int(version),
                                      parent_id=parent_id))
    reader.expect_end()
    return stamps


def _encode_cached_node(node: CachedIndexNode) -> bytes:
    parts = [_I64.pack(node.node_id), _I32.pack(node.level),
             _U32.pack(len(node.elements))]
    # Insertion order of the elements dict is the partition-tree build
    # order; preserving it keeps refreshed snapshots digest-identical.
    parts.extend(encode_cache_entry(element)
                 for element in node.elements.values())
    return b"".join(parts)


def _read_cached_node(reader: PayloadReader) -> CachedIndexNode:
    (node_id,) = reader.unpack(_I64)
    (level,) = reader.unpack(_I32)
    element_count = _read_count(reader, "cached-node element")
    elements: Dict[str, CacheEntry] = {}
    for _ in range(element_count):
        entry = read_cache_entry(reader)
        elements[entry.code] = entry
    return CachedIndexNode(node_id=int(node_id), level=int(level),
                           elements=elements)


def encode_sync_ack(verdicts: Sequence[ValidationVerdict], root_id: int,
                    root_mbr: Rect) -> bytes:
    """The SYNC_ACK payload: catalogue piggyback + one verdict per stamp."""
    parts = [encode_catalog(root_id, root_mbr), _U32.pack(len(verdicts))]
    for verdict in verdicts:
        parts.append(_U8.pack(verdict.action))
        if verdict.action != REFRESH:
            continue
        if verdict.node is not None:
            parts.append(_U8.pack(1))
            parts.append(_U32.pack(verdict.version))
            parts.append(_U8.pack(1 if verdict.is_leaf else 0))
            parts.append(_encode_cached_node(verdict.node))
        elif verdict.record is not None:
            parts.append(_U8.pack(0))
            parts.append(_U32.pack(verdict.version))
            parts.append(encode_object_record(verdict.record))
        else:
            raise ValueError("a REFRESH verdict needs a node or a record")
    return b"".join(parts)


def decode_sync_ack(payload: bytes
                    ) -> Tuple[List[ValidationVerdict], int, Rect]:
    """Decode a SYNC_ACK payload → (verdicts, root_id, root_mbr)."""
    reader = PayloadReader(payload)
    root_id, root_mbr = read_catalog(reader)
    verdict_count = _read_count(reader, "verdict")
    verdicts: List[ValidationVerdict] = []
    for _ in range(verdict_count):
        (action,) = reader.unpack(_U8)
        if action in (VALID, DROP):
            verdicts.append(ValidationVerdict(action=int(action)))
            continue
        if action != REFRESH:
            raise FrameError(f"unknown verdict action {action}")
        is_node = _read_bool(reader)
        (version,) = reader.unpack(_U32)
        if is_node:
            is_leaf = _read_bool(reader)
            node = _read_cached_node(reader)
            verdicts.append(ValidationVerdict(action=REFRESH,
                                              version=int(version),
                                              node=node, is_leaf=is_leaf))
        else:
            record = read_object_record(reader)
            verdicts.append(ValidationVerdict(action=REFRESH,
                                              version=int(version),
                                              record=record))
    reader.expect_end()
    return verdicts, root_id, root_mbr


def encode_sync_done(applied_downlink_bytes: int) -> bytes:
    """The SYNC_DONE payload: the client's applied handshake downlink.

    Drop cascades during verdict application can discard a shipped refresh
    payload, and only the client can see that; this one-way report lets
    the server's per-connection ledger record exactly the *modelled* bytes
    the client billed, which is what the reconciliation tests compare.
    """
    return _I64.pack(applied_downlink_bytes)


def decode_sync_done(payload: bytes) -> int:
    """Decode a SYNC_DONE payload."""
    reader = PayloadReader(payload)
    (applied,) = reader.unpack(_I64)
    reader.expect_end()
    return int(applied)


def encode_versions_request(node_ids: Sequence[int],
                            object_ids: Sequence[int]) -> bytes:
    """The VERSIONS payload: ids whose current stamps the client wants."""
    parts = [_U32.pack(len(node_ids))]
    parts.extend(_I64.pack(node_id) for node_id in node_ids)
    parts.append(_U32.pack(len(object_ids)))
    parts.extend(_I64.pack(object_id) for object_id in object_ids)
    return b"".join(parts)


def decode_versions_request(payload: bytes) -> Tuple[List[int], List[int]]:
    """Decode a VERSIONS payload."""
    reader = PayloadReader(payload)
    node_count = _read_count(reader, "node id")
    node_ids = [int(reader.unpack(_I64)[0]) for _ in range(node_count)]
    object_count = _read_count(reader, "object id")
    object_ids = [int(reader.unpack(_I64)[0]) for _ in range(object_count)]
    reader.expect_end()
    return node_ids, object_ids


def _encode_version_map(versions: Dict[int, int],
                        order: Sequence[int]) -> bytes:
    present = [(item_id, versions[item_id]) for item_id in order
               if item_id in versions]
    parts = [_U32.pack(len(present))]
    for item_id, version in present:
        parts.append(_I64.pack(item_id) + _U32.pack(version))
    return b"".join(parts)


def encode_versions_ack(node_versions: Dict[int, int],
                        object_versions: Dict[int, int],
                        node_order: Sequence[int],
                        object_order: Sequence[int]) -> bytes:
    """The VERSIONS_ACK payload, in the request's id order."""
    return (_encode_version_map(node_versions, node_order)
            + _encode_version_map(object_versions, object_order))


def _read_version_map(reader: PayloadReader) -> Dict[int, int]:
    count = _read_count(reader, "version stamp")
    versions: Dict[int, int] = {}
    for _ in range(count):
        (item_id,) = reader.unpack(_I64)
        (version,) = reader.unpack(_U32)
        versions[int(item_id)] = int(version)
    return versions


def decode_versions_ack(payload: bytes
                        ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Decode a VERSIONS_ACK payload."""
    reader = PayloadReader(payload)
    node_versions = _read_version_map(reader)
    object_versions = _read_version_map(reader)
    reader.expect_end()
    return node_versions, object_versions


# --------------------------------------------------------------------------- #
# session close
# --------------------------------------------------------------------------- #
_LEDGER = struct.Struct("<7q")

#: The per-connection ledger fields, in wire order.
LEDGER_FIELDS = ("queries_served", "uplink_bytes", "downlink_bytes",
                 "sync_uplink_bytes", "sync_downlink_bytes",
                 "wire_bytes_in", "wire_bytes_out")


def encode_bye_ack(ledger: Dict[str, int]) -> bytes:
    """The BYE_ACK payload: the connection's final byte ledger."""
    return _LEDGER.pack(*(int(ledger.get(field, 0))
                          for field in LEDGER_FIELDS))


def decode_bye_ack(payload: bytes) -> Dict[str, int]:
    """Decode a BYE_ACK payload."""
    reader = PayloadReader(payload)
    values = reader.unpack(_LEDGER)
    reader.expect_end()
    return {field: int(value)
            for field, value in zip(LEDGER_FIELDS, values)}
