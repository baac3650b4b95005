"""Deterministic payload codecs for every wire frame type.

Same conventions as the page codecs of :mod:`repro.rtree.serialize`: all
integers little-endian fixed width, all coordinates IEEE-754 doubles (so
every ``Rect`` round-trips bit-exactly and traversal decisions over decoded
values are identical to the originals), absent optional ids encoded behind
a presence flag, and element order preserved everywhere — a decoded
response re-encodes to the identical byte string.

Every decoder walks its payload with an integer offset and reads each
fixed-width run (a delivery head, a snapshot element head, a frontier
target head, ...) with one precompiled ``struct.Struct.unpack_from``; every
encoder packs the same runs with one ``pack`` each.  A message therefore
costs per run, not per field.

A decoder raises nothing but :class:`~repro.net.frames.FrameError`.  A
truncated run (``struct.error``), a missing flag byte or an unknown enum
index (``IndexError``) and any value a constructor refuses (``ValueError``:
a degenerate ``Rect``, a non-positive kNN ``k``, a negative join threshold
or policy depth, garbled UTF-8) are converted once, at the decoder's
boundary (:func:`_decodes`).  What does not raise by itself is checked
explicitly: a string running past the payload's end (a short slice is no
error), a flag byte other than 0 / 1, an implausible count (before its
loop) and trailing bytes.  The fuzz battery and the differential suite
against the old field-by-field codec lean on this.
"""

from __future__ import annotations

import functools
import struct
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

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

#: Wire protocol revision; bumped on any incompatible frame/payload change.
PROTOCOL_VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_CATALOG = struct.Struct("<q4d")
#: Root catalogue + a count: the head of RESPONSE and SYNC_ACK.
_CATALOG_COUNT = struct.Struct("<q4dI")
#: Delivery head: object id, payload size, MBR, parent presence flag.
_DELIVERY = struct.Struct("<qq4dB")  # 49 bytes
_ID_FLAG = struct.Struct("<qB")
#: Snapshot head: node id, level, parent presence flag.
_SNAPSHOT = struct.Struct("<qiB")  # 13 bytes
_ID_COUNT = struct.Struct("<qI")
#: Element head: kind, MBR, code length (the code and an i64 ref follow).
_ELEMENT = struct.Struct("<B4dH")  # 35 bytes
#: Frontier-target head: kind, MBR, priority, node-id presence flag.
_TARGET = struct.Struct("<B4ddB")  # 42 bytes
#: RESPONSE tail: accessed nodes, examined elements, server CPU seconds.
_TAIL = struct.Struct("<qqd")
_RANGE = struct.Struct("<B4d")
_KNN = struct.Struct("<B2dq")
_JOIN = struct.Struct("<B5d")
_FLAG_COUNT = struct.Struct("<BI")
_POLICY = struct.Struct("<BBii")
_MODEL = struct.Struct("<5I")
#: SYNC stamp head: is-node flag, item id, cached version, parent flag.
_STAMP = struct.Struct("<BqIB")
_REFRESH = struct.Struct("<BI")
_CACHED_NODE = struct.Struct("<BqiI")
_RECORD = struct.Struct("<qq4d")
_VERSION = struct.Struct("<qI")

_FLAG = (b"\x00", b"\x01")
_MAX_COUNT = 1 << 24
_BAD_FLAG = "bad presence or boolean flag"

_QUERY_RANGE = 0
_QUERY_KNN = 1
_QUERY_JOIN = 2

_TARGET_KINDS = (TargetKind.NODE, TargetKind.OBJECT, TargetKind.SUPER)

_ENTRY_SUPER = 0
_ENTRY_CHILD = 1
_ENTRY_OBJECT = 2

_FORMS = (IndexForm.FULL, IndexForm.COMPACT, IndexForm.ADAPTIVE)

_Decoded = TypeVar("_Decoded")


# --------------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------------- #
def _decodes(frame: str) -> Callable[[Callable[[bytes], _Decoded]],
                                     Callable[[bytes], _Decoded]]:
    """Make a decoder's low-level failures one typed ``FrameError``."""
    def wrap(decode: Callable[[bytes], _Decoded]
             ) -> Callable[[bytes], _Decoded]:
        @functools.wraps(decode)
        def checked(payload: bytes) -> _Decoded:
            try:
                return decode(payload)
            except (struct.error, IndexError, ValueError) as error:
                raise FrameError(f"malformed {frame} payload: "
                                 f"{error}") from error
        return checked
    return wrap


def _expect_end(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise FrameError(f"{len(payload) - offset} trailing bytes after the "
                         "final payload field")


def _count(count: int, what: str) -> int:
    if count > _MAX_COUNT:
        raise FrameError(f"implausible {what} count {count}")
    return count


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"string of {len(data)} bytes exceeds the u16 "
                         "length prefix")
    return _U16.pack(len(data)) + data


def _string(payload: bytes, offset: int) -> Tuple[str, int]:
    """A u16-length-prefixed UTF-8 string at ``offset``, and its end."""
    (length,) = _U16.unpack_from(payload, offset)
    start = offset + 2
    end = start + length
    if end > len(payload):
        raise FrameError(f"truncated string: needs {length} bytes")
    return payload[start:end].decode("utf-8"), end


def _pack_elements(parts: List[bytes], elements: Iterable[CacheEntry]) -> None:
    """Append a run of cached-node elements (real or super entries)."""
    append = parts.append
    pack_head = _ELEMENT.pack
    pack_ref = _I64.pack
    for entry in elements:
        mbr = entry.mbr
        code = entry.code.encode("utf-8")
        if entry.object_id is not None:
            kind, ref = _ENTRY_OBJECT, entry.object_id
        elif entry.child_id is not None:
            kind, ref = _ENTRY_CHILD, entry.child_id
        else:
            kind, ref = _ENTRY_SUPER, 0
        append(pack_head(kind, mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y,
                         len(code)))
        append(code)
        append(pack_ref(ref))


def _elements(payload: bytes, offset: int,
              count: int) -> Tuple[List[CacheEntry], int]:
    """Decode ``count`` cached-node elements at ``offset``, and their end."""
    _count(count, "element")
    unpack_head = _ELEMENT.unpack_from
    unpack_ref = _I64.unpack_from
    size = len(payload)
    elements: List[CacheEntry] = []
    append = elements.append
    for _ in range(count):
        kind, x0, y0, x1, y1, length = unpack_head(payload, offset)
        start = offset + 35
        offset = start + length
        if offset > size:
            raise FrameError(f"truncated element code: needs {length} bytes")
        code = payload[start:offset].decode("utf-8")
        (ref,) = unpack_ref(payload, offset)
        offset += 8
        if kind == _ENTRY_OBJECT:
            append(CacheEntry(Rect(x0, y0, x1, y1), code, None, ref))
        elif kind == _ENTRY_CHILD:
            append(CacheEntry(Rect(x0, y0, x1, y1), code, ref))
        elif kind == _ENTRY_SUPER:
            append(CacheEntry(Rect(x0, y0, x1, y1), code))
        else:
            raise FrameError(f"unknown cache entry kind {kind}")
    return elements, offset


# --------------------------------------------------------------------------- #
# QUERY: query + optional remainder (the frontier) + optional policy
# --------------------------------------------------------------------------- #
def _pack_target(parts: List[bytes], target: FrontierTarget) -> None:
    mbr = target.mbr
    node_id, object_id = target.node_id, target.object_id
    parent = target.parent_node_id
    code = target.code.encode("utf-8")
    parts.append(_TARGET.pack(_TARGET_KINDS.index(target.kind), mbr.min_x,
                              mbr.min_y, mbr.max_x, mbr.max_y,
                              target.priority, node_id is not None))
    if node_id is not None:
        parts.append(_I64.pack(node_id))
    parts.append(_FLAG[0] if object_id is None
                 else _FLAG[1] + _I64.pack(object_id))
    parts.append(_U16.pack(len(code)))
    parts.append(code)
    parts.append(_FLAG[0] if parent is None
                 else _FLAG[1] + _I64.pack(parent))
    parts.append(_FLAG[target.confirm_only])


def encode_query_request(query: Query,
                         remainder: Optional[RemainderQuery],
                         policy: Optional[SupportingIndexPolicy]) -> bytes:
    """The QUERY frame payload: query + optional remainder + policy."""
    if isinstance(query, RangeQuery):
        window = query.window
        parts = [_RANGE.pack(_QUERY_RANGE, window.min_x, window.min_y,
                             window.max_x, window.max_y)]
    elif isinstance(query, KNNQuery):
        parts = [_KNN.pack(_QUERY_KNN, query.point.x, query.point.y,
                           query.k)]
    elif isinstance(query, JoinQuery):
        window = query.window
        parts = [_JOIN.pack(_QUERY_JOIN, window.min_x, window.min_y,
                            window.max_x, window.max_y, query.threshold)]
    else:
        raise TypeError(f"unsupported query type {type(query)!r}")
    if remainder is None:
        parts.append(_FLAG[0])
    else:
        parts.append(_FLAG_COUNT.pack(1, len(remainder.frontier)))
        for item in remainder.frontier:
            parts.append(bytes((len(item),)))
            for target in item:
                _pack_target(parts, target)
        k_remaining, fmr = remainder.k_remaining, remainder.reported_fmr
        parts.append(_FLAG[0] if k_remaining is None
                     else _FLAG[1] + _I64.pack(k_remaining))
        parts.append(_FLAG[0] if fmr is None else _FLAG[1] + _F64.pack(fmr))
    if policy is None:
        parts.append(_FLAG[0])
    else:
        parts.append(_POLICY.pack(1, _FORMS.index(policy.form), policy.depth,
                                  policy.max_depth))
    return b"".join(parts)


def _frontier(payload: bytes, offset: int,
              count: int) -> Tuple[List[FrontierItem], int]:
    """Decode ``count`` frontier items at ``offset``, and their end."""
    _count(count, "frontier item")
    unpack_head = _TARGET.unpack_from
    unpack_id = _I64.unpack_from
    size = len(payload)
    frontier: List[FrontierItem] = []
    for _ in range(count):
        width = payload[offset]
        offset += 1
        if width != 1 and width != 2:
            raise FrameError(f"bad frontier item width {width}")
        item = []
        for _ in range(width):
            kind, x0, y0, x1, y1, priority, flags = unpack_head(payload,
                                                                offset)
            offset += 42
            node_id = unpack_id(payload, offset)[0] if flags else None
            offset += 8 * flags
            has = payload[offset]
            object_id = unpack_id(payload, offset + 1)[0] if has else None
            offset += 1 + 8 * has
            flags |= has
            (length,) = _U16.unpack_from(payload, offset)
            start = offset + 2
            offset = start + length
            if offset > size:
                raise FrameError(f"truncated target code: needs {length} "
                                 "bytes")
            code = payload[start:offset].decode("utf-8")
            has = payload[offset]
            parent = unpack_id(payload, offset + 1)[0] if has else None
            offset += 1 + 8 * has
            confirm = payload[offset]
            offset += 1
            if flags | has | confirm > 1:
                raise FrameError(_BAD_FLAG)
            item.append(FrontierTarget(_TARGET_KINDS[kind],
                                       Rect(x0, y0, x1, y1), priority,
                                       node_id, object_id, code, parent,
                                       confirm == 1))
        frontier.append(tuple(item))
    return frontier, offset


@_decodes("QUERY")
def decode_query_request(payload: bytes) -> Tuple[
        Query, Optional[RemainderQuery], Optional[SupportingIndexPolicy]]:
    """Decode a QUERY frame payload."""
    kind = payload[0]
    query: Query
    if kind == _QUERY_RANGE:
        _, x0, y0, x1, y1 = _RANGE.unpack_from(payload)
        query, offset = RangeQuery(Rect(x0, y0, x1, y1)), _RANGE.size
    elif kind == _QUERY_KNN:
        _, x, y, k = _KNN.unpack_from(payload)
        query, offset = KNNQuery(Point(x, y), k), _KNN.size
    elif kind == _QUERY_JOIN:
        _, x0, y0, x1, y1, threshold = _JOIN.unpack_from(payload)
        query, offset = JoinQuery(Rect(x0, y0, x1, y1), threshold), _JOIN.size
    else:
        raise FrameError(f"unknown query kind {kind}")
    remainder: Optional[RemainderQuery] = None
    has = payload[offset]
    if has == 1:
        (count,) = _U32.unpack_from(payload, offset + 1)
        frontier, offset = _frontier(payload, offset + 5, count)
        has = payload[offset]
        k_remaining = _I64.unpack_from(payload, offset + 1)[0] if has else None
        offset += 1 + 8 * has
        flag = payload[offset]
        fmr = _F64.unpack_from(payload, offset + 1)[0] if flag else None
        if has | flag > 1:
            raise FrameError(_BAD_FLAG)
        offset += 1 + 8 * flag
        remainder = RemainderQuery(query, frontier, k_remaining, fmr)
    elif has:
        raise FrameError(_BAD_FLAG)
    else:
        offset += 1
    policy: Optional[SupportingIndexPolicy] = None
    has = payload[offset]
    if has == 1:
        _, form, depth, max_depth = _POLICY.unpack_from(payload, offset)
        policy = SupportingIndexPolicy(_FORMS[form], depth, max_depth)
        offset += _POLICY.size
    elif has:
        raise FrameError(_BAD_FLAG)
    else:
        offset += 1
    _expect_end(payload, offset)
    return query, remainder, policy


# --------------------------------------------------------------------------- #
# RESPONSE: catalogue + deliveries + node snapshots + tail
# --------------------------------------------------------------------------- #
def encode_catalog(root_id: int, root_mbr: Rect) -> bytes:
    """The root-catalogue payload piggybacked on acks."""
    return _CATALOG.pack(root_id, root_mbr.min_x, root_mbr.min_y,
                         root_mbr.max_x, root_mbr.max_y)


def encode_response(response: ServerResponse, root_id: int,
                    root_mbr: Rect) -> bytes:
    """The RESPONSE frame payload: the full response + catalogue piggyback."""
    deliveries = response.deliveries
    parts = [_CATALOG_COUNT.pack(root_id, root_mbr.min_x, root_mbr.min_y,
                                 root_mbr.max_x, root_mbr.max_y,
                                 len(deliveries))]
    append = parts.append
    for delivery in deliveries:
        record = delivery.record
        mbr = record.mbr
        parent = delivery.parent_node_id
        append(_DELIVERY.pack(record.object_id, record.size_bytes, mbr.min_x,
                              mbr.min_y, mbr.max_x, mbr.max_y,
                              parent is not None))
        append(_FLAG[delivery.confirm_only] if parent is None
               else _ID_FLAG.pack(parent, delivery.confirm_only))
    snapshots = response.index_snapshots
    append(_U32.pack(len(snapshots)))
    for snapshot in snapshots:
        parent = snapshot.parent_id
        count = len(snapshot.elements)
        append(_SNAPSHOT.pack(snapshot.node_id, snapshot.level,
                              parent is not None))
        append(_U32.pack(count) if parent is None
               else _ID_COUNT.pack(parent, count))
        _pack_elements(parts, snapshot.elements)
    append(_TAIL.pack(response.accessed_node_count,
                      response.examined_elements, response.cpu_seconds))
    return b"".join(parts)


@_decodes("RESPONSE")
def decode_response(payload: bytes) -> Tuple[ServerResponse, int, Rect]:
    """Decode a RESPONSE frame payload → (response, root_id, root_mbr)."""
    root_id, x0, y0, x1, y1, count = _CATALOG_COUNT.unpack_from(payload)
    root_mbr = Rect(x0, y0, x1, y1)
    offset = _CATALOG_COUNT.size
    unpack_delivery = _DELIVERY.unpack_from
    deliveries: List[ObjectDelivery] = []
    append = deliveries.append
    for _ in range(_count(count, "delivery")):
        object_id, size, x0, y0, x1, y1, has = unpack_delivery(payload,
                                                               offset)
        if has:
            parent, confirm = _ID_FLAG.unpack_from(payload, offset + 49)
            offset += 58
        else:
            parent, confirm = None, payload[offset + 49]
            offset += 50
        if has | confirm > 1:
            raise FrameError(_BAD_FLAG)
        append(ObjectDelivery(ObjectRecord(object_id, Rect(x0, y0, x1, y1),
                                           size), parent, confirm == 1))
    (count,) = _U32.unpack_from(payload, offset)
    offset += 4
    snapshots: List[IndexNodeSnapshot] = []
    for _ in range(_count(count, "snapshot")):
        node_id, level, has = _SNAPSHOT.unpack_from(payload, offset)
        if has == 1:
            parent, element_count = _ID_COUNT.unpack_from(payload, offset + 13)
            offset += 25
        elif has:
            raise FrameError(_BAD_FLAG)
        else:
            parent = None
            (element_count,) = _U32.unpack_from(payload, offset + 13)
            offset += 17
        elements, offset = _elements(payload, offset, element_count)
        snapshots.append(IndexNodeSnapshot(node_id, level, parent, elements))
    accessed, examined, cpu_seconds = _TAIL.unpack_from(payload, offset)
    _expect_end(payload, offset + _TAIL.size)
    return (ServerResponse(deliveries, snapshots, accessed, examined,
                           cpu_seconds), root_id, root_mbr)


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
            + _MODEL.pack(*size_model_tuple(size_model)))


@_decodes("HELLO")
def decode_hello(payload: bytes) -> Tuple[int, str, Tuple[int, ...]]:
    """Decode a HELLO payload → (version, client name, size-model tuple)."""
    (version,) = _U16.unpack_from(payload)
    name, offset = _string(payload, 2)
    model = _MODEL.unpack_from(payload, offset)
    _expect_end(payload, offset + _MODEL.size)
    return version, name, model


def size_model_tuple(size_model: SizeModel) -> Tuple[int, ...]:
    """The five pinned size-model constants, in wire order."""
    return (size_model.page_bytes, size_model.coordinate_bytes,
            size_model.pointer_bytes, size_model.query_header_bytes,
            size_model.object_id_bytes)


def encode_hello_ack(root_id: int, root_mbr: Rect,
                     has_validation: bool) -> bytes:
    """The HELLO_ACK payload: catalogue + whether SYNC is answerable."""
    return encode_catalog(root_id, root_mbr) + _FLAG[bool(has_validation)]


@_decodes("HELLO_ACK")
def decode_hello_ack(payload: bytes) -> Tuple[int, Rect, bool]:
    """Decode a HELLO_ACK payload."""
    root_id, x0, y0, x1, y1 = _CATALOG.unpack_from(payload)
    has_validation = payload[_CATALOG.size]
    if has_validation > 1:
        raise FrameError(_BAD_FLAG)
    _expect_end(payload, _CATALOG.size + 1)
    return root_id, Rect(x0, y0, x1, y1), has_validation == 1


@_decodes("CATALOG_ACK")
def decode_catalog_ack(payload: bytes) -> Tuple[int, Rect]:
    """Decode a CATALOG_ACK payload."""
    root_id, x0, y0, x1, y1 = _CATALOG.unpack_from(payload)
    _expect_end(payload, _CATALOG.size)
    return root_id, Rect(x0, y0, x1, y1)


def encode_error(code: str, message: str) -> bytes:
    """The ERROR payload: a machine code plus a human message."""
    return _pack_str(code) + _pack_str(message)


@_decodes("ERROR")
def decode_error(payload: bytes) -> Tuple[str, str]:
    """Decode an ERROR payload."""
    code, offset = _string(payload, 0)
    message, offset = _string(payload, offset)
    _expect_end(payload, offset)
    return code, message


# --------------------------------------------------------------------------- #
# consistency validation
# --------------------------------------------------------------------------- #
def encode_sync_request(stamps: Sequence[ValidationStamp]) -> bytes:
    """The SYNC payload: one stamp per cached item."""
    parts = [_U32.pack(len(stamps))]
    for stamp in stamps:
        parent = stamp.parent_id
        parts.append(_STAMP.pack(stamp.is_node, stamp.item_id,
                                 stamp.cached_version, parent is not None))
        if parent is not None:
            parts.append(_I64.pack(parent))
    return b"".join(parts)


@_decodes("SYNC")
def decode_sync_request(payload: bytes) -> List[ValidationStamp]:
    """Decode a SYNC payload."""
    (count,) = _U32.unpack_from(payload)
    offset = 4
    stamps: List[ValidationStamp] = []
    for _ in range(_count(count, "stamp")):
        is_node, item_id, version, has = _STAMP.unpack_from(payload, offset)
        offset += _STAMP.size
        parent = _I64.unpack_from(payload, offset)[0] if has else None
        offset += 8 * has
        if is_node | has > 1:
            raise FrameError(_BAD_FLAG)
        stamps.append(ValidationStamp(is_node == 1, item_id, version, parent))
    _expect_end(payload, offset)
    return stamps


def encode_sync_ack(verdicts: Sequence[ValidationVerdict], root_id: int,
                    root_mbr: Rect) -> bytes:
    """The SYNC_ACK payload: catalogue piggyback + one verdict per stamp."""
    parts = [_CATALOG_COUNT.pack(root_id, root_mbr.min_x, root_mbr.min_y,
                                 root_mbr.max_x, root_mbr.max_y,
                                 len(verdicts))]
    for verdict in verdicts:
        parts.append(bytes((verdict.action,)))
        if verdict.action != REFRESH:
            continue
        node = verdict.node
        if node is not None:
            # Insertion order of the elements dict is the partition-tree
            # build order; preserving it keeps refreshed snapshots
            # digest-identical.
            parts.append(_REFRESH.pack(1, verdict.version))
            parts.append(_CACHED_NODE.pack(verdict.is_leaf, node.node_id,
                                           node.level, len(node.elements)))
            _pack_elements(parts, node.elements.values())
        elif verdict.record is not None:
            record = verdict.record
            mbr = record.mbr
            parts.append(_REFRESH.pack(0, verdict.version))
            parts.append(_RECORD.pack(record.object_id, record.size_bytes,
                                      mbr.min_x, mbr.min_y, mbr.max_x,
                                      mbr.max_y))
        else:
            raise ValueError("a REFRESH verdict needs a node or a record")
    return b"".join(parts)


@_decodes("SYNC_ACK")
def decode_sync_ack(payload: bytes
                    ) -> Tuple[List[ValidationVerdict], int, Rect]:
    """Decode a SYNC_ACK payload → (verdicts, root_id, root_mbr)."""
    root_id, x0, y0, x1, y1, count = _CATALOG_COUNT.unpack_from(payload)
    root_mbr = Rect(x0, y0, x1, y1)
    offset = _CATALOG_COUNT.size
    verdicts: List[ValidationVerdict] = []
    for _ in range(_count(count, "verdict")):
        action = payload[offset]
        offset += 1
        if action == VALID or action == DROP:
            verdicts.append(ValidationVerdict(action))
            continue
        if action != REFRESH:
            raise FrameError(f"unknown verdict action {action}")
        is_node, version = _REFRESH.unpack_from(payload, offset)
        offset += _REFRESH.size
        if is_node == 1:
            is_leaf, node_id, level, element_count = _CACHED_NODE.unpack_from(
                payload, offset)
            if is_leaf > 1:
                raise FrameError(_BAD_FLAG)
            elements, offset = _elements(payload, offset + _CACHED_NODE.size,
                                         element_count)
            node = CachedIndexNode(node_id, level, {element.code: element
                                                    for element in elements})
            verdicts.append(ValidationVerdict(REFRESH, version, node=node,
                                              is_leaf=is_leaf == 1))
        elif is_node == 0:
            object_id, size, x0, y0, x1, y1 = _RECORD.unpack_from(payload,
                                                                  offset)
            offset += _RECORD.size
            record = ObjectRecord(object_id, Rect(x0, y0, x1, y1), size)
            verdicts.append(ValidationVerdict(REFRESH, version,
                                              record=record))
        else:
            raise FrameError(_BAD_FLAG)
    _expect_end(payload, offset)
    return verdicts, root_id, root_mbr


def encode_sync_done(applied_downlink_bytes: int) -> bytes:
    """The SYNC_DONE payload: the client's applied handshake downlink.

    Drop cascades during verdict application can discard a shipped refresh
    payload, and only the client can see that; this one-way report lets
    the server's per-connection ledger record exactly the *modelled* bytes
    the client billed, which is what the reconciliation tests compare.
    """
    return _I64.pack(applied_downlink_bytes)


@_decodes("SYNC_DONE")
def decode_sync_done(payload: bytes) -> int:
    """Decode a SYNC_DONE payload."""
    (applied,) = _I64.unpack_from(payload)
    _expect_end(payload, _I64.size)
    return int(applied)


def encode_versions_request(node_ids: Sequence[int],
                            object_ids: Sequence[int]) -> bytes:
    """The VERSIONS payload: ids whose current stamps the client wants."""
    return (struct.pack(f"<I{len(node_ids)}q", len(node_ids), *node_ids)
            + struct.pack(f"<I{len(object_ids)}q", len(object_ids),
                          *object_ids))


def _ids(payload: bytes, offset: int) -> Tuple[List[int], int]:
    (count,) = _U32.unpack_from(payload, offset)
    ids = struct.unpack_from(f"<{_count(count, 'id')}q", payload, offset + 4)
    return list(ids), offset + 4 + 8 * count


@_decodes("VERSIONS")
def decode_versions_request(payload: bytes) -> Tuple[List[int], List[int]]:
    """Decode a VERSIONS payload."""
    node_ids, offset = _ids(payload, 0)
    object_ids, offset = _ids(payload, offset)
    _expect_end(payload, offset)
    return node_ids, object_ids


def _encode_version_map(versions: Dict[int, int],
                        order: Sequence[int]) -> bytes:
    present = [(item_id, versions[item_id]) for item_id in order
               if item_id in versions]
    parts = [_U32.pack(len(present))]
    parts.extend(_VERSION.pack(item_id, version)
                 for item_id, version in present)
    return b"".join(parts)


def encode_versions_ack(node_versions: Dict[int, int],
                        object_versions: Dict[int, int],
                        node_order: Sequence[int],
                        object_order: Sequence[int]) -> bytes:
    """The VERSIONS_ACK payload, in the request's id order."""
    return (_encode_version_map(node_versions, node_order)
            + _encode_version_map(object_versions, object_order))


def _version_map(payload: bytes, offset: int) -> Tuple[Dict[int, int], int]:
    (count,) = _U32.unpack_from(payload, offset)
    start = offset + 4
    end = start + _VERSION.size * _count(count, "version stamp")
    if end > len(payload):
        raise FrameError(f"truncated payload: {count} version stamps")
    return {item_id: version for item_id, version
            in _VERSION.iter_unpack(payload[start:end])}, end


@_decodes("VERSIONS_ACK")
def decode_versions_ack(payload: bytes
                        ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Decode a VERSIONS_ACK payload."""
    node_versions, offset = _version_map(payload, 0)
    object_versions, offset = _version_map(payload, offset)
    _expect_end(payload, offset)
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


@_decodes("BYE_ACK")
def decode_bye_ack(payload: bytes) -> Dict[str, int]:
    """Decode a BYE_ACK payload."""
    values = _LEDGER.unpack_from(payload)
    _expect_end(payload, _LEDGER.size)
    return dict(zip(LEDGER_FIELDS, values))
