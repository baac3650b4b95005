"""Property-based round trips for every frame payload codec.

Seed-deterministic drivers (same idiom as ``tests/proptest``): for each
seed a randomized payload object is built, encoded, decoded, and
re-encoded — the re-encoding must reproduce the byte string exactly, so
decoded values carry no hidden loss.  The rejection half of the battery
feeds every codec truncated prefixes, trailing garbage, and single-byte
damage (via :func:`repro.storage.faults.corrupt_byte`, the same helper
the storage fault suite uses) and demands a typed ``FrameError`` — never
an uncaught ``struct.error``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.items import (
    CacheEntry,
    CachedIndexNode,
    FrontierTarget,
    TargetKind,
)
from repro.core.remainder import RemainderQuery
from repro.core.server import IndexNodeSnapshot, ObjectDelivery, ServerResponse
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.net import codec, frames
from repro.net.frames import FrameError
from repro.rtree.entry import ObjectRecord
from repro.rtree.sizes import SizeModel
from repro.storage.faults import corrupt_byte
from repro.updates.validation import (
    DROP,
    REFRESH,
    VALID,
    ValidationStamp,
    ValidationVerdict,
)
from repro.workload.queries import JoinQuery, KNNQuery, RangeQuery

SEEDS = range(12)


# --------------------------------------------------------------------------- #
# randomized payload builders
# --------------------------------------------------------------------------- #
def _rect(rng: random.Random) -> Rect:
    xs = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
    ys = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
    return Rect(xs[0], ys[0], xs[1], ys[1])


def _code(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))


def _query(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return RangeQuery(window=_rect(rng))
    if kind == 1:
        return KNNQuery(point=Point(rng.uniform(0, 1), rng.uniform(0, 1)),
                        k=rng.randint(1, 50))
    return JoinQuery(window=_rect(rng), threshold=rng.uniform(0.0, 0.2))


def _target(rng: random.Random) -> FrontierTarget:
    kind = rng.choice((TargetKind.NODE, TargetKind.OBJECT, TargetKind.SUPER))
    return FrontierTarget(
        kind=kind, mbr=_rect(rng), priority=rng.uniform(0.0, 10.0),
        node_id=rng.randrange(1 << 32) if rng.random() < 0.5 else None,
        object_id=rng.randrange(1 << 32) if rng.random() < 0.5 else None,
        code=_code(rng),
        parent_node_id=rng.randrange(1 << 20) if rng.random() < 0.5 else None,
        confirm_only=rng.random() < 0.3)


def _remainder(rng: random.Random, query) -> RemainderQuery:
    frontier = []
    for _ in range(rng.randint(0, 6)):
        width = rng.choice((1, 2))
        frontier.append(tuple(_target(rng) for _ in range(width)))
    return RemainderQuery(
        query=query, frontier=frontier,
        k_remaining=rng.randint(0, 40) if rng.random() < 0.5 else None,
        reported_fmr=rng.uniform(0.0, 1.0) if rng.random() < 0.5 else None)


def _policy(rng: random.Random) -> SupportingIndexPolicy:
    return SupportingIndexPolicy(
        form=rng.choice((IndexForm.FULL, IndexForm.COMPACT,
                         IndexForm.ADAPTIVE)),
        depth=rng.randint(0, 6), max_depth=rng.randint(0, 9))


def _entry(rng: random.Random, code: str) -> CacheEntry:
    kind = rng.randrange(3)
    if kind == 0:
        return CacheEntry(mbr=_rect(rng), code=code)
    if kind == 1:
        return CacheEntry(mbr=_rect(rng), code=code,
                          child_id=rng.randrange(1 << 40))
    return CacheEntry(mbr=_rect(rng), code=code,
                      object_id=rng.randrange(1 << 40))


def _unique_codes(rng: random.Random, count: int) -> list:
    codes = set()
    while len(codes) < count:
        codes.add(_code(rng) + str(len(codes)))
    return sorted(codes, key=lambda code: rng.random())


def _record(rng: random.Random) -> ObjectRecord:
    return ObjectRecord(object_id=rng.randrange(1 << 40), mbr=_rect(rng),
                        size_bytes=rng.randint(0, 1 << 20))


def _snapshot(rng: random.Random) -> IndexNodeSnapshot:
    count = rng.randint(0, 5)
    return IndexNodeSnapshot(
        node_id=rng.randrange(1 << 32), level=rng.randint(0, 8),
        parent_id=rng.randrange(1 << 32) if rng.random() < 0.7 else None,
        elements=[_entry(rng, code)
                  for code in _unique_codes(rng, count)])


def _response(rng: random.Random) -> ServerResponse:
    deliveries = [
        ObjectDelivery(record=_record(rng),
                       parent_node_id=(rng.randrange(1 << 32)
                                       if rng.random() < 0.8 else None),
                       confirm_only=rng.random() < 0.3)
        for _ in range(rng.randint(0, 6))]
    return ServerResponse(
        deliveries=deliveries,
        index_snapshots=[_snapshot(rng) for _ in range(rng.randint(0, 4))],
        accessed_node_count=rng.randint(0, 500),
        examined_elements=rng.randint(0, 5000),
        cpu_seconds=rng.uniform(0.0, 0.5))


def _cached_node(rng: random.Random) -> CachedIndexNode:
    codes = _unique_codes(rng, rng.randint(1, 5))
    return CachedIndexNode(
        node_id=rng.randrange(1 << 32), level=rng.randint(0, 8),
        elements={code: _entry(rng, code) for code in codes})


def _stamps(rng: random.Random) -> list:
    return [ValidationStamp(
        is_node=rng.random() < 0.5, item_id=rng.randrange(1 << 40),
        cached_version=rng.randrange(1 << 32),
        parent_id=rng.randrange(1 << 32) if rng.random() < 0.7 else None)
        for _ in range(rng.randint(0, 8))]


def _verdicts(rng: random.Random) -> list:
    verdicts = []
    for _ in range(rng.randint(0, 8)):
        action = rng.choice((VALID, DROP, REFRESH))
        if action != REFRESH:
            verdicts.append(ValidationVerdict(action=action))
        elif rng.random() < 0.5:
            verdicts.append(ValidationVerdict(
                action=REFRESH, version=rng.randrange(1 << 32),
                node=_cached_node(rng), is_leaf=rng.random() < 0.5))
        else:
            verdicts.append(ValidationVerdict(
                action=REFRESH, version=rng.randrange(1 << 32),
                record=_record(rng)))
    return verdicts


def _size_model(rng: random.Random) -> SizeModel:
    return SizeModel(page_bytes=rng.randint(512, 65536),
                     coordinate_bytes=rng.choice((4, 8)),
                     pointer_bytes=rng.choice((4, 8)),
                     query_header_bytes=rng.randint(1, 64),
                     object_id_bytes=rng.choice((4, 8)))


def _ledger(rng: random.Random) -> dict:
    return {field: rng.randrange(1 << 40) for field in codec.LEDGER_FIELDS}


# --------------------------------------------------------------------------- #
# every frame payload: encode → decode → re-encode identity
# --------------------------------------------------------------------------- #
def _families(seed: int):
    """(name, payload bytes, decode, re-encode) for every frame payload."""
    rng = random.Random(seed)
    query = _query(rng)
    remainder = _remainder(rng, query)
    policy = _policy(rng)
    response = _response(rng)
    stamps = _stamps(rng)
    verdicts = _verdicts(rng)
    model = _size_model(rng)
    name = rng.choice(("client-7", "wörker-Δ", ""))
    root_id, root_mbr = rng.randrange(1 << 32), _rect(rng)
    node_versions = {rng.randrange(1 << 32): rng.randrange(1 << 32)
                     for _ in range(rng.randint(0, 5))}
    object_versions = {rng.randrange(1 << 32): rng.randrange(1 << 32)
                      for _ in range(rng.randint(0, 5))}
    ledger = _ledger(rng)
    applied = rng.randrange(1 << 40)

    def redo_query(decoded):
        return codec.encode_query_request(*decoded)

    def redo_response(decoded):
        got, got_root, got_mbr = decoded
        return codec.encode_response(got, got_root, got_mbr)

    def redo_sync_ack(decoded):
        got, got_root, got_mbr = decoded
        return codec.encode_sync_ack(got, got_root, got_mbr)

    def redo_versions_ack(decoded):
        nodes, objects = decoded
        return codec.encode_versions_ack(nodes, objects,
                                         list(nodes), list(objects))

    return [
        ("hello", codec.encode_hello(name, model), codec.decode_hello,
         lambda decoded: codec.encode_hello(decoded[1],
                                            SizeModel(*decoded[2]))),
        ("hello_ack",
         codec.encode_hello_ack(root_id, root_mbr, rng.random() < 0.5),
         codec.decode_hello_ack,
         lambda decoded: codec.encode_hello_ack(*decoded)),
        ("query", codec.encode_query_request(query, remainder, policy),
         codec.decode_query_request, redo_query),
        ("query_bare", codec.encode_query_request(query, None, None),
         codec.decode_query_request, redo_query),
        ("response", codec.encode_response(response, root_id, root_mbr),
         codec.decode_response, redo_response),
        ("sync", codec.encode_sync_request(stamps),
         codec.decode_sync_request, codec.encode_sync_request),
        ("sync_ack", codec.encode_sync_ack(verdicts, root_id, root_mbr),
         codec.decode_sync_ack, redo_sync_ack),
        ("sync_done", codec.encode_sync_done(applied),
         codec.decode_sync_done, codec.encode_sync_done),
        ("versions", codec.encode_versions_request(
            sorted(node_versions), sorted(object_versions)),
         codec.decode_versions_request,
         lambda decoded: codec.encode_versions_request(*decoded)),
        ("versions_ack", codec.encode_versions_ack(
            node_versions, object_versions,
            list(node_versions), list(object_versions)),
         codec.decode_versions_ack, redo_versions_ack),
        ("catalog_ack", codec.encode_catalog(root_id, root_mbr),
         codec.decode_catalog_ack,
         lambda decoded: codec.encode_catalog(*decoded)),
        ("error", codec.encode_error("some-code", "what happened: ünïcode"),
         codec.decode_error, lambda decoded: codec.encode_error(*decoded)),
        ("bye_ack", codec.encode_bye_ack(ledger),
         codec.decode_bye_ack, codec.encode_bye_ack),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_payload_family_reencodes_identically(seed):
    for name, payload, decode, reencode in _families(seed):
        decoded = decode(payload)
        assert reencode(decoded) == payload, name


@pytest.mark.parametrize("seed", SEEDS)
def test_every_strict_prefix_is_rejected(seed):
    rng = random.Random(seed * 31 + 7)
    for name, payload, decode, _ in _families(seed):
        if not payload:
            continue
        cuts = range(len(payload)) if len(payload) <= 200 else \
            sorted(rng.sample(range(len(payload)), 60))
        for cut in cuts:
            with pytest.raises(FrameError):
                decode(payload[:cut])


@pytest.mark.parametrize("seed", SEEDS)
def test_trailing_garbage_is_rejected(seed):
    for name, payload, decode, _ in _families(seed):
        with pytest.raises(FrameError):
            decode(payload + b"\x00")


# --------------------------------------------------------------------------- #
# single-byte damage: every flip of a framed message is a FrameError
# --------------------------------------------------------------------------- #
def test_corrupt_byte_sweep_over_a_framed_query(tmp_path):
    """``corrupt_byte`` damage at *every* offset is caught by the frame.

    The magic, type, and length fields fail structural validation; any
    payload or CRC damage fails the CRC check — there is no offset where
    a flipped byte decodes silently.
    """
    rng = random.Random(42)
    payload = codec.encode_query_request(_query(rng), None, None)
    data = frames.encode_frame(frames.QUERY, payload)
    for offset in range(len(data)):
        path = tmp_path / f"frame-{offset}.bin"
        path.write_bytes(data)
        corrupt_byte(str(path), offset)
        damaged = path.read_bytes()
        assert damaged != data
        with pytest.raises(FrameError):
            frames.decode_frame(damaged)
    # The pristine bytes still decode: the sweep damaged copies only.
    assert frames.decode_frame(data) == (frames.QUERY, payload)


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_byte_sampled_sweep_over_every_family(seed, tmp_path):
    rng = random.Random(seed * 17 + 3)
    for name, payload, _, _ in _families(seed):
        data = frames.encode_frame(frames.ERROR, payload)
        offsets = rng.sample(range(len(data)), min(8, len(data)))
        for offset in offsets:
            path = tmp_path / f"{name}-{offset}.bin"
            path.write_bytes(data)
            corrupt_byte(str(path), offset)
            with pytest.raises(FrameError):
                frames.decode_frame(path.read_bytes())


# --------------------------------------------------------------------------- #
# targeted semantic rejections (valid frames, poisoned field values)
# --------------------------------------------------------------------------- #
def _poisoned(payload: bytes, offset: int, value: int) -> bytes:
    data = bytearray(payload)
    data[offset] = value
    return bytes(data)


def test_unknown_query_kind_is_rejected():
    payload = codec.encode_query_request(RangeQuery(window=Rect(0, 0, 1, 1)),
                                         None, None)
    with pytest.raises(FrameError):
        codec.decode_query_request(_poisoned(payload, 0, 9))


def test_nonpositive_knn_k_is_rejected():
    payload = codec.encode_query_request(KNNQuery(point=Point(0.5, 0.5), k=3),
                                         None, None)
    # k is the i64 right after the kind byte and the two coordinates.
    assert payload[17:25] == (3).to_bytes(8, "little")
    for k in (0, -1):
        with pytest.raises(FrameError):
            codec.decode_query_request(
                payload[:17] + k.to_bytes(8, "little", signed=True)
                + payload[25:])


def test_bad_presence_flag_is_rejected():
    payload = codec.encode_query_request(RangeQuery(window=Rect(0, 0, 1, 1)),
                                         None, None)
    with pytest.raises(FrameError):  # the policy-present flag
        codec.decode_query_request(_poisoned(payload, len(payload) - 1, 2))


def test_bad_boolean_flag_is_rejected():
    payload = codec.encode_hello_ack(1, Rect(0, 0, 1, 1), True)
    with pytest.raises(FrameError):
        codec.decode_hello_ack(_poisoned(payload, len(payload) - 1, 7))


def test_implausible_count_is_rejected_before_allocation():
    payload = codec.encode_sync_request([])
    with pytest.raises(FrameError):
        codec.decode_sync_request(_poisoned(payload, 3, 0xFF))


def test_unknown_verdict_action_is_rejected():
    payload = codec.encode_sync_ack([ValidationVerdict(action=VALID)],
                                    1, Rect(0, 0, 1, 1))
    with pytest.raises(FrameError):
        codec.decode_sync_ack(_poisoned(payload, len(payload) - 1, 9))


def test_bad_frontier_width_is_rejected():
    rng = random.Random(1)
    query = RangeQuery(window=Rect(0, 0, 1, 1))
    remainder = RemainderQuery(query=query, frontier=[(_target(rng),)])
    payload = codec.encode_query_request(query, remainder, None)
    # The width byte sits right after the query (33 bytes), the remainder
    # presence flag, and the frontier count.
    width_offset = 33 + 1 + 4
    assert payload[width_offset] == 1
    with pytest.raises(FrameError):
        codec.decode_query_request(_poisoned(payload, width_offset, 3))


def test_frontier_item_of_three_whole_targets_is_rejected():
    """Width 3 is refused even when three well-formed targets follow it."""
    rng = random.Random(2)
    query = RangeQuery(window=Rect(0, 0, 1, 1))
    target = _target(rng)
    remainder = RemainderQuery(query=query, frontier=[(target,) * 3])
    payload = codec.encode_query_request(query, remainder, None)
    assert payload[33 + 1 + 4] == 3
    with pytest.raises(FrameError, match="width 3"):
        codec.decode_query_request(payload)


def test_degenerate_rectangle_is_a_frame_error():
    """A value ``Rect`` refuses (min_x > max_x) is a typed payload error."""
    payload = codec.encode_query_request(RangeQuery(window=Rect(0, 0, 1, 1)),
                                         None, None)
    swapped = payload[:1] + payload[17:25] + payload[9:17] + payload[1:9] \
        + payload[25:]
    with pytest.raises(FrameError, match="degenerate rectangle"):
        codec.decode_query_request(swapped)


def test_garbled_utf8_string_is_rejected():
    payload = codec.encode_error("ab", "cd")
    with pytest.raises(FrameError):
        codec.decode_error(_poisoned(payload, 2, 0xFF))
