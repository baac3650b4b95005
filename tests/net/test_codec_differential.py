"""The offset codecs against the field-by-field ones they replaced.

``tests/net/codec_reference.py`` keeps the reader-based codec verbatim.
For every payload family hypothesis draws (queries of all three kinds,
remainders with single and paired frontier items, responses with empty and
parentless deliveries, every cache-entry kind, empty and long codes, sync
acks with every verdict) the new encoder must produce the reference's
bytes and the new decoder the reference's values.  Beside the oracle: a
real ``wire_uds``-shaped response and a real join remainder are rejected
at *every* strict prefix and with every possible trailing byte, and random
or poisoned payloads raise nothing but ``FrameError`` — and are accepted
or refused exactly where the reference accepts or refuses them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.items import CacheEntry, CachedIndexNode, FrontierTarget, TargetKind
from repro.core.remainder import RemainderQuery
from repro.core.server import IndexNodeSnapshot, ObjectDelivery, ServerResponse
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.net import codec
from repro.net.frames import FrameError
from repro.rtree.entry import ObjectRecord
from repro.rtree.sizes import SizeModel
from repro.updates.validation import DROP, REFRESH, VALID, ValidationStamp, ValidationVerdict
from repro.workload.queries import JoinQuery, KNNQuery, RangeQuery

from tests.net import codec_reference as reference
from tests.net.wire_lap import wire_lap_messages

_I64 = st.integers(-(1 << 63), (1 << 63) - 1)
_U32 = st.integers(0, (1 << 32) - 1)
_I32 = st.integers(-(1 << 31), (1 << 31) - 1)
_FLOAT = st.floats(allow_nan=False, width=64)
_OPT_ID = st.none() | _I64
# Partition codes are short 0/1 strings; long and non-ASCII ones keep the
# u16 length prefix and the UTF-8 path honest.
_CODE = (st.text("01", max_size=12) | st.text("01", min_size=200, max_size=400)
         | st.text(max_size=6))


@st.composite
def _rects(draw):
    xs = sorted((draw(_FLOAT), draw(_FLOAT)))
    ys = sorted((draw(_FLOAT), draw(_FLOAT)))
    return Rect(xs[0], ys[0], xs[1], ys[1])


_QUERY = st.one_of(
    st.builds(RangeQuery, window=_rects()),
    st.builds(KNNQuery, point=st.builds(Point, _FLOAT, _FLOAT),
              k=st.integers(1, (1 << 63) - 1)),
    st.builds(JoinQuery, window=_rects(),
              threshold=st.floats(0.0, 1e300, allow_nan=False)))

_TARGET = st.builds(
    FrontierTarget, kind=st.sampled_from(list(TargetKind)), mbr=_rects(),
    priority=_FLOAT, node_id=_OPT_ID, object_id=_OPT_ID, code=_CODE,
    parent_node_id=_OPT_ID, confirm_only=st.booleans())

_POLICY = st.none() | st.builds(
    SupportingIndexPolicy, form=st.sampled_from(list(IndexForm)),
    depth=st.integers(0, (1 << 31) - 1), max_depth=_I32)


@st.composite
def _query_requests(draw):
    query = draw(_QUERY)
    remainder = None
    if draw(st.booleans()):
        items = st.lists(_TARGET, min_size=1, max_size=2).map(tuple)
        remainder = RemainderQuery(
            query=query, frontier=draw(st.lists(items, max_size=6)),
            k_remaining=draw(_OPT_ID),
            reported_fmr=draw(st.none() | _FLOAT))
    return query, remainder, draw(_POLICY)


_ENTRY = st.one_of(
    st.builds(CacheEntry, mbr=_rects(), code=_CODE),
    st.builds(CacheEntry, mbr=_rects(), code=_CODE, child_id=_I64),
    st.builds(CacheEntry, mbr=_rects(), code=_CODE, object_id=_I64))

_RECORD = st.builds(ObjectRecord, object_id=_I64, mbr=_rects(),
                    size_bytes=_I64)

_RESPONSE = st.builds(
    ServerResponse,
    deliveries=st.lists(st.builds(ObjectDelivery, record=_RECORD,
                                  parent_node_id=_OPT_ID,
                                  confirm_only=st.booleans()), max_size=8),
    index_snapshots=st.lists(st.builds(
        IndexNodeSnapshot, node_id=_I64, level=_I32, parent_id=_OPT_ID,
        elements=st.lists(_ENTRY, max_size=8)), max_size=4),
    accessed_node_count=_I64, examined_elements=_I64, cpu_seconds=_FLOAT)

_CACHED_NODE = st.builds(
    CachedIndexNode, node_id=_I64, level=_I32,
    elements=st.lists(_ENTRY, max_size=6).map(
        lambda entries: {entry.code: entry for entry in entries}))

_VERDICT = st.one_of(
    st.builds(ValidationVerdict, action=st.sampled_from((VALID, DROP))),
    st.builds(ValidationVerdict, action=st.just(REFRESH), version=_U32,
              node=_CACHED_NODE, is_leaf=st.booleans()),
    st.builds(ValidationVerdict, action=st.just(REFRESH), version=_U32,
              record=_RECORD))

_STAMPS = st.lists(st.builds(ValidationStamp, is_node=st.booleans(),
                             item_id=_I64, cached_version=_U32,
                             parent_id=_OPT_ID), max_size=8)


def _same(name, args, decode_args=None):
    """New and reference encoders agree on bytes, decoders on values."""
    payload = getattr(codec, f"encode_{name}")(*args)
    assert payload == getattr(reference, f"encode_{name}")(*args)
    decode = name if decode_args is None else decode_args
    got = getattr(codec, f"decode_{decode}")(payload)
    assert got == getattr(reference, f"decode_{decode}")(payload)
    return payload, got


@settings(max_examples=300, deadline=None)
@given(_query_requests())
def test_query_requests_match_the_reference(request):
    _, got = _same("query_request", request)
    assert got == request


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_RESPONSE, _I64, _rects())
def test_responses_match_the_reference(response, root_id, root_mbr):
    _, got = _same("response", (response, root_id, root_mbr))
    assert got == (response, root_id, root_mbr)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VERDICT, max_size=8), _I64, _rects())
def test_sync_acks_match_the_reference(verdicts, root_id, root_mbr):
    _, got = _same("sync_ack", (verdicts, root_id, root_mbr))
    assert got == (verdicts, root_id, root_mbr)


@settings(max_examples=100, deadline=None)
@given(_STAMPS, st.text(max_size=20), _I64, _rects(), st.booleans(),
       st.dictionaries(_I64, _U32, max_size=5),
       st.dictionaries(_I64, _U32, max_size=5),
       st.fixed_dictionaries({field: _I64 for field in codec.LEDGER_FIELDS}))
def test_the_control_frames_match_the_reference(stamps, text, root_id,
                                                root_mbr, flag, nodes,
                                                objects, ledger):
    _same("sync_request", (stamps,))
    _same("hello", (text, SizeModel()))
    _same("hello_ack", (root_id, root_mbr, flag))
    _same("catalog", (root_id, root_mbr), decode_args="catalog_ack")
    _same("error", (text, text[::-1]))
    _same("sync_done", (root_id,))
    _same("versions_request", (list(nodes), list(objects)))
    _same("versions_ack", (nodes, objects, list(nodes), list(objects)))
    _same("bye_ack", (ledger,))


# --------------------------------------------------------------------------- #
# every cut of real traffic
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def real_payloads():
    """One ≈ 2 KB ``wire_uds`` response and one join remainder request."""
    captured, root = wire_lap_messages(queries_per_client=40)
    responses = [codec.encode_response(response, *root)
                 for *_, response in captured]
    response = min(responses, key=lambda payload: abs(len(payload) - 2048))
    captured, _ = wire_lap_messages(queries_per_client=15, objects=2000,
                                    join=1.0)
    joins = [codec.encode_query_request(query, remainder, policy)
             for query, remainder, policy, _ in captured
             if remainder is not None
             and any(len(item) == 2 for item in remainder.frontier)]
    return {"response": (response, "response"),
            "join": (min(joins, key=lambda payload: abs(len(payload) - 1024)),
                     "query_request")}


@pytest.mark.parametrize("family", ["response", "join"])
def test_every_cut_and_every_trailing_byte_of_real_traffic_is_rejected(
        real_payloads, family):
    payload, name = real_payloads[family]
    decode = getattr(codec, f"decode_{name}")
    assert len(payload) > (1500 if family == "response" else 150)
    decode(payload)
    for cut in range(len(payload)):
        with pytest.raises(FrameError):
            decode(payload[:cut])
    for value in range(256):
        with pytest.raises(FrameError):
            decode(payload + bytes((value,)))


_REJECTED = "rejected"


def _outcome(module, name, payload):
    """The payload re-encoded by the reference, or ``_REJECTED``.

    Bytes rather than values, so a NaN a poisoned double decodes to
    compares equal to itself.  The reference's ``ValueError`` on a value a
    constructor refuses is the bug the new decoders fix: a rejection too.
    """
    try:
        decoded = getattr(module, f"decode_{name}")(payload)
    except FrameError:
        return _REJECTED
    except ValueError:
        assert module is reference, "only the old decoders leak ValueError"
        return _REJECTED
    return getattr(reference, f"encode_{name}")(*decoded)


@pytest.mark.parametrize("family", ["response", "join"])
def test_every_single_byte_poison_of_real_traffic_matches_the_reference(
        real_payloads, family):
    """Each offset set to each flag-ish value: same verdict, same value."""
    payload, name = real_payloads[family]
    for offset in range(len(payload)):
        for value in (0, 1, 2, 3, 0xFF):
            poisoned = payload[:offset] + bytes((value,)) \
                + payload[offset + 1:]
            assert _outcome(codec, name, poisoned) \
                == _outcome(reference, name, poisoned), (offset, value)


# --------------------------------------------------------------------------- #
# garbage in, FrameError out — and the reference's verdict
# --------------------------------------------------------------------------- #
_FAMILIES = ("query_request", "response", "sync_ack")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_random_bytes_raise_nothing_but_frame_errors(payload):
    for name in _FAMILIES:
        assert _outcome(codec, name, payload) \
            == _outcome(reference, name, payload)


@st.composite
def _poisoned(draw):
    """A valid payload with one field (1, 2, 4 or 8 bytes) overwritten."""
    name = draw(st.sampled_from(_FAMILIES))
    if name == "query_request":
        payload = codec.encode_query_request(*draw(_query_requests()))
    elif name == "response":
        payload = codec.encode_response(draw(_RESPONSE), draw(_I64),
                                        draw(_rects()))
    else:
        payload = codec.encode_sync_ack(draw(st.lists(_VERDICT, max_size=4)),
                                        draw(_I64), draw(_rects()))
    width = draw(st.sampled_from((1, 2, 4, 8)))
    offset = draw(st.integers(0, max(0, len(payload) - width)))
    field = draw(st.binary(min_size=width, max_size=width))
    return name, payload[:offset] + field + payload[offset + width:]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_poisoned())
def test_poisoned_fields_raise_nothing_but_frame_errors(case):
    name, payload = case
    assert _outcome(codec, name, payload) \
        == _outcome(reference, name, payload)
