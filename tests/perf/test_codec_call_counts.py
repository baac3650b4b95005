"""Counts, not clocks: what decoding a cache miss's two messages costs in calls.

Every miss ships a QUERY (the remainder's frontier) up and a RESPONSE
(deliveries plus node snapshots) down.  When both were parsed field by
field through a bounds-checked reader, decoding a RESPONSE cost 19.5 Python
calls per snapshot element or delivery and decoding a QUERY 41.1 per
frontier target (``wire_uds`` traffic, 1 701 captured messages): three or
four ``PayloadReader.unpack`` calls, each with a ``remaining`` property
check, plus ``_read_rect``, ``_read_str`` and ``read_cache_entry`` per
element.  The offset decoders read each fixed-width run with one ``struct``
call, so what is left per element is the objects it becomes (a ``Rect``
and a ``CacheEntry``, an ``__init__`` and a ``__post_init__`` each).  Call
counts repeat exactly where a wall-clock regression of a few per cent
drowns in noise, so this test replays real traffic and holds the decoders
to ceilings a little above what they need today.
"""

import sys

import pytest

from repro.net import codec

from tests.net.wire_lap import wire_lap_messages

pytestmark = pytest.mark.slow


def _calls(decode, payloads):
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(on_event)
    try:
        for payload in payloads:
            decode(payload)
    finally:
        sys.setprofile(None)
    return count


def test_codec_call_counts_on_wire_uds_traffic():
    captured, root = wire_lap_messages()
    requests = [codec.encode_query_request(query, remainder, policy)
                for query, remainder, policy, _ in captured]
    responses = [codec.encode_response(response, *root)
                 for *_, response in captured]
    elements = sum(len(snapshot.elements) for *_, response in captured
                   for snapshot in response.index_snapshots)
    deliveries = sum(len(response.deliveries) for *_, response in captured)
    targets = sum(remainder.target_count() for _, remainder, _, _ in captured
                  if remainder is not None)
    # The lap is the workload's shape: every message a real miss, with a
    # couple of dozen elements per response and a frontier per request.
    assert len(captured) > 200
    assert elements > 10 * len(captured) and targets > 3 * len(captured)

    # Measured: 4.5 calls per element or delivery, 4.7 per frontier target.
    assert _calls(codec.decode_response, responses) \
        <= 9 * (elements + deliveries)
    assert _calls(codec.decode_query_request, requests) <= 25 * targets
