"""The frame layer's contract: framing, CRC, and the error taxonomy.

A reader must always be able to tell the three failure shapes apart:

* *clean close* — EOF at a frame boundary (``ConnectionLost``, not torn);
* *torn* — EOF inside a frame, the peer died mid-write
  (``ConnectionLost`` with ``torn=True``);
* *garbled* — bytes arrived but fail magic / type / length / CRC
  validation (``FrameError``).
"""

from __future__ import annotations

import asyncio
import socket
import struct
import zlib

import pytest

from repro.net import frames
from repro.net.frames import (
    ConnectionLost,
    FrameError,
    HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    check_payload,
    encode_frame,
    read_frame_socket,
    split_header,
    write_frame_socket,
)

ALL_TYPES = sorted(frames.FRAME_NAMES)


def decode_frame(data):
    """Decode one complete frame held in memory: ``(type, payload)``.

    The in-memory twin of the stream readers, built from the same
    ``split_header`` and ``check_payload`` checks.
    """
    frame_type, length, crc = split_header(data[:HEADER_BYTES])
    payload = data[HEADER_BYTES:]
    if len(payload) != length:
        raise FrameError(f"frame payload is {len(payload)} bytes, header "
                         f"says {length}")
    check_payload(payload, crc)
    return frame_type, payload

#: Wire numbers are never reused: 10 and 11 (NODE_REQ / NODE_ACK) are retired.
RETIRED_TYPES = (10, 11)


# --------------------------------------------------------------------------- #
# encoding and in-memory decoding
# --------------------------------------------------------------------------- #
def test_live_frame_types_keep_their_numbers():
    assert ALL_TYPES == [n for n in range(1, 17) if n not in RETIRED_TYPES]
    assert (frames.VERSIONS_ACK, frames.CATALOG_REQ, frames.ERROR) == (9, 12, 16)


@pytest.mark.parametrize("frame_type", range(1, 17))
@pytest.mark.parametrize("payload", [b"", b"x", b"payload-bytes" * 7])
def test_every_frame_type_round_trips(frame_type, payload):
    """Every number ever assigned: live ones round-trip, retired ones are
    refused by the encoder and the decoder alike."""
    if frame_type in RETIRED_TYPES:
        with pytest.raises(ValueError):
            encode_frame(frame_type, payload)
        header = struct.pack("<2sBII", frames.MAGIC, frame_type, len(payload),
                             zlib.crc32(payload))
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(header + payload)
        return
    data = encode_frame(frame_type, payload)
    assert len(data) == HEADER_BYTES + len(payload)
    assert decode_frame(data) == (frame_type, payload)


def test_unknown_frame_type_is_rejected_at_encode_time():
    with pytest.raises(ValueError):
        encode_frame(max(ALL_TYPES) + 1, b"")


def test_oversized_payload_is_rejected_at_encode_time(monkeypatch):
    monkeypatch.setattr(frames, "MAX_PAYLOAD_BYTES", 8)
    with pytest.raises(ValueError):
        encode_frame(frames.QUERY, b"nine bytes")
    assert decode_frame(encode_frame(frames.QUERY, b"8 bytes.")) \
        == (frames.QUERY, b"8 bytes.")


def test_short_header_is_garbled():
    with pytest.raises(FrameError):
        split_header(b"RP\x01")


def test_bad_magic_is_garbled():
    data = bytearray(encode_frame(frames.QUERY, b"abc"))
    data[0] ^= 0xFF
    with pytest.raises(FrameError):
        decode_frame(bytes(data))


def test_unknown_type_on_the_wire_is_garbled():
    header = struct.pack("<2sBII", b"RP", 200, 0, zlib.crc32(b""))
    with pytest.raises(FrameError):
        decode_frame(header)


def test_implausible_length_is_garbled_not_an_allocation():
    header = struct.pack("<2sBII", b"RP", frames.QUERY,
                         MAX_PAYLOAD_BYTES + 1, 0)
    with pytest.raises(FrameError):
        split_header(header)


def test_payload_length_mismatch_is_garbled():
    data = encode_frame(frames.QUERY, b"abcdef")
    with pytest.raises(FrameError):
        decode_frame(data[:-1])


def test_crc_mismatch_is_garbled():
    data = bytearray(encode_frame(frames.QUERY, b"abcdef"))
    data[-1] ^= 0xFF  # damage the payload, keep the header CRC
    with pytest.raises(FrameError):
        decode_frame(bytes(data))


# --------------------------------------------------------------------------- #
# the blocking socket reader (the client side)
# --------------------------------------------------------------------------- #
def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def test_socket_round_trip_counts_wire_bytes():
    left, right = _pair()
    try:
        wire = write_frame_socket(left, frames.RESPONSE, b"hello-wire")
        assert wire == HEADER_BYTES + len(b"hello-wire")
        assert read_frame_socket(right) == (frames.RESPONSE, b"hello-wire")
    finally:
        left.close()
        right.close()


def test_clean_close_is_connection_lost_not_torn():
    left, right = _pair()
    left.close()
    try:
        with pytest.raises(ConnectionLost) as excinfo:
            read_frame_socket(right)
        assert excinfo.value.torn is False
    finally:
        right.close()


def test_eof_inside_header_is_torn():
    left, right = _pair()
    left.sendall(encode_frame(frames.QUERY, b"")[:HEADER_BYTES - 3])
    left.close()
    try:
        with pytest.raises(ConnectionLost) as excinfo:
            read_frame_socket(right)
        assert excinfo.value.torn is True
    finally:
        right.close()


def test_eof_inside_payload_is_torn():
    left, right = _pair()
    left.sendall(encode_frame(frames.QUERY, b"abcdef")[:-2])
    left.close()
    try:
        with pytest.raises(ConnectionLost) as excinfo:
            read_frame_socket(right)
        assert excinfo.value.torn is True
    finally:
        right.close()


def test_garbled_bytes_on_socket_are_frame_error():
    left, right = _pair()
    left.sendall(b"XX" + encode_frame(frames.QUERY, b"abc")[2:])
    try:
        with pytest.raises(FrameError):
            read_frame_socket(right)
    finally:
        left.close()
        right.close()


# --------------------------------------------------------------------------- #
# the asyncio reader (the server side)
# --------------------------------------------------------------------------- #
def _read_fed(*chunks: bytes, eof: bool = True):
    async def main():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return await frames.read_frame_async(reader)

    return asyncio.run(main())


def test_async_round_trip():
    assert _read_fed(encode_frame(frames.SYNC, b"stamps")) \
        == (frames.SYNC, b"stamps")


def test_async_clean_eof_is_not_torn():
    with pytest.raises(ConnectionLost) as excinfo:
        _read_fed()
    assert excinfo.value.torn is False


def test_async_eof_inside_header_is_torn():
    with pytest.raises(ConnectionLost) as excinfo:
        _read_fed(encode_frame(frames.QUERY, b"")[:4])
    assert excinfo.value.torn is True


def test_async_eof_inside_payload_is_torn():
    with pytest.raises(ConnectionLost) as excinfo:
        _read_fed(encode_frame(frames.QUERY, b"abcdef")[:-1])
    assert excinfo.value.torn is True


def test_async_crc_mismatch_is_garbled():
    data = bytearray(encode_frame(frames.QUERY, b"abcdef"))
    data[-1] ^= 0x01
    with pytest.raises(FrameError):
        _read_fed(bytes(data))

