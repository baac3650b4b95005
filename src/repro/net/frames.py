"""The wire frame layer: length-prefixed, CRC-checked binary frames.

Every message on a connection is one frame::

    <2s magic "RP"> <B frame type> <I payload length> <I crc32(payload)>
    <payload>

All integers are little-endian fixed width, matching the page codecs of
:mod:`repro.rtree.serialize`.  The CRC covers the payload only; the header
is validated structurally (magic, known type, sane length).  Frames are
self-delimiting, so a reader can always tell a *torn* stream (EOF inside a
frame — the peer died mid-write) from a *garbled* one (bytes arrived but
fail the magic / CRC check) and surfaces each as its own typed error.

The module is transport-agnostic: :func:`read_frame_async` serves the
asyncio server and :func:`read_frame_socket` the synchronous client.  What
is inside a payload is :mod:`repro.net.codec`'s business; its decoders
raise the same :class:`FrameError` for a malformed one.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import zlib
from typing import Tuple

MAGIC = b"RP"

_HEADER = struct.Struct("<2sBII")

#: Encoded size of a frame header.
HEADER_BYTES = _HEADER.size

#: Upper bound on one frame's payload; a length field beyond this is
#: treated as garbage (a garbled header), not an allocation request.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

# Frame types.  Values are wire constants — never renumber, only append.
# 10 and 11 (NODE_REQ / NODE_ACK, a page fetch no client ever sent) are
# retired: a peer sending one gets the unknown-frame-type error.
HELLO = 1
HELLO_ACK = 2
QUERY = 3
RESPONSE = 4
SYNC = 5
SYNC_ACK = 6
SYNC_DONE = 7
VERSIONS = 8
VERSIONS_ACK = 9
CATALOG_REQ = 12
CATALOG_ACK = 13
BYE = 14
BYE_ACK = 15
ERROR = 16

FRAME_NAMES = {
    HELLO: "HELLO", HELLO_ACK: "HELLO_ACK",
    QUERY: "QUERY", RESPONSE: "RESPONSE",
    SYNC: "SYNC", SYNC_ACK: "SYNC_ACK", SYNC_DONE: "SYNC_DONE",
    VERSIONS: "VERSIONS", VERSIONS_ACK: "VERSIONS_ACK",
    CATALOG_REQ: "CATALOG_REQ", CATALOG_ACK: "CATALOG_ACK",
    BYE: "BYE", BYE_ACK: "BYE_ACK",
    ERROR: "ERROR",
}


class NetError(Exception):
    """Base class of every networking failure the package raises."""


class FrameError(NetError):
    """A garbled or truncated frame: bad magic, bad CRC, bad payload."""


class ConnectionLost(NetError):
    """The peer vanished: EOF, reset, or a torn (half-written) frame."""

    def __init__(self, message: str, torn: bool = False) -> None:
        super().__init__(message)
        #: True when the stream died *inside* a frame — the peer was
        #: killed mid-write — rather than at a clean frame boundary.
        self.torn = torn


class RemoteError(NetError):
    """A failure the server reported through an ERROR frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class ProtocolError(NetError):
    """An unexpected frame where the protocol state machine forbids it."""


def frame_name(frame_type: int) -> str:
    """Human-readable name of a frame type (for error messages)."""
    return FRAME_NAMES.get(frame_type, f"frame#{frame_type}")


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete frame: header plus payload."""
    if frame_type not in FRAME_NAMES:
        raise ValueError(f"unknown frame type {frame_type}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the "
                         f"{MAX_PAYLOAD_BYTES}-byte frame limit")
    return _HEADER.pack(MAGIC, frame_type, len(payload),
                        zlib.crc32(payload)) + payload


def split_header(header: bytes) -> Tuple[int, int, int]:
    """Validate a frame header; returns ``(type, payload_length, crc)``."""
    if len(header) != HEADER_BYTES:
        raise FrameError(f"short frame header ({len(header)} of "
                         f"{HEADER_BYTES} bytes)")
    magic, frame_type, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if frame_type not in FRAME_NAMES:
        raise FrameError(f"unknown frame type {frame_type}")
    if length > MAX_PAYLOAD_BYTES:
        raise FrameError(f"frame length {length} exceeds the "
                         f"{MAX_PAYLOAD_BYTES}-byte limit")
    return frame_type, length, crc


def check_payload(payload: bytes, crc: int) -> None:
    """Reject a payload whose CRC32 does not match its header."""
    actual = zlib.crc32(payload)
    if actual != crc:
        raise FrameError(f"frame CRC mismatch (header {crc:#010x}, "
                         f"payload {actual:#010x})")


def decode_frame(data: bytes) -> Tuple[int, bytes]:
    """Decode one complete frame held in memory (tests, buffers)."""
    frame_type, length, crc = split_header(data[:HEADER_BYTES])
    payload = data[HEADER_BYTES:]
    if len(payload) != length:
        raise FrameError(f"frame payload is {len(payload)} bytes, header "
                         f"says {length}")
    check_payload(payload, crc)
    return frame_type, payload


async def read_frame_async(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame from an asyncio stream.

    EOF at a frame boundary raises a clean :class:`ConnectionLost`; EOF
    inside a frame raises a *torn* one.  Garbled bytes raise
    :class:`FrameError` — the caller must drop the connection, since frame
    boundaries can no longer be trusted.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise ConnectionLost("connection closed") from error
        raise ConnectionLost(
            f"torn frame header ({len(error.partial)} of {HEADER_BYTES} "
            f"bytes)", torn=True) from error
    except (ConnectionError, OSError) as error:
        raise ConnectionLost(f"connection lost: {error}") from error
    frame_type, length, crc = split_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionLost(
            f"torn {frame_name(frame_type)} frame ({len(error.partial)} of "
            f"{length} payload bytes)", torn=True) from error
    except (ConnectionError, OSError) as error:
        raise ConnectionLost(f"connection lost: {error}") from error
    check_payload(payload, crc)
    return frame_type, payload


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Blocking exact read; raises ``ConnectionLost`` on EOF/reset."""
    chunks = []
    received = 0
    while received < count:
        try:
            chunk = sock.recv(count - received)
        except (ConnectionError, OSError) as error:
            raise ConnectionLost(f"connection lost: {error}") from error
        if not chunk:
            if received == 0:
                raise ConnectionLost("connection closed")
            raise ConnectionLost(
                f"torn frame ({received} of {count} bytes)", torn=True)
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def read_frame_socket(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame from a blocking socket (the synchronous client)."""
    header = _recv_exactly(sock, HEADER_BYTES)
    frame_type, length, crc = split_header(header)
    payload = _recv_exactly(sock, length) if length else b""
    check_payload(payload, crc)
    return frame_type, payload


def write_frame_socket(sock: socket.socket, frame_type: int,
                       payload: bytes) -> int:
    """Write one frame to a blocking socket; returns the wire byte count."""
    data = encode_frame(frame_type, payload)
    try:
        sock.sendall(data)
    except (ConnectionError, OSError) as error:
        raise ConnectionLost(f"connection lost: {error}") from error
    return len(data)

