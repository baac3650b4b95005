"""The synchronous client: a drop-in for the sessions' server handle.

:class:`RemoteSessionClient` is a
:class:`~repro.core.handles.ServerHandle` — all a
:class:`~repro.sim.sessions.ProactiveSession` uses of its server — so
sessions and consistency protocols run unchanged whether the "server" is
an object in the same process or a :class:`~repro.net.server.ReproServer`
behind a socket (the ZEO-style split: same logical API, pluggable
transport).

Billing discipline: the client bills its
:class:`~repro.network.channel.WirelessChannel` the *modelled* bytes of a
query — the same ``remainder.size_bytes`` / ``response.downlink_bytes``
formulas the in-process session records in its
:class:`~repro.core.cost_model.QueryCost` — and only after a response has
been fully decoded.  A retry after a torn connection therefore never
double-bills: the failed attempt acknowledged nothing, so it billed
nothing.  Raw wire bytes (frames, headers, CRCs) are tracked separately
per connection and never enter the cost model.
"""

from __future__ import annotations

import socket
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.server import ServerResponse
from repro.core.remainder import RemainderQuery
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Rect
from repro.net import codec, frames
from repro.net.frames import (
    ConnectionLost,
    ProtocolError,
    RemoteError,
)
from repro.network.channel import WirelessChannel
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.rtree.sizes import SizeModel
from repro.updates.validation import (
    ValidationService,
    ValidationStamp,
    ValidationVerdict,
)
from repro.workload.queries import Query


@dataclass(frozen=True, slots=True)
class Endpoint:
    """Where a :class:`~repro.net.server.ReproServer` listens.

    ``transport`` is ``"uds"`` (``path`` set) or ``"tcp"`` (``host`` and
    ``port`` set).
    """

    transport: str
    path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "uds"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "uds" and not self.path:
            raise ValueError("a uds endpoint needs a socket path")

    def connect(self, timeout: float = 10.0) -> socket.socket:
        """Open a blocking socket; a refused/vanished server raises
        :class:`~repro.net.frames.ConnectionLost` like any other transport
        failure, so dialling participates in the retry discipline."""
        try:
            if self.transport == "uds":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                assert self.path is not None
                sock.connect(self.path)
            else:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            raise ConnectionLost(f"cannot reach {self.transport} "
                                 f"endpoint: {error}") from error
        return sock


class Connection:
    """One framed connection with its HELLO handshake done."""

    __slots__ = ("sock", "catalog", "has_validation", "wire_bytes_out",
                 "wire_bytes_in")

    def __init__(self, endpoint: Endpoint, size_model: SizeModel,
                 client_name: str, timeout: float) -> None:
        self.sock = endpoint.connect(timeout)
        self.wire_bytes_out = 0
        self.wire_bytes_in = 0
        hello = codec.encode_hello(client_name, size_model)
        reply_type, payload = self.exchange(frames.HELLO, hello)
        if reply_type != frames.HELLO_ACK:
            raise ProtocolError(f"expected HELLO_ACK, got "
                                f"{frames.frame_name(reply_type)}")
        root_id, root_mbr, has_validation = codec.decode_hello_ack(payload)
        self.catalog: Tuple[int, Rect] = (root_id, root_mbr)
        self.has_validation = has_validation

    def send(self, frame_type: int, payload: bytes) -> None:
        """Write one frame (no reply expected)."""
        self.wire_bytes_out += frames.write_frame_socket(
            self.sock, frame_type, payload)

    def receive(self) -> Tuple[int, bytes]:
        """Read one frame, surfacing ERROR frames as typed exceptions."""
        frame_type, payload = frames.read_frame_socket(self.sock)
        self.wire_bytes_in += frames.HEADER_BYTES + len(payload)
        if frame_type == frames.ERROR:
            code, message = codec.decode_error(payload)
            raise RemoteError(code, message)
        return frame_type, payload

    def exchange(self, frame_type: int, payload: bytes) -> Tuple[int, bytes]:
        """One request/response round trip."""
        self.send(frame_type, payload)
        return self.receive()

    def expect(self, frame_type: int, payload: bytes,
               reply: int) -> bytes:
        """A round trip whose answer must be the ``reply`` frame type."""
        got, answer = self.exchange(frame_type, payload)
        if got != reply:
            raise ProtocolError(f"expected {frames.frame_name(reply)}, got "
                                f"{frames.frame_name(got)}")
        return answer

    def close(self) -> None:
        """Drop the socket without a BYE (fault paths, pool teardown)."""
        try:
            self.sock.close()
        except OSError:
            pass


class ClientPool:
    """A small pool of framed connections to one endpoint.

    Connections are reused LIFO; a connection that saw any transport or
    protocol error is discarded, never reused — after a torn frame its
    byte stream can no longer be trusted.
    """

    def __init__(self, endpoint: Endpoint, size_model: SizeModel,
                 client_name: str = "client", capacity: int = 2,
                 timeout: float = 10.0) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be positive")
        self.endpoint = endpoint
        self.size_model = size_model
        self.client_name = client_name
        self.capacity = capacity
        self.timeout = timeout
        self._idle: List[Connection] = []
        self.connections_opened = 0
        #: Wire bytes of connections already retired from the pool.
        self._retired_wire_out = 0
        self._retired_wire_in = 0
        #: Server-side ledgers collected from BYE handshakes at close.
        self.server_ledgers: List[Dict[str, int]] = []

    def get(self) -> Connection:
        """An idle connection, or a freshly dialled one."""
        if self._idle:
            return self._idle.pop()
        self.connections_opened += 1
        return Connection(self.endpoint, self.size_model, self.client_name,
                          self.timeout)

    def release(self, connection: Connection) -> None:
        """Return a healthy connection for reuse."""
        if len(self._idle) < self.capacity:
            self._idle.append(connection)
        else:
            self._retire(connection)

    def discard(self, connection: Connection) -> None:
        """Drop a connection whose stream can no longer be trusted."""
        self._retire(connection)

    def _retire(self, connection: Connection) -> None:
        self._retired_wire_out += connection.wire_bytes_out
        self._retired_wire_in += connection.wire_bytes_in
        connection.close()

    def wire_totals(self) -> Tuple[int, int]:
        """Raw ``(bytes_out, bytes_in)`` across all pool connections."""
        out = self._retired_wire_out + sum(c.wire_bytes_out
                                           for c in self._idle)
        into = self._retired_wire_in + sum(c.wire_bytes_in
                                           for c in self._idle)
        return out, into

    def close(self) -> None:
        """BYE every idle connection, collecting the server's ledgers."""
        for connection in self._idle:
            try:
                answer = connection.expect(frames.BYE, b"",
                                           frames.BYE_ACK)
                self.server_ledgers.append(codec.decode_bye_ack(answer))
            except (frames.NetError, OSError):
                pass
            self._retire(connection)
        self._idle.clear()


#: How many round-trip latencies a :class:`RemoteSessionClient` keeps.
MAX_LATENCIES = 65_536


class RemoteSessionClient:
    """The sessions' server handle, speaking the wire protocol.

    The root catalogue (``root_id`` / ``root_mbr``) is cached from the
    HELLO_ACK and refreshed by every RESPONSE / SYNC_ACK piggyback; the
    transport wrapper calls :meth:`invalidate_catalog` after every applied
    server-side update, and the next catalogue read re-fetches it for free
    (CATALOG_REQ is unbilled metadata, exactly like the in-process
    property read).
    """

    def __init__(self, endpoint: Endpoint, size_model: SizeModel,
                 client_name: str = "client",
                 channel: Optional[WirelessChannel] = None,
                 pool: Optional[ClientPool] = None,
                 max_retries: int = 1) -> None:
        self.size_model = size_model
        self.channel = channel if channel is not None else WirelessChannel()
        self.pool = pool if pool is not None else ClientPool(
            endpoint, size_model, client_name=client_name)
        self.max_retries = max_retries
        self._catalog: Optional[Tuple[int, Rect]] = None
        self._catalog_dirty = False
        #: Transport-level retries that re-sent an unacknowledged query.
        self.retries = 0
        #: Wall-clock round-trip of the most recent ``MAX_LATENCIES`` executed
        #: queries, in ms (bounded: a long-lived client must not grow with
        #: every round trip).  Real socket latency: non-deterministic,
        #: surfaced in the net report's latency block and the status server,
        #: never in fingerprints.
        self.latencies: Deque[float] = deque(maxlen=MAX_LATENCIES)

    # -- catalogue -------------------------------------------------------- #
    @property
    def root_id(self) -> int:
        """Page id of the server's R-tree root."""
        return self._catalogue()[0]

    @property
    def root_mbr(self) -> Rect:
        """MBR of the server's root node."""
        return self._catalogue()[1]

    def invalidate_catalog(self) -> None:
        """Mark the cached root catalogue stale (server-side update)."""
        self._catalog_dirty = True

    def _note_catalog(self, root_id: int, root_mbr: Rect) -> None:
        self._catalog = (root_id, root_mbr)
        self._catalog_dirty = False

    def _catalogue(self) -> Tuple[int, Rect]:
        if self._catalog is None or self._catalog_dirty:
            answer = self.request(frames.CATALOG_REQ, b"", frames.CATALOG_ACK)
            self._note_catalog(*codec.decode_catalog_ack(answer))
        assert self._catalog is not None
        return self._catalog

    # -- queries ---------------------------------------------------------- #
    def execute(self, query: Query,
                remainder: Optional[RemainderQuery] = None,
                policy: Optional[SupportingIndexPolicy] = None
                ) -> ServerResponse:
        """Run one (remainder) query on the remote server.

        Mirrors :meth:`repro.core.server.ServerQueryProcessor.execute`
        argument-for-argument.  A connection lost before the response was
        decoded is retried (``max_retries`` times) on a fresh connection:
        nothing was billed for the failed attempt, so the retry cannot
        double-bill, and the server's ledger likewise only counts answers
        it fully shipped.
        """
        start = perf_clock()
        request = codec.encode_query_request(query, remainder, policy)
        payload = self.request(frames.QUERY, request, frames.RESPONSE)
        response, root_id, root_mbr = codec.decode_response(payload)
        self._note_catalog(root_id, root_mbr)
        if remainder is not None:
            uplink = remainder.size_bytes(self.size_model)
        else:
            uplink = query.descriptor_bytes(self.size_model)
        self.channel.send_uplink(uplink)
        downlink = response.downlink_bytes(self.size_model)
        self.channel.send_downlink(downlink)
        self.latencies.append((perf_clock() - start) * 1000.0)
        if obs.ENABLED:
            obs.active().event("net.query", uplink_bytes=uplink,
                               downlink_bytes=downlink,
                               retries_so_far=self.retries)
        return response

    # -- plumbing ---------------------------------------------------------- #
    def request(self, frame_type: int, payload: bytes, reply: int) -> bytes:
        """One round trip answered by a ``reply`` frame, retried on a fresh
        connection when the transport died before the answer arrived."""
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                connection = self.pool.get()
            except ConnectionLost:
                if attempt + 1 >= attempts:
                    raise
                self.retries += 1
                continue
            try:
                answer = connection.expect(frame_type, payload, reply)
            except ConnectionLost:
                self.pool.discard(connection)
                if attempt + 1 >= attempts:
                    raise
                self.retries += 1
                continue
            except frames.NetError:
                self.pool.discard(connection)
                raise
            self.pool.release(connection)
            return answer
        raise AssertionError("unreachable")  # pragma: no cover

    def send_oneway(self, frame_type: int, payload: bytes) -> None:
        """Fire-and-forget frame (SYNC_DONE) on a pooled connection."""
        connection = self.pool.get()
        try:
            connection.send(frame_type, payload)
        except ConnectionLost:
            self.pool.discard(connection)
            raise
        self.pool.release(connection)

    def close(self) -> None:
        """Close the pool, collecting the server-side ledgers."""
        self.pool.close()

    def server_ledger(self) -> Dict[str, int]:
        """Summed server-side ledgers of this client's closed connections."""
        total = {field: 0 for field in codec.LEDGER_FIELDS}
        for ledger in self.pool.server_ledgers:
            for field, value in ledger.items():
                total[field] += value
        return total


class NetValidationService(ValidationService):
    """The versioned protocol's validation service, over the wire.

    Shares the session's :class:`RemoteSessionClient` (same pool, same
    channel), so handshake traffic lands on the same connection ledger as
    the queries it precedes.  ``finish_sync`` bills the handshake's
    modelled bytes to the channel and reports the applied downlink to the
    server with a one-way SYNC_DONE — only the client knows how many
    shipped refresh bytes survived its drop cascades.
    """

    def __init__(self, client: RemoteSessionClient) -> None:
        self.client = client

    def validate(self, stamps: Sequence[ValidationStamp]
                 ) -> List[ValidationVerdict]:
        """Ship the stamp batch, decode the verdict batch."""
        answer = self.client.request(frames.SYNC,
                                     codec.encode_sync_request(stamps),
                                     frames.SYNC_ACK)
        verdicts, root_id, root_mbr = codec.decode_sync_ack(answer)
        self.client._note_catalog(root_id, root_mbr)
        return verdicts

    def current_versions(self, node_ids: Sequence[int],
                         object_ids: Sequence[int]
                         ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Fetch current version stamps (free metadata, like in-process)."""
        answer = self.client.request(
            frames.VERSIONS,
            codec.encode_versions_request(node_ids, object_ids),
            frames.VERSIONS_ACK)
        return codec.decode_versions_ack(answer)

    def finish_sync(self, uplink_bytes: int, downlink_bytes: int) -> None:
        """Bill the handshake and report the applied downlink upstream."""
        self.client.channel.send_uplink(uplink_bytes)
        self.client.channel.send_downlink(downlink_bytes)
        self.client.send_oneway(frames.SYNC_DONE,
                                codec.encode_sync_done(downlink_bytes))
