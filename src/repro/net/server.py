"""The asyncio server: many concurrent sessions over TCP and UNIX sockets.

:class:`ReproServer` fronts a :class:`~repro.core.handles.ServerHandle`
(the in-process query processor or the sharded router) with the framed wire
protocol:

* **serial query admission** — readers push decoded queries into one
  bounded :class:`asyncio.Queue`; a single dispatcher task takes them in
  admission order and executes them one at a time.  Query execution is a
  deterministic function of (query, remainder, policy) and server state,
  and nothing else runs while it executes, so any interleaving of N
  clients produces exactly the per-client answers of a serial replay —
  the concurrency regression suite pins this.
* **bounded backpressure** — when the admission queue is full the reader
  coroutine blocks on ``put()``, stops consuming its socket, and the
  kernel's TCP window pushes back on the client.
* **per-connection byte ledgers** — the server bills each query's
  modelled uplink/downlink bytes with the *same formulas the client
  uses*, so the final ledger (shipped in BYE_ACK) reconciles exactly
  with the client's :class:`~repro.network.channel.WirelessChannel`
  totals; raw wire bytes are tracked separately.

Consistency validation (SYNC / VERSIONS) is answered from an optional
:class:`~repro.updates.validation.ValidationService`; metadata requests
(CATALOG_REQ, VERSIONS) are free, matching the in-process
deployment where they are plain attribute reads.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from typing import Dict, List, Optional, Tuple

from repro.core.handles import ServerHandle
from repro.net import codec, frames
from repro.net.frames import ConnectionLost, FrameError
from repro.obs.status import LoopThread
from repro.rtree.sizes import SizeModel
from repro.updates.validation import ValidationService

#: Default bound of the shared query-admission queue.
DEFAULT_MAX_PENDING = 64


class _Connection:
    """Per-connection state: streams, identity, and the byte ledger."""

    __slots__ = ("reader", "writer", "name", "ledger", "closed")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.name = "?"
        self.closed = False
        self.ledger: Dict[str, int] = {field: 0
                                       for field in codec.LEDGER_FIELDS}

    async def send(self, frame_type: int, payload: bytes) -> None:
        """Write one frame and count its wire bytes."""
        data = frames.encode_frame(frame_type, payload)
        try:
            self.writer.write(data)
            await self.writer.drain()
        except (ConnectionError, OSError) as error:
            raise ConnectionLost(f"connection lost: {error}") from error
        self.ledger["wire_bytes_out"] += len(data)

    async def send_error(self, code: str, message: str) -> None:
        """Best-effort ERROR frame (the peer may already be gone)."""
        try:
            await self.send(frames.ERROR, codec.encode_error(code, message))
        except ConnectionLost:
            pass


class ReproServer:
    """Serve the wire protocol for one in-process server handle.

    ``validation`` answers the versioned protocol's SYNC exchange; without
    one, SYNC gets a typed error (static fleets never send it).
    """

    def __init__(self, server: ServerHandle, size_model: SizeModel,
                 validation: Optional[ValidationService] = None,
                 max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.server = server
        self.size_model = size_model
        self.validation = validation
        self.max_pending = max_pending
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._listeners: List[asyncio.AbstractServer] = []
        #: UNIX socket files this server bound; close() removes them.
        self._socket_paths: List[str] = []
        #: Final ledgers of connections that completed a BYE handshake,
        #: keyed by client name (reconciliation tests read these).
        self.final_ledgers: Dict[str, Dict[str, int]] = {}
        #: The open connections; the status server reads live ledgers out
        #: of this list.
        self._connections: List[_Connection] = []

    # ------------------------------------------------------------------ #
    # status-server surface (read from another thread; plain int reads
    # are atomic enough under the GIL for monitoring purposes)
    # ------------------------------------------------------------------ #
    def queue_depth(self) -> int:
        """Queries admitted but not yet dispatched."""
        return self._queue.qsize() if self._queue is not None else 0

    def connection_ledgers(self) -> Dict[str, Dict[str, int]]:
        """Per-client wire ledgers: live connections overlaid on final ones."""
        ledgers = {name: dict(ledger)
                   for name, ledger in sorted(self.final_ledgers.items())}
        for connection in list(self._connections):
            if not connection.closed and connection.name:
                ledgers[connection.name] = dict(connection.ledger)
        return ledgers

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Create the admission queue and the dispatcher task."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.max_pending)
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())

    async def listen_tcp(self, host: str = "127.0.0.1",
                         port: int = 0) -> Tuple[str, int]:
        """Listen on TCP; returns the bound ``(host, port)``."""
        await self.start()
        listener = await asyncio.start_server(self._handle, host=host,
                                              port=port)
        self._listeners.append(listener)
        bound = listener.sockets[0].getsockname()
        return bound[0], bound[1]

    async def listen_uds(self, path: str) -> str:
        """Listen on a UNIX socket; returns the bound path."""
        await self.start()
        listener = await asyncio.start_unix_server(self._handle, path=path)
        self._listeners.append(listener)
        self._socket_paths.append(path)
        return path

    async def close(self) -> None:
        """Stop listening, remove bound socket files, cancel the dispatcher."""
        for listener in self._listeners:
            listener.close()
            await listener.wait_closed()
        self._listeners.clear()
        for path in self._socket_paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        self._socket_paths.clear()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._queue = None

    # ------------------------------------------------------------------ #
    # the dispatcher: serial, deterministic
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            connection, payload = await self._queue.get()
            await self._serve_query(connection, payload)

    async def _serve_query(self, connection: _Connection,
                           payload: bytes) -> None:
        try:
            query, remainder, policy = codec.decode_query_request(payload)
        except FrameError as error:
            await connection.send_error("bad-query", str(error))
            return
        try:
            response = self.server.execute(query, remainder, policy)
        except Exception as error:  # surfaced to the client, not swallowed
            await connection.send_error("server-error",
                                        f"{type(error).__name__}: {error}")
            return
        if remainder is not None:
            uplink = remainder.size_bytes(self.size_model)
        else:
            uplink = query.descriptor_bytes(self.size_model)
        downlink = response.downlink_bytes(self.size_model)
        reply = codec.encode_response(response, self.server.root_id,
                                      self.server.root_mbr)
        try:
            await connection.send(frames.RESPONSE, reply)
        except ConnectionLost:
            # The client vanished before the answer shipped; nothing was
            # acknowledged, so nothing lands in the ledger — mirroring the
            # client, which only bills a decoded response.
            connection.closed = True
            return
        connection.ledger["queries_served"] += 1
        connection.ledger["uplink_bytes"] += uplink
        connection.ledger["downlink_bytes"] += downlink

    # ------------------------------------------------------------------ #
    # per-connection protocol loop
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        connection = _Connection(reader, writer)
        self._connections.append(connection)
        try:
            if not await self._handshake(connection):
                return
            await self._serve_frames(connection)
        except ConnectionLost:
            pass  # the peer is gone either way
        except FrameError as error:
            # Garbled bytes: frame boundaries can no longer be trusted, so
            # report once and drop the connection.
            await connection.send_error("bad-frame", str(error))
        finally:
            connection.closed = True
            self._connections.remove(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, connection: _Connection) -> Tuple[int, bytes]:
        frame_type, payload = await frames.read_frame_async(connection.reader)
        connection.ledger["wire_bytes_in"] += (frames.HEADER_BYTES
                                               + len(payload))
        return frame_type, payload

    async def _handshake(self, connection: _Connection) -> bool:
        frame_type, payload = await self._read(connection)
        if frame_type != frames.HELLO:
            await connection.send_error(
                "bad-hello", f"expected HELLO, got "
                f"{frames.frame_name(frame_type)}")
            return False
        version, name, model = codec.decode_hello(payload)
        if version != codec.PROTOCOL_VERSION:
            await connection.send_error(
                "version-mismatch", f"server speaks protocol "
                f"{codec.PROTOCOL_VERSION}, client {version}")
            return False
        expected = codec.size_model_tuple(self.size_model)
        if model != expected:
            await connection.send_error(
                "size-model-mismatch", f"server models bytes with "
                f"{expected}, client with {model}")
            return False
        connection.name = name
        ack = codec.encode_hello_ack(self.server.root_id,
                                     self.server.root_mbr,
                                     self.validation is not None)
        await connection.send(frames.HELLO_ACK, ack)
        return True

    async def _serve_frames(self, connection: _Connection) -> None:
        assert self._queue is not None
        while True:
            frame_type, payload = await self._read(connection)
            if frame_type == frames.QUERY:
                await self._queue.put((connection, payload))
            elif frame_type == frames.SYNC:
                await self._serve_sync(connection, payload)
            elif frame_type == frames.SYNC_DONE:
                applied = codec.decode_sync_done(payload)
                connection.ledger["sync_downlink_bytes"] += applied
            elif frame_type == frames.VERSIONS:
                await self._serve_versions(connection, payload)
            elif frame_type == frames.CATALOG_REQ:
                ack = codec.encode_catalog(self.server.root_id,
                                           self.server.root_mbr)
                await connection.send(frames.CATALOG_ACK, ack)
            elif frame_type == frames.BYE:
                self.final_ledgers[connection.name] = dict(connection.ledger)
                await connection.send(frames.BYE_ACK,
                                      codec.encode_bye_ack(connection.ledger))
                return
            else:
                await connection.send_error(
                    "unexpected-frame", f"{frames.frame_name(frame_type)} "
                    "is not a request frame")
                return

    async def _serve_sync(self, connection: _Connection,
                          payload: bytes) -> None:
        if self.validation is None:
            await connection.send_error(
                "no-validation", "this server has no validation service "
                "(static deployment)")
            return
        stamps = codec.decode_sync_request(payload)
        verdicts = self.validation.validate(stamps)
        stamp_bytes = self.size_model.pointer_bytes + 4
        connection.ledger["sync_uplink_bytes"] += (
            self.size_model.query_header_bytes + stamp_bytes * len(stamps))
        ack = codec.encode_sync_ack(verdicts, self.server.root_id,
                                    self.server.root_mbr)
        await connection.send(frames.SYNC_ACK, ack)

    async def _serve_versions(self, connection: _Connection,
                              payload: bytes) -> None:
        if self.validation is None:
            await connection.send_error(
                "no-validation", "this server has no validation service "
                "(static deployment)")
            return
        node_ids, object_ids = codec.decode_versions_request(payload)
        node_versions, object_versions = self.validation.current_versions(
            node_ids, object_ids)
        ack = codec.encode_versions_ack(node_versions, object_versions,
                                        node_ids, object_ids)
        await connection.send(frames.VERSIONS_ACK, ack)


class ServerThread(LoopThread):
    """Run a :class:`ReproServer` on a dedicated event-loop thread.

    The loopback transport wrapper and the tests drive synchronous clients
    from the calling thread, so the server needs its own loop.  ``start()``
    returns once the listener is bound (``host`` / ``port`` then hold the
    resolved address); ``stop()`` tears the loop down and joins the thread.
    """

    def __init__(self, server: ReproServer, transport: str,
                 path: Optional[str] = None, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if transport not in ("tcp", "uds"):
            raise ValueError(f"unknown transport {transport!r}")
        if transport == "uds" and not path:
            raise ValueError("uds transport needs a socket path")
        super().__init__("server", self._listen, server.close)
        self.server = server
        self.transport = transport
        self.path = path
        self.host = host
        self.port = port

    async def _listen(self) -> None:
        if self.transport == "uds":
            assert self.path is not None
            await self.server.listen_uds(self.path)
        else:
            self.host, self.port = await self.server.listen_tcp(
                self.host, self.port)
