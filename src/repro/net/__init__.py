"""Loopback-networked deployment of the proactive-caching server.

Everything else in the reproduction runs as in-process function calls —
"server" and "shard" are objects.  This package puts the same logical API
behind a real transport, following the ZEO-style client/server storage
split: the client-facing surface is *identical* whether the server lives in
the same process or behind a socket, so sessions, consistency protocols and
the sharded router run unchanged against a remote endpoint.

Layers (bottom up):

* :mod:`repro.net.frames` — length-prefixed, CRC-checked binary frames and
  the typed error taxonomy (torn frame / garbled frame / lost connection /
  remote failure);
* :mod:`repro.net.codec` — deterministic payload codecs for the query,
  response, consistency-validation and session-control frame types;
* :mod:`repro.net.server` — :class:`~repro.net.server.ReproServer`, an
  asyncio server multiplexing concurrent sessions over TCP and UNIX
  sockets with one serial query dispatcher, a bounded backpressure queue and
  per-connection byte ledgers;
* :mod:`repro.net.client` — the synchronous
  :class:`~repro.net.client.RemoteSessionClient` (a drop-in for the
  sessions' server handle) and its connection pool;
* :mod:`repro.net.fleet` — the transport wrapper behind ``repro fleet
  --transport {uds,tcp}``: it puts any composed deployment behind a
  loopback socket, pinned byte-identical to the in-process fleet by the
  equivalence suite.
"""

from repro.net.client import ClientPool, Endpoint, NetValidationService, RemoteSessionClient
from repro.net.frames import (
    ConnectionLost,
    FrameError,
    NetError,
    ProtocolError,
    RemoteError,
)
from repro.net.server import ReproServer, ServerThread
from repro.net.fleet import TRANSPORTS

__all__ = [
    "ClientPool",
    "ConnectionLost",
    "Endpoint",
    "FrameError",
    "NetError",
    "NetValidationService",
    "ProtocolError",
    "RemoteError",
    "RemoteSessionClient",
    "ReproServer",
    "ServerThread",
    "TRANSPORTS",
]
