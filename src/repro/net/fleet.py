"""The loopback transport wrapper.

:func:`serve` puts an already-built
:class:`~repro.sim.deployment.Deployment` behind a real socket: a
:class:`~repro.net.server.ReproServer` serves the deployment's server (or
shard router) from a background event-loop thread, and every client
session is dialled a :class:`~repro.net.client.RemoteSessionClient` as its
server handle — the sessions, consistency protocols and the replay loop
are the *same objects* running the same code, which is why the
equivalence suite can demand byte-identical per-query costs and cache
digests against the in-process run, whatever storage and topology the
deployment was composed from.

The byte story per client: queries and consistency handshakes bill their
modelled bytes to the client's own
:class:`~repro.network.channel.WirelessChannel`; the server keeps a
mirror ledger per connection; :attr:`FleetResult.net_summary` reports
both sides and whether they reconciled exactly.
"""

from __future__ import annotations

import statistics
import tempfile
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.net.client import (
    Endpoint,
    NetValidationService,
    RemoteSessionClient,
)
from repro.net.server import ReproServer, ServerThread
from repro.network.channel import WirelessChannel
from repro.obs.status import publish
from repro.sim.metrics import FleetResult
from repro.updates import make_protocol
from repro.updates.validation import LocalValidationService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.deployment import ClientWiring, Deployment
    from repro.sim.fleet import FleetClientSpec

#: Transports `repro fleet` accepts; "inproc" is the simulated default.
TRANSPORTS = ("inproc", "uds", "tcp")


def make_endpoint(thread: ServerThread) -> Endpoint:
    """The client-side endpoint of a started :class:`ServerThread`."""
    if thread.transport == "uds":
        return Endpoint(transport="uds", path=thread.path)
    return Endpoint(transport="tcp", host=thread.host, port=thread.port)


def _reconcile(channel: WirelessChannel,
               ledger: Dict[str, int]) -> Dict[str, object]:
    """One client's two-sided byte accounting, with the exact-match bit."""
    server_uplink = ledger["uplink_bytes"] + ledger["sync_uplink_bytes"]
    server_downlink = (ledger["downlink_bytes"]
                       + ledger["sync_downlink_bytes"])
    return {
        "client_uplink_bytes": channel.uplink_bytes_total,
        "client_downlink_bytes": channel.downlink_bytes_total,
        "server_uplink_bytes": server_uplink,
        "server_downlink_bytes": server_downlink,
        "queries_served": ledger["queries_served"],
        "wire_bytes_to_server": ledger["wire_bytes_in"],
        "wire_bytes_from_server": ledger["wire_bytes_out"],
        "reconciled": (server_uplink == channel.uplink_bytes_total
                       and server_downlink == channel.downlink_bytes_total),
    }


def serve(deployment: "Deployment") -> None:
    """Put ``deployment`` behind its fleet's loopback transport, in place.

    Starts the wire server over the deployment's server handle (its
    updater, if any, answers the versioned protocol's validation exchange)
    and re-points the per-client wiring at the socket: every client is
    dialled its own remote handle and a wire-backed consistency protocol.
    In-process sessions read ``server.root_id`` live, so a root split is
    visible instantly; remote handles cache the catalogue, so every
    applied update marks it stale and the next read re-fetches (free
    metadata, like the in-process property read).  The finished run gains
    its ``net_summary``; closing the deployment closes every handle and
    stops the server.
    """
    fleet, size_model = deployment.fleet, deployment.size_model
    validation = (LocalValidationService(deployment.updater)
                  if deployment.updater is not None else None)
    server = ReproServer(deployment.server, size_model, validation=validation)
    workdir = tempfile.TemporaryDirectory(prefix="repro-net-")
    deployment.on_close(workdir.cleanup)
    thread = ServerThread(server, fleet.transport,
                          path=f"{workdir.name}/server.sock")
    thread.start()
    deployment.on_close(thread.stop)
    endpoint = make_endpoint(thread)
    handles: List[Tuple[int, RemoteSessionClient]] = []

    def close_handles() -> None:
        for _, handle in handles:
            handle.close()
    deployment.on_close(close_handles)

    def dial(spec: "FleetClientSpec") -> "ClientWiring":
        handle = RemoteSessionClient(endpoint, size_model,
                                     client_name=f"client-{spec.client_id}")
        handles.append((spec.client_id, handle))
        return handle, make_protocol(
            fleet.consistency, size_model=size_model,
            ttl_seconds=fleet.ttl_seconds,
            service=NetValidationService(handle))
    deployment.dial = dial

    def invalidate_catalogs() -> None:
        for _, handle in handles:
            handle.invalidate_catalog()
    deployment.update_hooks.append(invalidate_catalogs)

    def fleet_latency() -> Dict[str, object]:
        return latency_summary([latency for _, handle in handles
                                for latency in handle.latencies])

    def net_summary(result: FleetResult) -> None:
        clients_summary = []
        for client_id, handle in handles:
            handle.close()
            entry: Dict[str, object] = {"client_id": client_id}
            entry.update(_reconcile(handle.channel, handle.server_ledger()))
            entry["retries"] = handle.retries
            entry["latency"] = latency_summary(handle.latencies)
            clients_summary.append(entry)
        result.net_summary = {
            "transport": fleet.transport,
            "clients": clients_summary,
            "all_reconciled": all(entry["reconciled"]
                                  for entry in clients_summary),
            "latency": fleet_latency(),
        }
    deployment.summarisers.append(net_summary)
    publish("net", lambda: {
        "transport": fleet.transport,
        "queue_depth": server.queue_depth(),
        "connections": server.connection_ledgers(),
        "latency": fleet_latency(),
    })


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty input)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def latency_summary(values_ms: Sequence[float]) -> Dict[str, object]:
    """p50 / p99 / mean of per-query wall latencies (milliseconds).

    The one latency-reporting shape shared by the networked fleet's
    ``net_summary`` latency blocks and the status server — wall-clock
    throughout, so never part of a deterministic fingerprint.
    """
    ordered = sorted(values_ms)
    return {
        "queries": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50), 3),
        "p99_ms": round(_percentile(ordered, 0.99), 3),
        "mean_ms": round(statistics.fmean(ordered), 3) if ordered else 0.0,
    }
