"""Server/client integration over a real loopback socket.

Covers the handshake contract (protocol version and size-model pinning),
the request surface (queries, catalogue, BYE ledgers, connection pruning),
the typed error paths (the retired node-fetch frame among them), and the concurrency regression the server's serial
dispatcher guarantees: N concurrent sessions produce exactly the
per-session results, digests and byte totals of a serial replay —
including under the versioned consistency protocol.
"""

from __future__ import annotations

import dataclasses
import struct
import tempfile
import threading
import time
import zlib

import pytest

from repro.net import codec, frames
import repro.net.client as net_client
from repro.core.server import ServerResponse
from repro.geometry import Point, Rect
from repro.net.client import (
    MAX_LATENCIES,
    Connection,
    Endpoint,
    NetValidationService,
    RemoteSessionClient,
)
from repro.net.fleet import latency_summary, make_endpoint
from repro.net.frames import FrameError, RemoteError
from repro.net.server import ReproServer, ServerThread
from repro.network.channel import WirelessChannel
from repro.rtree.sizes import SizeModel
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_shared_state, generate_trace
from repro.sim.sessions import make_session
from repro.updates import DatasetUpdater, make_protocol
from repro.updates.validation import LocalValidationService
from repro.workload.queries import KNNQuery, RangeQuery


@pytest.fixture(scope="module")
def served():
    """A static server behind a UNIX socket, plus its in-process twin."""
    base = SimulationConfig.scaled(query_count=8, object_count=600)
    shared = build_shared_state(base)
    repro_server = ReproServer(shared.server, shared.size_model)
    with tempfile.TemporaryDirectory(prefix="repro-net-test-") as workdir:
        thread = ServerThread(repro_server, "uds",
                              path=f"{workdir}/server.sock")
        thread.start()
        try:
            yield base, shared, repro_server, thread
        finally:
            thread.stop()
    shared.tree.store.close()


@pytest.fixture(scope="module")
def served_versioned():
    """A dynamic-capable server: validation service wired, no churn yet."""
    base = SimulationConfig.scaled(query_count=8, object_count=600)
    shared = build_shared_state(base)
    updater = DatasetUpdater(shared.tree, shared.server,
                             ground_truth=shared.ground_truth)
    repro_server = ReproServer(shared.server, shared.size_model,
                               validation=LocalValidationService(updater))
    with tempfile.TemporaryDirectory(prefix="repro-net-test-") as workdir:
        thread = ServerThread(repro_server, "uds",
                              path=f"{workdir}/server.sock")
        thread.start()
        try:
            yield base, shared, repro_server, thread
        finally:
            thread.stop()
    shared.tree.store.close()


# --------------------------------------------------------------------------- #
# handshake
# --------------------------------------------------------------------------- #
def test_handshake_ships_the_catalogue(served):
    _, shared, _, thread = served
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="hs-check")
    try:
        assert client.root_id == shared.server.root_id
        assert client.root_mbr == shared.server.root_mbr
    finally:
        client.close()


def test_size_model_mismatch_is_a_typed_error(served):
    _, shared, _, thread = served
    skewed = dataclasses.replace(shared.size_model,
                                 pointer_bytes=shared.size_model.pointer_bytes
                                 + 4)
    with pytest.raises(RemoteError) as excinfo:
        Connection(make_endpoint(thread), skewed, "hs-skewed", 5.0)
    assert excinfo.value.code == "size-model-mismatch"


def test_protocol_version_mismatch_is_a_typed_error(served):
    _, shared, _, thread = served
    hello = codec.encode_hello("hs-version", shared.size_model)
    futuristic = struct.pack("<H", codec.PROTOCOL_VERSION + 1) + hello[2:]
    sock = make_endpoint(thread).connect(5.0)
    try:
        frames.write_frame_socket(sock, frames.HELLO, futuristic)
        frame_type, payload = frames.read_frame_socket(sock)
        assert frame_type == frames.ERROR
        code, _ = codec.decode_error(payload)
        assert code == "version-mismatch"
    finally:
        sock.close()


def test_first_frame_must_be_hello(served):
    _, _, _, thread = served
    sock = make_endpoint(thread).connect(5.0)
    try:
        frames.write_frame_socket(sock, frames.CATALOG_REQ, b"")
        frame_type, payload = frames.read_frame_socket(sock)
        assert frame_type == frames.ERROR
        assert codec.decode_error(payload)[0] == "bad-hello"
    finally:
        sock.close()


# --------------------------------------------------------------------------- #
# the request surface
# --------------------------------------------------------------------------- #
def test_remote_queries_match_the_in_process_server(served):
    base, shared, _, thread = served
    channel = WirelessChannel()
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="rq-check", channel=channel)
    try:
        for record in generate_trace(base):
            local = shared.server.execute(record.query)
            remote = client.execute(record.query)
            assert remote.result_object_ids() == local.result_object_ids()
            assert remote.downlink_bytes(shared.size_model) \
                == local.downlink_bytes(shared.size_model)
            assert len(remote.index_snapshots) == len(local.index_snapshots)
        assert channel.uplink_bytes_total > 0
        assert channel.downlink_bytes_total > 0
    finally:
        client.close()


def test_catalogue_refetch_is_free(served):
    _, shared, _, thread = served
    channel = WirelessChannel()
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="cat-check", channel=channel)
    try:
        assert client.root_id == shared.server.root_id
        client.invalidate_catalog()
        assert client.root_id == shared.server.root_id
        assert (channel.uplink_bytes_total, channel.downlink_bytes_total) \
            == (0, 0)
    finally:
        client.close()


def test_closed_connections_are_pruned(served):
    """A long-lived server holds no state per *past* connection."""
    base, shared, _, _ = served
    repro_server = ReproServer(shared.server, shared.size_model)
    query = next(iter(generate_trace(base))).query
    with tempfile.TemporaryDirectory(prefix="repro-net-test-") as workdir:
        thread = ServerThread(repro_server, "uds",
                              path=f"{workdir}/server.sock")
        thread.start()
        try:
            for cycle in range(5):
                client = RemoteSessionClient(
                    make_endpoint(thread), shared.size_model,
                    client_name=f"cycle-{cycle}")
                client.execute(query)
                client.close()
            deadline = time.monotonic() + 5.0
            while repro_server._connections and time.monotonic() < deadline:
                time.sleep(0.01)  # the handler's finally runs after BYE_ACK
            assert len(repro_server._connections) == 0
            ledgers = repro_server.connection_ledgers()
            assert ledgers == repro_server.final_ledgers
            assert sorted(ledgers) == [f"cycle-{cycle}" for cycle in range(5)]
            assert all(ledger["queries_served"] == 1
                       for ledger in ledgers.values())
        finally:
            thread.stop()


def test_round_trip_latencies_are_bounded_to_the_newest(monkeypatch):
    """A long-lived client keeps the most recent MAX_LATENCIES round trips.

    No socket: ``request`` is stubbed with one canned RESPONSE payload and
    the clock with one whose n-th round trip lasts exactly n ms, so the
    survivors are recognisable.
    """
    assert MAX_LATENCIES == 65_536
    client = RemoteSessionClient(Endpoint("uds", path="/nonexistent.sock"),
                                 SizeModel())
    assert client.latencies.maxlen == MAX_LATENCIES
    payload = codec.encode_response(ServerResponse(), 1, Rect.unit())
    monkeypatch.setattr(client, "request",
                        lambda frame_type, request, reply: payload)
    trips = iter(range(1, 10 ** 9))
    reads = []

    def clock():
        # Two reads per round trip: 0 at its start, n ms later at its end.
        reads.append(0.0 if len(reads) % 2 == 0 else next(trips) / 1000.0)
        return reads[-1]

    monkeypatch.setattr(net_client, "perf_clock", clock)
    query = KNNQuery(point=Point(0.5, 0.5), k=1)
    total = MAX_LATENCIES + 1_000
    for _ in range(total):
        client.execute(query)

    assert len(client.latencies) == MAX_LATENCIES
    assert client.latencies[0] == pytest.approx(1_001.0)
    assert client.latencies[-1] == pytest.approx(float(total))
    summary = latency_summary(client.latencies)
    assert summary["queries"] == MAX_LATENCIES
    assert summary["mean_ms"] == pytest.approx((1_001 + total) / 2, abs=0.01)


def test_bye_ledger_reconciles_with_the_channel(served):
    base, shared, repro_server, thread = served
    channel = WirelessChannel()
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="bye-check", channel=channel)
    queries = [record.query for record in generate_trace(base)][:3]
    for query in queries:
        client.execute(query)
    client.close()
    ledger = client.server_ledger()
    assert ledger["queries_served"] == len(queries)
    assert ledger["uplink_bytes"] == channel.uplink_bytes_total
    assert ledger["downlink_bytes"] == channel.downlink_bytes_total
    assert ledger["sync_uplink_bytes"] == 0
    assert ledger["wire_bytes_in"] > 0 and ledger["wire_bytes_out"] > 0
    assert repro_server.final_ledgers["bye-check"]["queries_served"] \
        == len(queries)


# --------------------------------------------------------------------------- #
# typed error paths
# --------------------------------------------------------------------------- #
def test_sync_without_validation_is_a_typed_error(served):
    _, shared, _, thread = served
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="sync-check")
    try:
        with pytest.raises(RemoteError) as excinfo:
            NetValidationService(client).validate([])
        assert excinfo.value.code == "no-validation"
    finally:
        client.close()


def test_undecodable_query_is_a_typed_error(served):
    _, shared, _, thread = served
    connection = Connection(make_endpoint(thread), shared.size_model,
                            "badq-check", 5.0)
    try:
        with pytest.raises(RemoteError) as excinfo:
            connection.exchange(frames.QUERY, b"\x07garbage")
        assert excinfo.value.code == "bad-query"
    finally:
        connection.close()


def test_non_request_frame_is_a_typed_error(served):
    _, shared, _, thread = served
    connection = Connection(make_endpoint(thread), shared.size_model,
                            "resp-check", 5.0)
    try:
        with pytest.raises(RemoteError) as excinfo:
            connection.exchange(frames.RESPONSE, b"")
        assert excinfo.value.code == "unexpected-frame"
    finally:
        connection.close()


def test_retired_node_request_frame_is_refused_and_the_server_stays_healthy(
        served):
    base, shared, _, thread = served
    connection = Connection(make_endpoint(thread), shared.size_model,
                            "node-req-check", 5.0)
    try:
        # Frame type 10 was NODE_REQ; encode_frame refuses to build it.
        connection.sock.sendall(struct.pack("<2sBII", frames.MAGIC, 10, 0,
                                            zlib.crc32(b"")))
        with pytest.raises(RemoteError) as excinfo:
            connection.receive()
        assert excinfo.value.code == "bad-frame"
        assert "unknown frame type 10" in str(excinfo.value)
    finally:
        connection.close()
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="after-node-req")
    try:
        query = next(iter(generate_trace(base))).query
        assert client.execute(query).result_object_ids() \
            == shared.server.execute(query).result_object_ids()
    finally:
        client.close()


def test_degenerate_window_is_refused_and_the_server_stays_healthy(served):
    """A CRC-valid QUERY whose window has min_x > max_x is a bad query.

    The value fails ``Rect``'s own check while decoding; the server answers
    that peer with ``bad-query`` and its serial dispatcher keeps serving.
    """
    base, shared, _, thread = served
    payload = codec.encode_query_request(
        RangeQuery(window=Rect(0.2, 0.2, 0.4, 0.4)), None, None)
    # Swap min_x (bytes 1-8) and max_x (bytes 17-24) after the kind byte.
    poisoned = (payload[:1] + payload[17:25] + payload[9:17] + payload[1:9]
                + payload[25:])
    connection = Connection(make_endpoint(thread), shared.size_model,
                            "degenerate-check", 5.0)
    try:
        with pytest.raises(RemoteError) as excinfo:
            connection.exchange(frames.QUERY, poisoned)
        assert excinfo.value.code == "bad-query"
        assert "degenerate rectangle" in str(excinfo.value)
    finally:
        connection.close()
    client = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name="after-degenerate")
    try:
        query = next(iter(generate_trace(base))).query
        remote, local = client.execute(query), shared.server.execute(query)
        assert dataclasses.replace(remote, cpu_seconds=0.0) \
            == dataclasses.replace(local, cpu_seconds=0.0)
    finally:
        client.close()


class _CannedPool:
    """A pool whose every connection answers with one canned payload."""

    def __init__(self, answer):
        self.answer = answer
        self.dialled = 0

    def get(self):
        self.dialled += 1
        return self

    def expect(self, frame_type, payload, reply):
        return self.answer

    def release(self, connection):
        pass

    def discard(self, connection):
        pass


def test_a_degenerate_response_is_a_frame_error_and_is_not_retried():
    """The client decodes the same way: a refused value is a FrameError.

    The frame arrived whole, so nothing is retried and nothing is billed.
    """
    good = codec.encode_response(ServerResponse(), 1, Rect(0.0, 0.0, 1.0, 1.0))
    # Swap the catalogue MBR's min_x (bytes 8-15) and max_x (24-31).
    bad = good[:8] + good[24:32] + good[16:24] + good[8:16] + good[32:]
    pool = _CannedPool(bad)
    channel = WirelessChannel()
    client = RemoteSessionClient(Endpoint("uds", path="/nonexistent.sock"),
                                 SizeModel(), channel=channel, pool=pool)
    with pytest.raises(FrameError, match="degenerate rectangle"):
        client.execute(KNNQuery(point=Point(0.5, 0.5), k=1))
    assert (pool.dialled, client.retries, len(client.latencies)) == (1, 0, 0)
    assert (channel.uplink_bytes_total, channel.downlink_bytes_total) == (0, 0)


# --------------------------------------------------------------------------- #
# concurrency regression: concurrent sessions == serial replay
# --------------------------------------------------------------------------- #
def _session_trace(base, worker, queries=6):
    config = base.with_overrides(
        query_count=queries,
        mobility_seed=base.mobility_seed + 101 * (worker + 1),
        workload_seed=base.workload_seed + 211 * (worker + 1))
    return config, list(generate_trace(config))


def _run_session(thread, shared, base, worker, barrier=None,
                 versioned=False):
    """One full session; returns (result ids per query, digest, totals)."""
    config, records = _session_trace(base, worker)
    channel = WirelessChannel()
    handle = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                 client_name=f"conc-{worker}",
                                 channel=channel)
    consistency = None
    if versioned:
        consistency = make_protocol("versioned",
                                    size_model=shared.size_model,
                                    service=NetValidationService(handle))
    session = make_session("APRO", shared.tree, config, server=handle,
                           consistency=consistency)
    if barrier is not None:
        barrier.wait()
    results = []
    for record in records:
        session.process(record)
        results.append(sorted(session.last_result_ids))
    digest = session.cache.content_digest()
    handle.close()
    return (results, digest,
            (channel.uplink_bytes_total, channel.downlink_bytes_total))


def _serial_vs_concurrent(served_fixture, versioned):
    base, shared, _, thread = served_fixture
    workers = 4
    serial = [_run_session(thread, shared, base, worker,
                           versioned=versioned)
              for worker in range(workers)]
    concurrent = [None] * workers
    errors = []
    barrier = threading.Barrier(workers)

    def run(worker):
        try:
            concurrent[worker] = _run_session(thread, shared, base, worker,
                                              barrier=barrier,
                                              versioned=versioned)
        except Exception as error:  # surfaced below, not lost in the thread
            errors.append(f"worker {worker}: {error!r}")

    threads = [threading.Thread(target=run, args=(worker,))
               for worker in range(workers)]
    for worker_thread in threads:
        worker_thread.start()
    for worker_thread in threads:
        worker_thread.join()
    assert not errors, errors
    assert concurrent == serial


def test_concurrent_sessions_match_serial_replay(served):
    _serial_vs_concurrent(served, versioned=False)


def test_concurrent_versioned_sessions_match_serial_replay(served_versioned):
    _serial_vs_concurrent(served_versioned, versioned=True)
