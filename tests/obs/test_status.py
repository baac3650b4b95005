"""The status board and its HTTP server, scraped over real sockets."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.status import (
    StatusBoard, StatusServerThread, active_board, board_active, publish,
)


# --------------------------------------------------------------------------- #
# the board
# --------------------------------------------------------------------------- #
def test_board_assembles_sections_sorted():
    board = StatusBoard()
    board.register("zeta", lambda: {"b": 2})
    board.register("alpha", lambda: {"a": 1})
    document = json.loads(board.status_json())
    assert list(document["sections"]) == ["alpha", "zeta"]
    assert document["sections"]["alpha"] == {"a": 1}


def test_failing_provider_becomes_error_section():
    board = StatusBoard()
    board.register("ok", lambda: 1)

    def explode():
        raise RuntimeError("scrape raced the run teardown")

    board.register("bad", explode)
    sections = board.status()["sections"]
    assert sections["ok"] == 1
    assert sections["bad"] == {"error": "RuntimeError: scrape raced the "
                                        "run teardown"}


def test_register_replaces_the_section_provider():
    board = StatusBoard()
    board.register("x", lambda: 1)
    board.register("x", lambda: 2)
    assert board.status()["sections"] == {"x": 2}


def test_metrics_text_empty_without_registry():
    assert StatusBoard().metrics_text() == ""
    registry = MetricsRegistry()
    registry.counter("c_total").inc(1.0)
    assert "c_total 1" in StatusBoard(registry).metrics_text()


def test_publish_is_noop_without_active_board():
    assert active_board() is None
    publish("section", lambda: 1)  # must not raise


def test_board_active_scopes_publish_target():
    board = StatusBoard()
    with board_active(board):
        assert active_board() is board
        publish("fleet", lambda: {"clients": 4})
    assert active_board() is None
    assert board.status()["sections"]["fleet"] == {"clients": 4}


# --------------------------------------------------------------------------- #
# the HTTP server
# --------------------------------------------------------------------------- #
@pytest.fixture()
def served_board():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "Queries.").inc(3.0, kind="range")
    board = StatusBoard(registry)
    board.register("fleet", lambda: {"clients": 4, "events": 48})
    thread = StatusServerThread(board)
    thread.start()
    try:
        yield f"http://{thread.host}:{thread.port}"
    finally:
        thread.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as reply:
        return reply.status, reply.headers, reply.read()


def test_status_endpoint_serves_board_json(served_board):
    status, headers, body = _get(served_board + "/status")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    assert json.loads(body)["sections"]["fleet"] == {"clients": 4,
                                                     "events": 48}


def test_metrics_endpoint_serves_exposition(served_board):
    status, headers, body = _get(served_board + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert b'repro_queries_total{kind="range"} 3' in body


def test_dashboard_served_at_root(served_board):
    status, headers, body = _get(served_board + "/")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    assert b"/status" in body and b"/metrics" in body


def test_healthz_endpoint(served_board):
    status, _, body = _get(served_board + "/healthz")
    assert status == 200
    assert body == b"ok\n"


def test_unknown_route_is_404(served_board):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(served_board + "/nope")
    assert excinfo.value.code == 404


def test_non_get_method_is_405(served_board):
    request = urllib.request.Request(served_board + "/status",
                                     data=b"{}", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 405


def test_query_strings_are_ignored(served_board):
    status, _, body = _get(served_board + "/status?refresh=1")
    assert status == 200
    assert b"sections" in body


def test_thread_start_is_single_shot_and_stop_idempotent():
    thread = StatusServerThread(StatusBoard())
    thread.start()
    with pytest.raises(RuntimeError):
        thread.start()
    thread.stop()
    thread.stop()


def test_thread_surfaces_bind_failure():
    first = StatusServerThread(StatusBoard())
    first.start()
    try:
        second = StatusServerThread(StatusBoard(), port=first.port)
        with pytest.raises(RuntimeError, match="failed to start"):
            second.start()
    finally:
        first.stop()
