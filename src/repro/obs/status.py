"""Live ops HTTP endpoint: ``/status`` JSON, ``/metrics`` exposition, dashboard.

A :class:`StatusBoard` is a bag of named *provider* callables — each run
registers closures over its live objects (shard router stats, router-cache
counters, proactive-cache churn, WAL facts, net ledgers) and the board
assembles them into one JSON document on every scrape.  Providers that
raise are reported as an ``error`` section instead of taking the endpoint
down, because a scrape racing the end of a run is normal.

:class:`StatusServer` is a deliberately tiny GET-only asyncio HTTP server
(no routes beyond ``/``, ``/status``, ``/healthz`` and ``/metrics``, no
keep-alive) so it can ride inside :class:`repro.net.server.ReproServer`'s
loop or on its own :class:`StatusServerThread` next to an in-process fleet
run — stdlib only.  :class:`LoopThread` is the thread harness it shares
with :class:`repro.net.server.ServerThread`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import contextmanager
from typing import Awaitable, Callable, Dict, Iterator, Optional, Tuple

from repro.obs.dashboard import DASHBOARD_HTML
from repro.obs.registry import MetricsRegistry

__all__ = ["LoopThread", "StatusBoard", "StatusServer", "StatusServerThread",
           "active_board", "board_active", "publish"]

#: One status section: a zero-argument callable returning JSON-able data.
Provider = Callable[[], object]


class StatusBoard:
    """Named status sections assembled into one ``/status`` document."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        self._providers: Dict[str, Provider] = {}

    def register(self, section: str, provider: Provider) -> None:
        """Install (or replace) the provider behind ``section``."""
        self._providers[section] = provider

    def status(self) -> Dict[str, object]:
        """Evaluate every provider; failures become ``error`` sub-objects."""
        sections: Dict[str, object] = {}
        for name in sorted(self._providers):
            try:
                sections[name] = self._providers[name]()
            except Exception as exc:
                sections[name] = {
                    "error": f"{type(exc).__name__}: {exc}"}
        return {"sections": sections}

    def status_json(self) -> str:
        """The ``/status`` payload, sorted for stable diffs."""
        return json.dumps(self.status(), sort_keys=True, default=str)

    def metrics_text(self) -> str:
        """The ``/metrics`` payload (empty without a registry)."""
        if self.registry is None:
            return ""
        return self.registry.render_prometheus()


_board: Optional[StatusBoard] = None


def active_board() -> Optional[StatusBoard]:
    """The board runs publish into, or None outside ``board_active``."""
    return _board


def publish(section: str, provider: Provider) -> None:
    """Register ``provider`` on the active board; no-op when none is live."""
    board = active_board()
    if board is not None:
        board.register(section, provider)


@contextmanager
def board_active(board: StatusBoard) -> Iterator[StatusBoard]:
    """Scope ``board`` as the publish target for a ``with`` block."""
    global _board
    previous = _board
    _board = board
    try:
        yield board
    finally:
        _board = previous


_RESPONSES = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
}


class StatusServer:
    """GET-only asyncio HTTP server over a :class:`StatusBoard`."""

    def __init__(self, board: StatusBoard, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.board = board
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the resolved ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets
        assert sockets
        self.host, self.port = sockets[0].getsockname()[:2]
        return (self.host, self.port)

    async def close(self) -> None:
        """Stop accepting and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _route(self, path: str) -> Tuple[int, str, str]:
        if path in ("/", "/index.html"):
            return (200, "text/html; charset=utf-8", DASHBOARD_HTML)
        if path == "/status":
            return (200, "application/json; charset=utf-8",
                    self.board.status_json())
        if path == "/metrics":
            return (200, "text/plain; version=0.0.4; charset=utf-8",
                    self.board.metrics_text())
        if path == "/healthz":
            return (200, "text/plain; charset=utf-8", "ok\n")
        return (404, "text/plain; charset=utf-8",
                f"no route for {path}\n")

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(),
                                                  timeout=5.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            while True:  # drain headers; no bodies on GET
                header = await asyncio.wait_for(reader.readline(),
                                                timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                status, content_type, body = (
                    405, "text/plain; charset=utf-8",
                    "status server is GET-only\n")
            else:
                status, content_type, body = self._route(
                    target.split("?", 1)[0])
            payload = body.encode("utf-8")
            head = (f"HTTP/1.1 {status} {_RESPONSES[status]}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


class LoopThread:
    """Run one asyncio service on its own event-loop thread.

    ``start`` is the coroutine that binds the service and ``close`` the one
    that tears it down, both run on the thread's loop.  :meth:`start`
    blocks until ``start`` has finished (so callers can print the bound
    address before anything connects) and re-raises its failure as a
    ``RuntimeError``; :meth:`stop` runs ``close`` and joins the thread.
    """

    def __init__(self, name: str, start: Callable[[], Awaitable[object]],
                 close: Callable[[], Awaitable[object]]) -> None:
        self._name = name
        self._start = start
        self._close = close
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> None:
        """Spawn the loop thread; blocks until the service is bound."""
        if self._thread is not None:
            raise RuntimeError(f"{self._name} thread already started")
        self._thread = threading.Thread(target=self._run,
                                        name=f"repro {self._name}",
                                        daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            raise RuntimeError(f"{self._name} failed to start: {error}")

    def stop(self) -> None:
        """Shut the loop down and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            loop, event = self._loop, self._stop_event
            loop.call_soon_threadsafe(event.set)
        self._thread.join()
        self._thread = None
        self._loop = None
        self._stop_event = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # startup failures surface in start()
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:  # pragma: no cover - post-startup loop crash
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # _ready is set only after a successful bind; a failing start
        # propagates to _run, which records it before releasing start().
        await self._start()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self._close()


class StatusServerThread(LoopThread):
    """Run a :class:`StatusServer` on its own event-loop thread."""

    def __init__(self, board: StatusBoard, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = StatusServer(board, host=host, port=port)
        super().__init__("status server", self.server.start,
                         self.server.close)

    @property
    def host(self) -> str:
        """Bound interface (resolved after ``start()``)."""
        return self.server.host

    @property
    def port(self) -> int:
        """Bound port (resolved after ``start()``)."""
        return self.server.port
