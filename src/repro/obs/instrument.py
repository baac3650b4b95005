"""Profiling hooks: the pluggable :class:`Instrument` protocol and its guard.

The hot paths (session replay, router scatter, WAL commit, wire client) are
instrumented like this::

    from repro.obs import instrument as obs
    ...
    if obs.ENABLED:
        obs.active().event("router.execute", pages=pages)

``ENABLED`` is a module-level flag that is ``False`` by default, so the
per-query cost of the disabled path is a single attribute read and a branch.
The active instrument is swapped wholesale via :func:`activate` /
:func:`activated`; the base :class:`Instrument` is a null object whose every
hook is a no-op, so enabled-but-null runs stay cheap too.

:func:`perf_clock` is the tree's **single sanctioned wall-clock read**: rule
``OBS01`` (see :mod:`repro.analysis.checkers.observability`) rejects direct
``time.perf_counter()`` calls in instrumented packages, funnelling every
timing read through this one audited site.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["ENABLED", "Instrument", "activate", "activated", "active",
           "deactivate", "perf_clock"]

#: Hot-path guard: call sites touch the active instrument only when True.
ENABLED: bool = False


class Instrument:
    """Null instrument: every hook is a structured no-op.

    Subclasses (:class:`repro.obs.trace.Recorder`) override the hooks to
    record span trees and metrics; the base class exists so the disabled
    and enabled-but-null paths cost nothing beyond the call itself.
    """

    def event(self, name: str, **fields: object) -> None:
        """Record a zero-duration child span under the current span."""

    def annotate(self, **fields: object) -> None:
        """Merge ``fields`` into the innermost open span, if any."""

    def count(self, name: str, amount: float = 1.0,
              **labels: object) -> None:
        """Bump a counter in the instrument's metrics registry."""

    @contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        """Open a span for the duration of the ``with`` block."""
        yield


_active: Instrument = Instrument()


def active() -> Instrument:
    """The currently installed instrument (null unless :func:`activate`\\ d)."""
    return _active


def activate(instrument: Instrument) -> None:
    """Install ``instrument`` and raise the ``ENABLED`` guard."""
    global ENABLED, _active
    _active = instrument
    ENABLED = True


def deactivate() -> None:
    """Drop back to the null instrument and lower the ``ENABLED`` guard."""
    global ENABLED, _active
    _active = Instrument()
    ENABLED = False


@contextmanager
def activated(instrument: Instrument) -> Iterator[Instrument]:
    """Scope ``instrument`` to a ``with`` block, restoring the prior state."""
    previous = _active if ENABLED else None
    activate(instrument)
    try:
        yield instrument
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)


def perf_clock() -> float:
    """Monotonic wall-clock read; the one sanctioned timing source (OBS01)."""
    return time.perf_counter()  # repro: allow[DET02] the obs layer is the single audited clock funnel
