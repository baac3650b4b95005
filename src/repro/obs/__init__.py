"""Observability layer: metrics registry, per-query tracing, status server.

The package is deliberately passive — nothing in the hot path imports more
than :mod:`repro.obs.instrument`, whose module-level ``ENABLED`` flag guards
every call site, so a fleet run with instrumentation off executes the exact
same byte-for-byte cost accounting it did before this package existed.

* :mod:`repro.obs.registry` — named counters with label sets, a
  deterministic ``snapshot()`` and Prometheus-style text exposition.
* :mod:`repro.obs.instrument` — the pluggable :class:`Instrument` protocol
  (null by default), the ``ENABLED`` guard, and :func:`perf_clock`, the
  tree's one sanctioned wall-clock read (rule ``OBS01``).
* :mod:`repro.obs.trace` — the recording instrument: a :class:`Span` tree
  per query, JSONL export and a text flame view (``repro trace``).
* :mod:`repro.obs.status` — the live ops HTTP endpoint (``/status``,
  ``/metrics`` and a self-contained dashboard page) served next to a
  running fleet or :class:`~repro.net.server.ReproServer`.
"""

from repro.obs.instrument import Instrument, activate, activated, active, deactivate, perf_clock
from repro.obs.registry import MetricsRegistry
from repro.obs.status import StatusBoard, StatusServer, StatusServerThread
from repro.obs.trace import MetricsRecorder, Recorder, Span

__all__ = [
    "Instrument",
    "MetricsRecorder",
    "MetricsRegistry",
    "Recorder",
    "Span",
    "StatusBoard",
    "StatusServer",
    "StatusServerThread",
    "activate",
    "activated",
    "active",
    "deactivate",
    "perf_clock",
]
