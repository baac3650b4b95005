"""End-to-end simulation of mobile clients issuing spatial queries.

The simulator reproduces the paper's experimental setup: a client moves
through the unit square under a mobility model, issues a Poisson stream of
mixed spatial queries about its neighbourhood, and answers them through one
of the caching models (PAG / SEM / proactive in its FPRO / CPRO / APRO
variants) over a 384 Kbps wireless channel.  Identical query traces are
replayed against every model so comparisons are paired.

Both the paper's single-client comparisons (:func:`run_comparison`: one
client per model, each replaying the same trace in turn) and whole fleets
(:func:`run_fleet`: many heterogeneous client groups interleaved
event-driven) run through the one replay loop of
:mod:`repro.sim.deployment` against one shared server, with per-client,
per-group and server-load aggregates.
"""

from repro.sim.config import SimulationConfig
from repro.sim.fleet import (
    ClientGroupSpec,
    FleetConfig,
    default_fleet,
    run_comparison,
    run_fleet,
)
from repro.sim.metrics import (
    CacheSnapshot,
    ClientResult,
    FleetResult,
    ServerLoad,
)
from repro.sim.sessions import (
    ClientSession,
    GroundTruthCache,
    PageCachingSession,
    ProactiveSession,
    SemanticCachingSession,
    make_session,
)
from repro.sim.runner import (
    SharedServerState,
    build_shared_state,
    generate_trace,
)

__all__ = [
    "SimulationConfig",
    "CacheSnapshot",
    "ClientResult",
    "FleetResult",
    "ServerLoad",
    "ClientSession",
    "GroundTruthCache",
    "ProactiveSession",
    "PageCachingSession",
    "SemanticCachingSession",
    "make_session",
    "SharedServerState",
    "build_shared_state",
    "generate_trace",
    "ClientGroupSpec",
    "FleetConfig",
    "default_fleet",
    "run_comparison",
    "run_fleet",
]
