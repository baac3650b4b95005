"""The benchmark's one door into the program: every ``repro`` import lives here.

Only public names are used (``bench/README.md`` lists them), so a refactor
of the replay pipeline knows exactly which seams a follow-up benchmark
change must re-point.  The benchmark is run from a plain checkout, so the
checkout's ``src/`` is put first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys

from bench import ROOT

SRC = os.path.join(ROOT, "src")

# The checkout's own program, even when another copy is installed.
if not os.path.isdir(os.path.join(SRC, "repro")):
    raise ImportError(f"the program is not in this checkout: {SRC} has no "
                      f"repro package")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

from repro.datasets import make_dataset  # noqa: E402
from repro.net import codec  # noqa: E402
from repro.net.client import Endpoint, RemoteSessionClient  # noqa: E402
from repro.rtree.bulk import bulk_load_str  # noqa: E402
from repro.rtree.sizes import SizeModel  # noqa: E402
from repro.sharding import PartitionResultCache, build_sharded_state  # noqa: E402
from repro.sim import (  # noqa: E402
    ClientGroupSpec,
    ClientResult,
    FleetConfig,
    FleetResult,
    GroundTruthCache,
    SimulationConfig,
    build_shared_state,
    default_fleet,
    make_session,
    run_fleet,
)
from repro.sim.fleet import build_dynamic_events, make_dynamic_sessions  # noqa: E402
from repro.storage import load_tree, pack, save_tree, wal_summary  # noqa: E402
from repro.updates import DatasetUpdater  # noqa: E402
from repro.updates.oracle import oracle_results  # noqa: E402
from repro.workload.generator import QueryMix  # noqa: E402

__all__ = [
    "SRC", "ClientGroupSpec", "ClientResult", "DatasetUpdater",
    "Endpoint", "FleetConfig", "FleetResult", "GroundTruthCache",
    "PartitionResultCache", "QueryMix", "RemoteSessionClient",
    "SimulationConfig", "SizeModel", "build_dynamic_events",
    "build_shared_state", "build_sharded_state", "bulk_load_str", "codec",
    "default_fleet", "load_tree", "make_dataset", "make_dynamic_sessions",
    "make_session", "oracle_results", "pack", "run_fleet", "save_tree",
    "serve_command", "wal_summary",
]


def serve_command(socket_path: str, config: SimulationConfig) -> list:
    """The ``repro serve`` command line for ``config``'s dataset on a UDS."""
    return [sys.executable, "-m", "repro.cli", "serve",
            "--transport", "uds", "--path", socket_path,
            "--dataset", config.dataset_name,
            "--objects", str(config.object_count),
            "--seed", str(config.dataset_seed)]
