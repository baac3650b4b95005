"""repro — Proactive Caching for Spatial Queries in Mobile Environments.

A from-scratch Python reproduction of Hu et al., ICDE 2005.  The package
contains every substrate the paper's evaluation relies on:

* :mod:`repro.geometry` / :mod:`repro.rtree` — geometry primitives and a
  paged R*-tree with range, best-first kNN and R-tree join algorithms, plus
  the binary partition trees that power compact-form index caching;
* :mod:`repro.datasets`, :mod:`repro.mobility`, :mod:`repro.workload`,
  :mod:`repro.network` — synthetic NE/RD-like datasets, the RAN/DIR mobility
  models, the mixed query workload and the wireless channel model;
* :mod:`repro.core` — the proactive caching model itself (client-side query
  processing, remainder queries, supporting-index forms, adaptive depth
  control and the GRD replacement family);
* :mod:`repro.baselines` — page caching and semantic caching;
* :mod:`repro.sim` and :mod:`repro.experiments` — the end-to-end simulator
  and the scripts that regenerate every figure of the paper.

Quickstart — a paired comparison replays one client trace against each
model, one model after another, through the same deployment and replay
loop every fleet runs on (:mod:`repro.sim.deployment`)::

    from repro.sim import SimulationConfig, run_comparison

    results = run_comparison(SimulationConfig.tiny(), models=("PAG", "SEM", "APRO"))
    for name, result in results.items():
        print(name, result.summary())
"""

from repro.geometry import Point, Rect
from repro.rtree import RTree, bulk_load_str
from repro.sim.config import SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "Point",
    "Rect",
    "RTree",
    "bulk_load_str",
    "SimulationConfig",
    "__version__",
]
