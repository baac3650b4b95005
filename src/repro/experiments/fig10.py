"""Figure 10 — APRO response time under different cache replacement schemes.

The paper compares LRU, FAR and GRD3 (and mentions MRU as uniformly worst)
under both mobility models, and reports GRD3 as the most stable across RAN
and DIR.  Here MRU is the worst everywhere; GRD3, FAR and LRU tie within
about 2 % at Table 6.1, while at the scaled sizes GRD3 trails (the cause is
measured in ``docs/replacement-policies.md``).  Pass ``"MRU"`` in
``policies`` to include it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.sweeps import replacement_sweep


DEFAULT_POLICIES = ("LRU", "FAR", "GRD3")


def run(config: Optional[SimulationConfig] = None,
        policies: Sequence[str] = DEFAULT_POLICIES,
        mobility_models: Sequence[str] = ("RAN", "DIR"),
        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Return ``{mobility: {policy: summary}}`` for the APRO model."""
    config = config or SimulationConfig.scaled()
    sweep = replacement_sweep(config, list(policies), mobility_models, model="APRO")
    return {mobility: {policy: result.summary() for policy, result in per_policy.items()}
            for mobility, per_policy in sweep.items()}


def render(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """Render APRO response time per replacement policy and mobility model."""
    mobilities = list(results)
    policies = list(next(iter(results.values())))
    rows = [[policy] + [results[mob][policy]["response_time"] for mob in mobilities]
            for policy in policies]
    headers = ["policy"] + [f"{m} resp (s)" for m in mobilities]
    return format_table(headers, rows,
                        title="Figure 10 — APRO response time under replacement schemes")
