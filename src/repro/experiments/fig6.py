"""Figure 6 — overall performance comparison of PAG, SEM and APRO.

The paper runs the mixed workload under the DIR mobility model with
``|C| = 1%`` of the NE dataset and reports, per caching model: uplink bytes,
downlink bytes, cache hit rate, byte hit rate and response time (each
normalised to the maximum across models in the figure).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import format_table, normalise
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_comparison


METRICS = ("uplink_bytes", "downlink_bytes", "cache_hit_rate", "byte_hit_rate",
           "response_time")


def default_config() -> SimulationConfig:
    """The Figure 6 configuration: DIR mobility, 1% cache, mixed workload."""
    return SimulationConfig.scaled().with_overrides(mobility_model="DIR",
                                                    cache_fraction=0.01)


def run(config: Optional[SimulationConfig] = None,
        models: Sequence[str] = ("PAG", "SEM", "APRO")) -> Dict[str, Dict[str, float]]:
    """Run the comparison and return ``{model: {metric: value}}``."""
    config = config or default_config()
    results = run_comparison(config, models=models)
    return {model: result.summary() for model, result in results.items()}


def render(summaries: Dict[str, Dict[str, float]]) -> str:
    """Print absolute and normalised values for the five Figure 6 metrics."""
    models = list(summaries)
    blocks = []
    rows = []
    for metric in METRICS:
        values = {model: summaries[model][metric] for model in models}
        scaled = normalise(values)
        rows.append([metric] + [f"{values[m]:.4g} ({scaled[m]:.2f})" for m in models])
    blocks.append(format_table(["metric (value, normalised)"] + models, rows,
                               title="Figure 6 — overall performance comparison"))
    return "\n".join(blocks)
