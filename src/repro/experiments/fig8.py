"""Figure 8 — response time under different cache sizes (0.1%–5%, RAN)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.sweeps import cache_size_sweep


DEFAULT_FRACTIONS = (0.001, 0.005, 0.01, 0.05)


def run(config: Optional[SimulationConfig] = None,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        models: Sequence[str] = ("PAG", "SEM", "APRO")) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{cache_fraction: {model: summary}}`` under RAN mobility."""
    config = (config or SimulationConfig.scaled()).with_overrides(mobility_model="RAN")
    sweep = cache_size_sweep(config, fractions, models)
    return {fraction: {model: result.summary() for model, result in per_model.items()}
            for fraction, per_model in sweep.items()}


def render(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render response time per model as the cache size grows."""
    fractions = sorted(results)
    models = list(next(iter(results.values())))
    rows = [[model] + [results[f][model]["response_time"] for f in fractions]
            for model in models]
    headers = ["model"] + [f"|C|={f:.1%}" for f in fractions]
    return format_table(headers, rows,
                        title="Figure 8 — response time (s) vs cache size (RAN)")
