"""Figure 9 — client CPU time per query under different cache sizes.

The CPU time is the measured client-side processing time (query execution
over the cache plus cache maintenance), excluding simulated network delays —
the same subtraction the paper performs.  Absolute milliseconds depend on the
host machine; the reproduced claims are the *relative* ones: APRO costs more
CPU than PAG/SEM but is far less sensitive to the cache size, and all CPU
times stay orders of magnitude below the wireless communication delay.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.sweeps import cache_size_sweep


DEFAULT_FRACTIONS = (0.001, 0.005, 0.01, 0.05)


def run(config: Optional[SimulationConfig] = None,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        models: Sequence[str] = ("PAG", "SEM", "APRO")) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{cache_fraction: {model: summary}}`` (same sweep as Figure 8)."""
    config = (config or SimulationConfig.scaled()).with_overrides(mobility_model="RAN")
    sweep = cache_size_sweep(config, fractions, models)
    return {fraction: {model: result.summary() for model, result in per_model.items()}
            for fraction, per_model in sweep.items()}


def render(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render client CPU milliseconds per query per model and cache size."""
    fractions = sorted(results)
    models = list(next(iter(results.values())))
    rows = [[model] + [results[f][model]["client_cpu_ms"] for f in fractions]
            for model in models]
    headers = ["model"] + [f"|C|={f:.1%}" for f in fractions]
    return format_table(headers, rows,
                        title="Figure 9 — client CPU time (ms) vs cache size (RAN)")
