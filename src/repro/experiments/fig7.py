"""Figure 7 — performance under the RAN and DIR mobility models.

7(a): response time of PAG / SEM / APRO under both mobility models.
7(b): false miss rate of SEM and APRO under both mobility models.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.sweeps import mobility_sweep


def run(config: Optional[SimulationConfig] = None,
        models: Sequence[str] = ("PAG", "SEM", "APRO"),
        mobility_models: Sequence[str] = ("RAN", "DIR")) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Return ``{mobility: {model: summary}}``."""
    config = config or SimulationConfig.scaled()
    sweep = mobility_sweep(config, mobility_models, models)
    return {mobility: {model: result.summary() for model, result in per_model.items()}
            for mobility, per_model in sweep.items()}


def render(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """Render the 7(a) response-time and 7(b) false-miss-rate tables."""
    mobilities = list(results)
    models = list(next(iter(results.values())))
    response_rows = [[model] + [results[mob][model]["response_time"] for mob in mobilities]
                     for model in models]
    fmr_rows = [[model] + [results[mob][model]["false_miss_rate"] for mob in mobilities]
                for model in models if model in ("SEM", "APRO")]
    part_a = format_table(["model"] + [f"{m} resp (s)" for m in mobilities], response_rows,
                          title="Figure 7(a) — response time under mobility models")
    part_b = format_table(["model"] + [f"{m} fmr" for m in mobilities], fmr_rows,
                          title="Figure 7(b) — false miss rate under mobility models")
    return part_a + "\n\n" + part_b
