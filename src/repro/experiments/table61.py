"""Table 6.1 — the simulation parameter settings.

The table is configuration, not measurement, but regenerating it from the
actual :class:`~repro.sim.config.SimulationConfig` keeps the documentation
honest about the scaled defaults used in this reproduction versus the paper's
original values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig


def run(config: Optional[SimulationConfig] = None) -> Dict[str, Dict[str, str]]:
    """Return the parameter tables of the paper configuration and this run's."""
    config = config or SimulationConfig.scaled()
    return {
        "paper": SimulationConfig.paper().as_table(),
        "this run": config.as_table(),
    }


def render(tables: Dict[str, Dict[str, str]]) -> str:
    """Render both parameter tables side by side."""
    paper = tables["paper"]
    current = tables["this run"]
    keys = sorted(set(paper) | set(current))
    rows = [(key, paper.get(key, "-"), current.get(key, "-")) for key in keys]
    return format_table(["parameter", "paper (Table 6.1)", "this run"], rows,
                        title="Table 6.1 — system parameter settings")
