"""Parameter sweeps used by the figure-regenerating experiments.

Every sweep point is one paired comparison
(:func:`~repro.sim.fleet.run_comparison`) that rebuilds the deployment
from a deterministic configuration, so every model or policy within a
point replays an identical trace.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, Iterable, Sequence

from repro.sim.config import SimulationConfig
from repro.sim.fleet import open_comparison, replay_comparison, run_comparison
from repro.sim.metrics import ClientResult


def cache_size_sweep(config: SimulationConfig, fractions: Sequence[float],
                     models: Iterable[str]) -> Dict[float, Dict[str, ClientResult]]:
    """Run every model at several cache sizes (Figures 8 and 9)."""
    models = list(models)
    return {fraction: run_comparison(
                config.with_overrides(cache_fraction=fraction), models)
            for fraction in fractions}


def mobility_sweep(config: SimulationConfig, mobility_models: Sequence[str],
                   models: Iterable[str]) -> Dict[str, Dict[str, ClientResult]]:
    """Run every caching model under several mobility models (Figure 7)."""
    models = list(models)
    return {mobility: run_comparison(
                config.with_overrides(mobility_model=mobility), models)
            for mobility in mobility_models}


def replacement_sweep(config: SimulationConfig, policies: Sequence[str],
                      mobility_models: Sequence[str] = ("RAN", "DIR"),
                      model: str = "APRO") -> Dict[str, Dict[str, ClientResult]]:
    """Run one model under several replacement policies (Figure 10).

    One comparison per mobility model, with one client per policy.
    """
    results = {}
    for mobility in mobility_models:
        deployment, specs = open_comparison(
            config.with_overrides(mobility_model=mobility),
            [(policy, model, policy) for policy in policies])
        with closing(deployment):
            results[mobility] = replay_comparison(deployment, specs)
    return results
