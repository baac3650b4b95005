"""A directed-movement courier compares caching models and eviction policies.

A courier drives across town along purposeful routes (the DIR mobility
model), asking a mix of "what is around me" queries: delivery zones in a
window (range), the nearest k drop boxes (kNN), and pairs of nearby pickup
points that can be batched (distance self-join).  The example runs the same
trace through page caching, semantic caching and proactive caching, then
shows how the choice of cache replacement policy (LRU / FAR / GRD3) affects
the proactive cache under both mobility models — the paper's Figures 7
and 10 in miniature.

Run with::

    python examples/city_courier_comparison.py
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_comparison
from repro.sim.sweeps import replacement_sweep


def main(query_count: int = 200, object_count: int = 4_000,
         sweep_query_count: int = 150) -> None:
    """Compare caching models and eviction policies on the courier trace."""
    config = SimulationConfig.scaled(
        query_count=query_count, object_count=object_count).with_overrides(
        mobility_model="DIR", cache_fraction=0.02)

    print("Courier scenario: directed movement, 2% cache, mixed workload")
    results = run_comparison(config, ("PAG", "SEM", "APRO"))

    rows = []
    for model, result in results.items():
        summary = result.summary()
        rows.append([model, summary["cache_hit_rate"], summary["false_miss_rate"],
                     summary["downlink_bytes"] / 1024.0, summary["response_time"]])
    print(format_table(["model", "hit rate", "false miss", "downlink KiB", "resp (s)"],
                       rows, title="Caching models on the courier trace"))
    print()

    print("Replacement policies for the proactive cache (RAN vs DIR):")
    sweep = replacement_sweep(config.with_overrides(query_count=sweep_query_count),
                              policies=("LRU", "FAR", "GRD3"),
                              mobility_models=("RAN", "DIR"))
    rows = []
    for policy in ("LRU", "FAR", "GRD3"):
        rows.append([policy,
                     sweep["RAN"][policy].summary()["response_time"],
                     sweep["DIR"][policy].summary()["response_time"]])
    print(format_table(["policy", "RAN resp (s)", "DIR resp (s)"], rows))
    print()
    print("GRD3 is designed to be the most stable choice across mobility patterns;")
    print("LRU tends to look better under DIR, FAR and GRD3 under RAN (paper Fig. 10).")


if __name__ == "__main__":
    main()
