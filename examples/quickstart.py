"""Quickstart: proactive caching in a dozen lines.

Builds a small NE-like dataset, bulk-loads the server's R*-tree, and runs a
paired comparison of page caching (PAG), semantic caching (SEM) and adaptive
proactive caching (APRO) on an identical query trace, printing the headline
metrics of the paper's Figure 6.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_comparison


def main(query_count: int = 200, object_count: int = 4_000) -> None:
    """Run the paired PAG / SEM / APRO comparison and print the metrics."""
    # A laptop-scale configuration: 4,000 clustered objects, 200 mixed
    # range / kNN / join queries, 1% cache, random-waypoint mobility.
    config = SimulationConfig.scaled(query_count=query_count,
                                     object_count=object_count)
    print("Simulation parameters")
    for key, value in config.as_table().items():
        print(f"  {key:>12}: {value}")
    print()

    results = run_comparison(config, models=("PAG", "SEM", "APRO"))

    metrics = ("uplink_bytes", "downlink_bytes", "cache_hit_rate",
               "byte_hit_rate", "false_miss_rate", "response_time")
    rows = []
    for metric in metrics:
        rows.append([metric] + [results[model].summary()[metric]
                                for model in ("PAG", "SEM", "APRO")])
    print(format_table(["metric", "PAG", "SEM", "APRO"], rows,
                       title="Paired comparison on an identical query trace"))
    print()

    apro = results["APRO"].summary()
    sem = results["SEM"].summary()
    print(f"APRO answers {apro['cache_hit_rate']:.0%} of result bytes from the cache "
          f"(semantic caching: {sem['cache_hit_rate']:.0%}) and still downloads "
          f"{apro['downlink_bytes'] / 1024:.1f} KiB per query on average.")


if __name__ == "__main__":
    main()
