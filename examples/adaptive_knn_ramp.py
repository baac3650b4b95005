"""Adaptive proactive caching under a shifting kNN workload (Figure 11).

A courier app issues only k-nearest-neighbour queries, but the k it needs
changes over the day: wide searches in the morning (k ~ 10), pinpoint
searches at noon (k ~ 1), wide again in the evening.  The experiment pits
the three supporting-index forms against each other:

* FPRO — always cache the full form of every accessed index node;
* CPRO — always cache the minimal compact form;
* APRO — adapt the ``d+``-level compact form to the observed false-miss rate.

Run with::

    python examples/adaptive_knn_ramp.py
"""

from __future__ import annotations

from repro.experiments import fig11
from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig


def main(query_count: int = 300, window: int = 25) -> None:
    """Run the Figure-11 kNN ramp and print the per-window adaptation table."""
    config = SimulationConfig.scaled(query_count=query_count)
    print("kNN-only workload, k ramping 10 -> 1 -> 10, cache = 0.1% of the dataset")
    print()

    series = fig11.run(config, window=window)

    models = ("FPRO", "CPRO", "APRO")
    headers = ["window", "avg k"] + [f"{m} fmr" for m in models] + \
              [f"{m} i/c" for m in models]
    k_values = series["_k_schedule"]["k"]
    rows = []
    for index in range(len(k_values)):
        row = [index, k_values[index]]
        for model in models:
            values = series[model]["false_miss_rate"]
            row.append(values[index] if index < len(values) else "")
        for model in models:
            values = series[model]["index_fraction"]
            row.append(values[index] if index < len(values) else "")
        rows.append(row)
    print(format_table(headers, rows, title="False miss rate and index share over time"))
    print()

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    print("Mean response time per scheme:")
    for model in models:
        print(f"  {model}: {mean(series[model]['response_time']):.3f} s")
    print()
    print("Adaptive depth d chosen by APRO per window:",
          [round(v, 1) for v in series["APRO"]["depth"]])


if __name__ == "__main__":
    main()
