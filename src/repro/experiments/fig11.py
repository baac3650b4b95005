"""Figure 11 — adaptive vs non-adaptive proactive caching under a k-ramp.

The workload is kNN-only; the average ``k`` ramps from 10 down to 1 over the
first half of the run and back up to 10 over the second half.  The cache is
small (0.1 %) and the mobility model is RAN.  For FPRO (full form), CPRO
(normal compact form) and APRO (adaptive ``d+``-level form) the experiment
reports three time series sampled every ``window`` queries:

* 11(a) false miss rate,
* 11(b) the index share of the cache (``i/c``),
* 11(c) response time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_environment, run_models
from repro.workload.generator import QueryMix
from repro.workload.schedule import KnnRampSchedule


def default_config(query_count: int = 400) -> SimulationConfig:
    """The Figure 11 configuration: kNN-only workload, small cache, RAN mobility.

    The paper uses ``|C| = 0.1%`` of its 1.2 GB dataset, i.e. a cache holding
    roughly a dozen queries' worth of results.  The scaled dataset is ~300x
    smaller, so the same *ratio* of cache size to per-query result size is
    obtained with a 2% fraction; using the raw 0.1% would leave room for less
    than one query's results and the experiment would only measure eviction
    thrash.
    """
    return SimulationConfig.scaled(query_count=query_count).with_overrides(
        mobility_model="RAN",
        cache_fraction=0.02,
        query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0),
        k_max=10,
        adapt_report_period=20,
    )


def run(config: Optional[SimulationConfig] = None,
        models: Sequence[str] = ("FPRO", "CPRO", "APRO"),
        window: int = 25) -> Dict[str, Dict[str, List[float]]]:
    """Return ``{model: {series_name: values}}`` for the three time series."""
    config = config or default_config()
    schedule = KnnRampSchedule(total_queries=config.query_count)
    environment = build_environment(config, knn_schedule=schedule)
    results = run_models(environment, models)
    series: Dict[str, Dict[str, List[float]]] = {}
    for model, result in results.items():
        series[model] = {
            "false_miss_rate": result.windowed_false_miss_rate(window),
            "index_fraction": result.windowed_index_fraction(window),
            "response_time": result.windowed_response_time(window),
            "depth": result.windowed_depth(window),
        }
    series["_k_schedule"] = {
        "k": [float(schedule.k_at(i)) for i in range(0, config.query_count, window)],
    }
    return series


def render(series: Dict[str, Dict[str, List[float]]]) -> str:
    """Render the three time-series tables."""
    models = [name for name in series if not name.startswith("_")]
    k_values = series.get("_k_schedule", {}).get("k", [])
    blocks = []
    for panel, label in (("false_miss_rate", "Figure 11(a) — false miss rate"),
                         ("index_fraction", "Figure 11(b) — index share of cache (i/c)"),
                         ("response_time", "Figure 11(c) — response time (s)")):
        length = max(len(series[m][panel]) for m in models)
        rows = []
        for index in range(length):
            row = [index, k_values[index] if index < len(k_values) else ""]
            for model in models:
                values = series[model][panel]
                row.append(values[index] if index < len(values) else "")
            rows.append(row)
        blocks.append(format_table(["window", "avg k"] + models, rows, title=label))
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI convenience
    """Regenerate and print this experiment at the default scale."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
