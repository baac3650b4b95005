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

from typing import Dict, List, Optional, Sequence, TypeVar

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_comparison
from repro.sim.metrics import ClientResult
from repro.workload.generator import QueryMix
from repro.workload.schedule import KnnRampSchedule

T = TypeVar("T")

#: The fields Figure 11 fixes on whatever configuration it runs: a kNN-only
#: workload, a small cache and RAN mobility.
#:
#: The paper uses ``|C| = 0.1%`` of its 1.2 GB dataset, i.e. a cache holding
#: roughly a dozen queries' worth of results.  The scaled dataset is ~300x
#: smaller, so the same *ratio* of cache size to per-query result size is
#: obtained with a 2% fraction; using the raw 0.1% would leave room for less
#: than one query's results and the experiment would only measure eviction
#: thrash.
FIXED = dict(
    mobility_model="RAN",
    cache_fraction=0.02,
    query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0),
    k_max=10,
    adapt_report_period=20,
)


def run(config: Optional[SimulationConfig] = None,
        models: Sequence[str] = ("FPRO", "CPRO", "APRO"),
        window: int = 25) -> Dict[str, Dict[str, List[float]]]:
    """Return ``{model: {series_name: values}}`` for the three time series.

    The :data:`FIXED` fields override ``config``'s, as Figures 8 and 9 fix
    RAN mobility on theirs.
    """
    config = (config or SimulationConfig.scaled()).with_overrides(**FIXED)
    schedule = KnnRampSchedule(total_queries=config.query_count)
    results = run_comparison(config, models, knn_schedule=schedule)
    series: Dict[str, Dict[str, List[float]]] = {}
    for model, result in results.items():
        series[model] = {
            "false_miss_rate": windowed_false_miss_rate(result, window),
            "index_fraction": _windowed_mean(
                [s.index_fraction for s in result.snapshots], window),
            "response_time": _windowed_mean(
                [c.response_time for c in result.costs], window),
            "depth": _windowed_mean([s.depth for s in result.snapshots],
                                    window),
        }
    series["_k_schedule"] = {
        "k": [float(schedule.k_at(i)) for i in range(0, config.query_count, window)],
    }
    return series


def windowed_false_miss_rate(result: ClientResult, window: int) -> List[float]:
    """fmr per window of ``window`` consecutive queries."""
    series = []
    for chunk in _windows(result.costs, window):
        cached = sum(c.cached_result_bytes for c in chunk)
        false = sum(c.false_miss_bytes for c in chunk)
        series.append(false / cached if cached else 0.0)
    return series


def _windowed_mean(values: List[float], window: int) -> List[float]:
    """Mean of ``values`` per window of ``window`` consecutive queries."""
    return [sum(chunk) / len(chunk) for chunk in _windows(values, window)]


def _windows(values: List[T], window: int) -> List[List[T]]:
    return [values[start:start + window] for start in range(0, len(values), window)]


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
