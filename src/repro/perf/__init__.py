"""Performance harness: repeatable scenario timings and regression gates.

The package has two halves:

* :mod:`repro.perf.scenarios` — a registry of named end-to-end scenarios
  (fig6-style model comparison, fleet rush hour, cache-pressure sweep), each
  returning a deterministic *fingerprint* of its decisions so two versions of
  the code can be proved behaviour-identical, not just compared on speed;
* :mod:`repro.perf.harness` — runs scenarios under wall-clock and
  allocation instrumentation, writes ``BENCH_*.json`` reports and compares a
  run against a committed baseline (the ``repro bench`` CLI and the CI
  perf-smoke job are thin wrappers over it).
"""

from repro.perf.harness import (
    BenchReport,
    ScenarioMeasurement,
    check_comparable,
    compare_to_baseline,
    format_report,
    load_report,
    run_suite,
    write_report,
)
from repro.perf.scenarios import (
    SCENARIOS,
    SCALES,
    scenario_descriptions,
    scenario_names,
)

__all__ = [
    "BenchReport",
    "ScenarioMeasurement",
    "SCENARIOS",
    "SCALES",
    "check_comparable",
    "compare_to_baseline",
    "format_report",
    "load_report",
    "run_suite",
    "scenario_descriptions",
    "scenario_names",
    "write_report",
]
