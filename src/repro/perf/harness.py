"""Timing, allocation accounting and baseline comparison for the perf suite.

A measurement run produces a :class:`BenchReport`: per scenario the best
wall-clock over N repeats, the tracemalloc peak of one instrumented repeat
and the scenario's deterministic fingerprint.  Reports serialise to the
``BENCH_*.json`` files committed at the repo root; :func:`compare_to_baseline`
implements the CI regression gate (wall-clock threshold + exact fingerprint
equality).
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.perf.scenarios import SCALES, SCENARIOS, Fingerprint


@dataclass
class ScenarioMeasurement:
    """One scenario's timings, allocation stats and behaviour fingerprint.

    ``peak_alloc_bytes`` is the tracemalloc high-water mark of one
    instrumented repeat; ``live_alloc_bytes`` is what was still reachable
    when the scenario returned (retained working set, e.g. memoised ground
    truth) — tracemalloc does not report a cumulative allocation total.
    """

    name: str
    wall_seconds: float
    repeats: int
    all_wall_seconds: List[float]
    peak_alloc_bytes: int
    live_alloc_bytes: int
    fingerprint: Fingerprint

    def as_dict(self) -> Dict:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "repeats": self.repeats,
            "all_wall_seconds": [round(t, 6) for t in self.all_wall_seconds],
            "peak_alloc_bytes": self.peak_alloc_bytes,
            "live_alloc_bytes": self.live_alloc_bytes,
            "fingerprint": self.fingerprint,
        }

    @staticmethod
    def from_dict(name: str, data: Dict) -> "ScenarioMeasurement":
        return ScenarioMeasurement(
            name=name,
            wall_seconds=float(data["wall_seconds"]),
            repeats=int(data.get("repeats", 1)),
            all_wall_seconds=[float(t) for t in data.get("all_wall_seconds", [])],
            peak_alloc_bytes=int(data.get("peak_alloc_bytes", 0)),
            live_alloc_bytes=int(data.get("live_alloc_bytes", 0)),
            fingerprint={k: float(v) for k, v in data.get("fingerprint", {}).items()},
        )


@dataclass
class BenchReport:
    """A full suite run at one scale."""

    scale: str
    scenarios: Dict[str, ScenarioMeasurement] = field(default_factory=dict)
    python_version: str = ""
    label: str = ""

    def as_dict(self) -> Dict:
        return {
            "scale": self.scale,
            "label": self.label,
            "python_version": self.python_version or platform.python_version(),
            "scenarios": {name: m.as_dict() for name, m in self.scenarios.items()},
        }

    @staticmethod
    def from_dict(data: Dict) -> "BenchReport":
        report = BenchReport(scale=data.get("scale", "default"),
                             python_version=data.get("python_version", ""),
                             label=data.get("label", ""))
        for name, entry in data.get("scenarios", {}).items():
            report.scenarios[name] = ScenarioMeasurement.from_dict(name, entry)
        return report


@dataclass(frozen=True)
class ComparisonEntry:
    """Baseline-vs-current verdict for one scenario."""

    name: str
    baseline_seconds: float
    current_seconds: float
    ratio: float                 # current / baseline; > 1 means slower
    regressed: bool
    fingerprint_matches: Optional[bool]  # None when either side lacks one

    @property
    def speedup(self) -> float:
        """Baseline / current; > 1 means the current code is faster."""
        if self.current_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.current_seconds


def run_scenario(name: str, scale_name: str = "default", repeats: int = 3,
                 measure_allocations: bool = True) -> ScenarioMeasurement:
    """Time one scenario ``repeats`` times and trace allocations once.

    The timed repeats run without tracemalloc (it roughly doubles runtime);
    a final instrumented repeat collects peak / total allocation bytes.  The
    reported ``wall_seconds`` is the minimum over the timed repeats — the
    most repeatable statistic for CPU-bound pure-Python code.
    """
    scenario: Callable = SCENARIOS[name]
    scale = SCALES[scale_name]
    timings: List[float] = []
    fingerprint: Fingerprint = {}
    for _ in range(max(1, repeats)):
        start = time.perf_counter()  # repro: allow[OBS01] the bench timer must not route through the layer it measures
        fingerprint = scenario(scale)
        timings.append(time.perf_counter() - start)  # repro: allow[OBS01] the bench timer must not route through the layer it measures
    peak = live = 0
    if measure_allocations:
        tracemalloc.start()
        try:
            scenario(scale)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return ScenarioMeasurement(name=name, wall_seconds=min(timings),
                               repeats=len(timings), all_wall_seconds=timings,
                               peak_alloc_bytes=peak, live_alloc_bytes=live,
                               fingerprint=fingerprint)


def run_suite(names: Optional[Sequence[str]] = None, scale: str = "default",
              repeats: int = 3, measure_allocations: bool = True,
              label: str = "", progress: Optional[Callable[[str], None]] = None,
              ) -> BenchReport:
    """Run the named scenarios (default: all) and collect a report."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    names = list(names) if names else list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; "
                             f"choose from {sorted(SCENARIOS)}")
    report = BenchReport(scale=scale, label=label,
                         python_version=platform.python_version())
    for name in names:
        if progress is not None:
            progress(f"running {name} (scale={scale}, repeats={repeats}) ...")
        report.scenarios[name] = run_scenario(
            name, scale_name=scale, repeats=repeats,
            measure_allocations=measure_allocations)
    return report


# ---------------------------------------------------------------------- #
# persistence
# ---------------------------------------------------------------------- #
def write_report(path: str, current: BenchReport,
                 baseline: Optional[BenchReport] = None,
                 meta: Optional[Dict] = None) -> Dict:
    """Write a ``BENCH_*.json`` file and return the serialised payload.

    The file holds the current run, optionally the baseline it is being
    compared to, and — when both are present — per-scenario speedups.
    """
    payload: Dict = {"meta": dict(meta or {})}
    payload["meta"].setdefault("python_version", platform.python_version())
    payload["current"] = current.as_dict()
    if baseline is not None:
        payload["baseline"] = baseline.as_dict()
        speedups = {}
        for name, measurement in current.scenarios.items():
            base = baseline.scenarios.get(name)
            if base is not None and measurement.wall_seconds > 0:
                speedups[name] = round(base.wall_seconds / measurement.wall_seconds, 3)
        payload["speedup"] = speedups
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def load_report(path: str, section: str = "current") -> BenchReport:
    """Load the ``section`` ("current" or "baseline") of a ``BENCH_*.json``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if section not in payload:
        raise ValueError(f"{path} has no {section!r} section")
    return BenchReport.from_dict(payload[section])


# ---------------------------------------------------------------------- #
# regression gate
# ---------------------------------------------------------------------- #
def check_comparable(scale: str, names: Iterable[str], baseline: BenchReport,
                     allow_missing: bool = False) -> None:
    """Raise ``ValueError`` unless ``baseline`` can gate a run of ``names``.

    Needs only the run's scale and scenario names, so ``repro bench``
    refuses an unusable baseline before it spends the run.
    """
    if scale != baseline.scale:
        raise ValueError(
            f"scale mismatch: current={scale!r} baseline={baseline.scale!r}; "
            "regression comparison requires identical scenario parameters")
    missing = [name for name in names if name not in baseline.scenarios]
    if missing and not allow_missing:
        raise ValueError(
            "scenarios missing from the baseline (regenerate it or pass "
            f"allow_missing=True): {', '.join(sorted(missing))}")


def compare_to_baseline(current: BenchReport, baseline: BenchReport,
                        max_regression: float = 0.25,
                        allow_missing: bool = False) -> List[ComparisonEntry]:
    """Compare two reports scenario by scenario.

    A scenario *regresses* when its wall-clock grew by more than
    ``max_regression`` (0.25 = 25%) over the baseline.  Fingerprints must
    match exactly — a mismatch is reported so the caller can fail the gate:
    a "speedup" that changes decisions is a bug, not a win.

    A current scenario absent from the baseline is an error by default — a
    renamed or newly added scenario must not silently fall out of the gate;
    regenerate the baseline file (or pass ``allow_missing=True``) instead.
    """
    check_comparable(current.scale, current.scenarios, baseline, allow_missing)
    entries: List[ComparisonEntry] = []
    for name, measurement in current.scenarios.items():
        base = baseline.scenarios.get(name)
        if base is None:
            continue
        ratio = (measurement.wall_seconds / base.wall_seconds
                 if base.wall_seconds > 0 else float("inf"))
        matches: Optional[bool] = None
        if measurement.fingerprint and base.fingerprint:
            matches = measurement.fingerprint == base.fingerprint
        entries.append(ComparisonEntry(
            name=name, baseline_seconds=base.wall_seconds,
            current_seconds=measurement.wall_seconds, ratio=ratio,
            regressed=ratio > 1.0 + max_regression,
            fingerprint_matches=matches))
    return entries


def format_report(current: BenchReport,
                  comparison: Optional[List[ComparisonEntry]] = None) -> str:
    """Human-readable table of a run (and its baseline comparison, if any)."""
    lines = [f"perf suite — scale={current.scale}, "
             f"python {current.python_version or platform.python_version()}"]
    header = f"{'scenario':<18} {'wall (s)':>10} {'peak alloc':>12}"
    if comparison is not None:
        header += f" {'baseline':>10} {'speedup':>8} {'fingerprint':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    by_name = {entry.name: entry for entry in (comparison or [])}
    for name, measurement in current.scenarios.items():
        row = (f"{name:<18} {measurement.wall_seconds:>10.3f} "
               f"{measurement.peak_alloc_bytes / 1024:>10.0f}KB")
        entry = by_name.get(name)
        if comparison is not None and entry is not None:
            fp = ("match" if entry.fingerprint_matches
                  else "MISMATCH" if entry.fingerprint_matches is False else "n/a")
            flag = " REGRESSED" if entry.regressed else ""
            row += f" {entry.baseline_seconds:>10.3f} {entry.speedup:>7.2f}x {fp:>12}{flag}"
        lines.append(row)
    return "\n".join(lines)
