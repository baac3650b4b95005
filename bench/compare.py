"""``python3 -m bench.compare A.json B.json``: did B get worse than A?

``A`` and ``B`` are suite results (``python3 -m bench --out FILE``) of the
same seed — usually the parent commit and the change.  One row per workload
and end-to-end metric: both medians, B's change as a share of A (its base),
the metric's bound, and a verdict:

``better`` / ``worse``
    B's median is better / worse than A's by more than the bound.
``within``
    the medians differ by no more than the bound.
``unresolved``
    a side's repeats spread wider than the bound and the two sides' repeats
    overlap, so the medians settle nothing; run more repeats.
``same`` / ``changed``
    exact metrics only (bytes, hit rate, modelled time — pure functions of
    the seed and the code's decisions): bit-identical on every repeat of
    both sides, or not.  ``changed`` within the bound means the change made
    different caching decisions; it is reported, not failed.

Exits 1 on any ``worse`` and on any rise of ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from bench import metrics


def verdict(metric: metrics.Metric, parent: Sequence[float],
            change: Sequence[float], parent_median: float,
            change_median: float) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's change as a share of A,
    positive when B is worse."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (change_median - parent_median) / parent_median
    if metric.exact and set(parent) == set(change) and len(set(parent)) == 1:
        return "same", 0.0
    if not metric.exact:
        spread = max((max(side) - min(side)) / abs(median)
                     for side, median in ((parent, parent_median),
                                          (change, change_median)))
        overlap = (min(parent) <= max(change)
                   and min(change) <= max(parent))
        if spread > metric.bound and overlap:
            return "unresolved", worsening
    if worsening > metric.bound:
        return "worse", worsening
    if metric.exact:
        return "changed", worsening
    if worsening < -metric.bound:
        return "better", worsening
    return "within", worsening


def compare(parent: Dict[str, object],
            change: Dict[str, object]) -> Tuple[List[str], Dict[str, int]]:
    """The report lines and a count of each verdict (plus ``failed_rise``)."""
    lines = [f"{'workload':<14} {'metric':<26} {'A median':>12} "
             f"{'B median':>12} {'B vs A':>8} {'bound':>6}  verdict"]
    counts: Dict[str, int] = {"failed_rise": 0}
    for workload in metrics.workload_names():
        rows = [side["workloads"].get(workload) for side in (parent, change)]
        if None in rows:
            continue
        before, after = rows
        for metric in metrics.END_TO_END:
            a, b = (row["end_to_end"][metric.name] for row in rows)
            word, worsening = verdict(metric, a["values"], b["values"],
                                      a["median"], b["median"])
            counts[word] = counts.get(word, 0) + 1
            ratio = b["median"] / a["median"]
            lines.append(
                f"{workload:<14} {metric.name:<26} {a['median']:>12.5g} "
                f"{b['median']:>12.5g} {ratio:>7.3f}x {metric.bound:>6.2f}  "
                f"{word}")
        rose = after["failed_frac"] > before["failed_frac"]
        counts["failed_rise"] += rose
        lines.append(
            f"{workload:<14} {'failed_frac':<26} "
            f"{before['failed_frac']:>12.5g} {after['failed_frac']:>12.5g} "
            f"{'':>8} {'exact':>6}  {'worse' if rose else 'same'}")
    return lines, counts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="A.json")
    parser.add_argument("change", metavar="B.json")
    args = parser.parse_args(argv)
    sides = []
    for path in (args.parent, args.change):
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    if sides[0]["seed"] != sides[1]["seed"]:
        print(f"warning: seeds differ ({sides[0]['seed']} vs "
              f"{sides[1]['seed']}); exact metrics will read 'changed'",
              file=sys.stderr)
    lines, counts = compare(*sides)
    print("\n".join(lines))
    print(", ".join(f"{word}: {count}"
                    for word, count in sorted(counts.items())))
    return 1 if counts.get("worse", 0) or counts["failed_rise"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
