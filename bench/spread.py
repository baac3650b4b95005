"""``python3 -m bench.spread``: is the benchmark steady enough for its bounds?

Runs every workload ``--runs`` times, each time with another ``--seed``,
the way the driver does, and prints for each end-to-end metric the distance
between the first and third quartile of its values as a share of their
median, next to the metric's bound.  A spread above a third of its bound is
marked ``!``, above the bound ``!!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from bench import ROOT, metrics


def spread(values: Sequence[float]) -> float:
    """IQR over median, as ``statistics.quantiles(values, n=4)`` gives it."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.spread",
                                     description=__doc__)
    parser.add_argument("--workload", action="append", default=[],
                        choices=metrics.workload_names())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write every run's values here as JSON")
    args = parser.parse_args(argv)
    everything: Dict[str, Dict[str, List[float]]] = {}
    worst = 0.0
    for workload in args.workload or metrics.workload_names():
        values: Dict[str, List[float]] = {m.name: [] for m in metrics.END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            finished = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(metrics.RUN_SECONDS),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if finished.returncode != 0:
                print(finished.stdout[-2000:], finished.stderr[-2000:])
                return 1
            line = json.loads(finished.stdout.strip().splitlines()[-1])
            for name, entry in line["metrics"].items():
                values[name].append(entry["value"])
        everything[workload] = values
        print(f"== {workload}", flush=True)
        for metric in metrics.END_TO_END:
            share = spread(values[metric.name])
            if metric.name != "setup_s":
                worst = max(worst, share / metric.bound)
            flag = ("!!" if share > metric.bound
                    else "!" if share > metric.bound / 3 else "")
            print(f"{metric.name:<28} median "
                  f"{statistics.median(values[metric.name]):>12.5g} "
                  f"{metric.unit:<6} spread {share:6.3f}  bound "
                  f"{metric.bound:4.2f} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(everything, handle, indent=1)
    print(f"worst spread / bound: {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
