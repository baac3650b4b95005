"""``python3 -m bench``: one run (the driver's contract) or the whole suite.

With ``--seconds`` the command is one run of one workload and ends with the
contract's JSON line.  Without it the command is the suite: every chosen
workload, ``--repeats`` untraced runs and one traced run each, every run a
fresh child process of the first form; medians over repeats go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from bench import ROOT, metrics

try:
    from bench import run  # imports the program
except ImportError as error:
    raise SystemExit(f"python3 -m bench: error: {error}")

#: Steady-state seconds of a ``--smoke`` run; its numbers are never compared.
SMOKE_SECONDS = 0.3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", action="append", default=[],
                        choices=metrics.workload_names(),
                        help="workload to run (suite: repeatable; "
                             "default: all five)")
    parser.add_argument("--seed", type=int, default=101,
                        help="query- and update-stream seed (default: 101)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run one workload once for this many "
                             "steady-state seconds and print the contract's "
                             "JSON line (the driver's form)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single run: 1 reports the per-layer metrics "
                             "from traced laps, 0 the end-to-end ones")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload (default: 3)")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a fraction of a "
                             "second (self-test; never compare its numbers)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full JSON record here")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is not None:
        return _single(args)
    return _suite(args, run.OUT_DIR)


def _single(args: argparse.Namespace) -> int:
    if len(args.workload) != 1:
        print("python3 -m bench: error: --seconds takes exactly one "
              "--workload", file=sys.stderr)
        return 2
    record = run.single_run(args.workload[0], args.seed, args.seconds,
                            trace=bool(args.trace),
                            scale="smoke" if args.smoke else "full")
    if args.out:
        _write_json(args.out, record)
    run.print_metrics(record)
    print(run.contract_line(record), flush=True)
    return 0 if record["failed"] == 0 else 1


# --------------------------------------------------------------------------- #
# the suite
# --------------------------------------------------------------------------- #
def calibration_seconds() -> float:
    """A 3 M-iteration pure-Python loop: how fast is this host right now?

    Recorded beside every child so a reader can tell a slow host from a
    slow commit; never used to rescale a number.
    """
    start = time.perf_counter()
    total = 0
    for value in range(3_000_000):
        total += value & 7
    return time.perf_counter() - start


def host_record() -> Dict[str, object]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass  # a plain checkout is not a git repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def _child(workload: str, args: argparse.Namespace, seconds: float,
           trace: bool, out_dir: str) -> Dict[str, object]:
    """One run in a fresh process (clean heap, its own ``ru_maxrss``)."""
    path = os.path.join(out_dir, f"child-{workload}-{int(trace)}.json")
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", path]
    if args.smoke:
        command.append("--smoke")
    before = calibration_seconds()
    finished = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
    after = calibration_seconds()
    if not os.path.exists(path):
        raise RuntimeError(f"{' '.join(command)} wrote no record "
                           f"(exit {finished.returncode}):\n"
                           f"{finished.stderr[-2000:]}")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(path)
    record["calibration_s"] = {"before": before, "after": after}
    return record


def _suite(args: argparse.Namespace, out_dir: str) -> int:
    if args.repeats < 2:
        print("python3 -m bench: error: --repeats must be at least 2",
              file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    seconds = SMOKE_SECONDS if args.smoke else float(metrics.RUN_SECONDS)
    result: Dict[str, object] = {
        "host": host_record(), "seed": args.seed, "repeats": args.repeats,
        "seconds": seconds, "smoke": args.smoke, "workloads": {}}
    failed = 0
    for workload in args.workload or metrics.workload_names():
        repeats = [_child(workload, args, seconds, False, out_dir)
                   for _ in range(args.repeats)]
        traced = (None if args.no_trace
                  else _child(workload, args, seconds, True, out_dir))
        row = summarise(repeats, traced)
        result["workloads"][workload] = row
        failed += row["failed"]
        print_row(workload, row)
    out = args.out or os.path.join(out_dir, "result.json")
    _write_json(out, result)
    print(f"wrote {out}")
    return 0 if failed == 0 else 1


def summarise(repeats: List[Dict[str, object]],
              traced: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Median over repeats per metric, every raw value kept, runs cross-checked."""
    runs = repeats + ([traced] if traced else [])
    failures = [message for record in runs for message in record["failures"]]
    attempted = sum(record["attempted"] for record in runs) + 1
    # Same seed, same code: the laps every run shares must have made the
    # same decisions (deterministic summaries and final cache digests).
    shared = min(len(record["certificate"]) for record in runs)
    if any(record["certificate"][:shared] != runs[0]["certificate"][:shared]
           for record in runs):
        failures.append("runs of one seed disagree on deterministic "
                        "summaries or cache digests")
    row: Dict[str, object] = {
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "end_to_end": {}, "per_layer": traced["per_layer"] if traced else {},
        "phases_s": [record["phases_s"] for record in runs],
        "calibration_s": [record["calibration_s"] for record in runs],
        "laps": [record["laps"] for record in runs],
    }
    for metric in metrics.END_TO_END:
        values = [record["end_to_end"][metric.name] for record in repeats]
        row["end_to_end"][metric.name] = {
            "median": statistics.median(values), "values": values,
            "unit": metric.unit}
    return row


def print_row(workload: str, row: Dict[str, object]) -> None:
    print(f"== {workload}: failed {row['failed']} / {row['attempted']}")
    for name, entry in row["end_to_end"].items():
        print(metrics.line(name, entry["median"]))
    for name, value in row["per_layer"].items():
        print(metrics.line(name, value))
    for message in row["failures"]:
        print(f"FAILED: {message}")


def _write_json(path: str, record: Dict[str, object]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
