"""The repo benchmark: five workloads, end-to-end metrics, per-layer attribution.

Run one workload the way the driver does::

    python3 -m bench --workload fleet_mixed --seed 101 --seconds 12 --trace 0

or the whole suite (child process per run, medians over repeats)::

    python3 -m bench --repeats 3 --out bench/out/result.json

See ``bench/README.md`` for the metric tables and the comparison recipe.
"""

import os

#: The checkout the benchmark runs in (the directory that holds ``bench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
