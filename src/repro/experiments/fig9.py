"""Figure 9 — client CPU time per query under different cache sizes.

The CPU time is the measured client-side processing time (query execution
over the cache plus cache maintenance), excluding simulated network delays —
the same subtraction the paper performs.  Absolute milliseconds depend on the
host machine; the reproduced claims are the *relative* ones: APRO costs more
CPU than PAG/SEM but is far less sensitive to the cache size, and all CPU
times stay orders of magnitude below the wireless communication delay.
``run`` is Figure 8's cache-size sweep; only the rendered metric differs.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.fig8 import run  # noqa: F401  (re-exported)
from repro.experiments.report import format_table


def render(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render client CPU milliseconds per query per model and cache size."""
    fractions = sorted(results)
    models = list(next(iter(results.values())))
    rows = [[model] + [results[f][model]["client_cpu_ms"] for f in fractions]
            for model in models]
    headers = ["model"] + [f"|C|={f:.1%}" for f in fractions]
    return format_table(headers, rows,
                        title="Figure 9 — client CPU time (ms) vs cache size (RAN)")
