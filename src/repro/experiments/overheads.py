"""Section 6.4 text numbers — partition-tree overheads and server CPU time.

The paper reports, as prose rather than a figure: the binary partition trees
add 4.2 MB / 23.7 MB on top of the 3.8 MB / 18.5 MB NE / RD indexes (i.e.
roughly doubling the index footprint but never more than 2x), and the
server-side query processing time *drops* slightly under the adaptive scheme
(0.0081 s for FPRO vs 0.0067 s for APRO) because only a small part of each
partition tree is visited.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, Optional

from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig
from repro.sim.fleet import open_comparison, replay_comparison


def run(config: Optional[SimulationConfig] = None) -> Dict[str, float]:
    """Measure index size, partition-tree size and FPRO vs APRO server CPU."""
    config = config or SimulationConfig.scaled(query_count=150)
    deployment, specs = open_comparison(
        config, [(model, model, None) for model in ("FPRO", "APRO")])
    with closing(deployment):
        tree = deployment.tree
        size_model = tree.size_model
        index_bytes = tree.index_bytes()
        # The server built every node's partition tree when it opened.
        partition_bytes = sum(pt.size_bytes(size_model.entry_bytes,
                                            size_model.pointer_bytes)
                              for pt in deployment.server.partition_trees.values())
        results = replay_comparison(deployment, specs)
    return {
        "index_bytes": float(index_bytes),
        "partition_tree_bytes": float(partition_bytes),
        "partition_to_index_ratio": partition_bytes / index_bytes if index_bytes else 0.0,
        "server_cpu_ms_fpro": results["FPRO"].summary()["server_cpu_ms"],
        "server_cpu_ms_apro": results["APRO"].summary()["server_cpu_ms"],
    }


def render(values: Dict[str, float]) -> str:
    """Render the overhead numbers next to the paper's claims."""
    rows = [
        ("R-tree index size (bytes)", values["index_bytes"], "3.8 MB (NE) / 18.5 MB (RD)"),
        ("partition trees size (bytes)", values["partition_tree_bytes"],
         "4.2 MB (NE) / 23.7 MB (RD)"),
        ("partition / index ratio", values["partition_to_index_ratio"], "~1.1x, bounded by 2x"),
        ("server CPU per query, FPRO (ms)", values["server_cpu_ms_fpro"], "8.1 ms"),
        ("server CPU per query, APRO (ms)", values["server_cpu_ms_apro"], "6.7 ms"),
    ]
    return format_table(["quantity", "this run", "paper"], rows,
                        title="Section 6.4 — adaptive-scheme overheads")
