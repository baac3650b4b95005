"""Real QUERY / RESPONSE traffic from an in-process, ``wire_uds``-shaped lap.

The benchmark's ``wire_uds`` workload replays two fast DIR clients (range
and kNN, no joins, a 0.5 % cache) against a ``repro serve`` process.  The
same fleet run in process is byte-identical to it (the ``tests/net``
equivalence suite), so wrapping the server's ``execute`` — the capture
trick ``bench/layers.py`` uses on the remote handle — yields the very
``(query, remainder, policy, response)`` tuples the wire would carry.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.server import ServerQueryProcessor
from repro.sim import ClientGroupSpec, FleetConfig, SimulationConfig, run_fleet
from repro.workload.generator import QueryMix


def wire_lap_messages(queries_per_client: int = 150, objects: int = 8000,
                      join: float = 0.0) -> Tuple[List[tuple], tuple]:
    """``(captured, (root_id, root_mbr))`` of one lap of the workload.

    ``captured`` holds one ``(query, remainder, policy, response)`` per
    server round trip; ``join`` > 0 adds joins to the range / kNN mix.
    """
    base = SimulationConfig.scaled(query_count=queries_per_client,
                                   object_count=objects)
    fleet = FleetConfig(base=base, fleet_seed=101, groups=(ClientGroupSpec(
        name="remote", clients=2, mobility_model="DIR", speed_factor=8.0,
        cache_fraction=0.005,
        query_mix=QueryMix(range_=2.0, knn=1.0, join=join)),))
    captured: List[tuple] = []
    roots: List[tuple] = []
    execute = ServerQueryProcessor.execute

    def capturing(self, query, remainder=None, policy=None):
        response = execute(self, query, remainder, policy)
        captured.append((query, remainder, policy, response))
        roots.append((self.root_id, self.root_mbr))
        return response

    ServerQueryProcessor.execute = capturing
    try:
        run_fleet(fleet)
    finally:
        ServerQueryProcessor.execute = execute
    return captured, roots[0]
