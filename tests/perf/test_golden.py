"""'Same behaviour', pinned: every scenario reproduces its golden fingerprint.

The fingerprints are seed-deterministic decisions (bytes, hit rates,
modelled response time, routing and page counters, equivalence bits), so
the comparison is exact.  A mismatch means the change altered an eviction
decision, a query result or a routing verdict; if that was the point,
regenerate with ``PYTHONPATH=src python -m tests.perf.scenarios`` and say
so in the PR.
"""

import json

import pytest

from tests.perf.scenarios import GOLDEN_PATH, SCENARIOS

# Full end-to-end scenarios (fleets, restarts, WAL runs): the slow lane.
pytestmark = pytest.mark.slow

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_scenarios():
    assert list(GOLDEN) == list(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_reproduces_its_golden_fingerprint(name):
    assert SCENARIOS[name]() == GOLDEN[name]
