"""The dataset streams are pinned: same seeds, same records, bit for bit.

Every experiment, golden fingerprint and benchmark lap starts from
``make_dataset``, so a change to how the generators draw (for instance how
the Zipf sizes or the NE cluster are picked) must not move a single float
or size.  Each digest hashes, in order, every record's id, the ``repr`` of
its four MBR coordinates and its size.  The digests were recorded before
the Zipf draw switched to precomputed cumulative weights and the NE cluster
pick to a bisection, and the fast lane checks them on every supported
Python.
"""

import hashlib

import pytest

from repro.datasets import make_dataset

#: ``SimulationConfig.dataset_seed``'s default: every experiment and
#: benchmark lap draws its dataset with it, whichever the dataset.
SEED = 7

DIGESTS = {
    ("NE", 500): "c6919f39a501337025e8989835ffe27480acb08dc51765884f580b7e6b1642bd",
    ("NE", 8000): "2d1b0f1918694e2933ed539bed046f2fe48089f18581f562b7a573b86760e40d",
    ("RD", 500): "d6d41522878934c2ebef8ed28de982bf46426d682e953ec6e146db19461544d5",
    ("RD", 8000): "cc85e01c6d817c2b91e6eae6b13e9a74f490aa113b238481a5eec63990b59043",
    ("UNIFORM", 500): "a7f7fa712ca0dfabb08f431a3a12842d2288554860e69899df1228a809947d1d",
    ("UNIFORM", 8000): "1741dab09336510b33f0c7b22fc105b2bd3f36f4a33b8242ea9a836ce21fa597",
}


def records_digest(records):
    digest = hashlib.sha256()
    for record in records:
        mbr = record.mbr
        digest.update(f"{record.object_id} {mbr.min_x!r} {mbr.min_y!r} "
                      f"{mbr.max_x!r} {mbr.max_y!r} {record.size_bytes}\n"
                      .encode())
    return digest.hexdigest()


@pytest.mark.parametrize(("name", "count"), sorted(DIGESTS))
def test_dataset_records_are_pinned(name, count):
    assert records_digest(make_dataset(name, count, SEED)) == DIGESTS[name, count]
