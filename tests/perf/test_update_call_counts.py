"""Counts, not clocks: what one update costs in ``Rect``s and fsyncs.

The write path is bound by two things a wall clock reports only noisily.
Until PR 22 R* ChooseSubtree compared every entry's overlap enlargement
against every sibling through ``Rect.union`` / ``Rect.intersection_area``
and built a frozen ``Rect`` (with its ``__post_init__`` check) per
overlapping pair: 154 446 ``Rect``s over the 1 464 ``_pick_child`` calls of
one ``durable_churn`` benchmark lap, ≈ 105 per call — and 194 330 over the
1 928 ``_pick_child`` calls of the scenario replayed here.  And
``WalWriter.append`` fsync'd the payload and then the commit marker: 726
fsyncs for this scenario's 363 commits.  Both counts repeat exactly, so this
test replays the ``durable_updates`` golden scenario and pins them: no
``Rect`` is built choosing a subtree (the descent around it still decodes
the pages it reads from a paged store), and one fsync per WAL commit.
"""

import json
import os

import pytest

from repro.geometry import Rect
from repro.rtree import RTree
from repro.storage.wal import WalWriter

from tests.perf.scenarios import GOLDEN_PATH, durable_updates

pytestmark = pytest.mark.slow


def test_update_call_counts_on_durable_updates(monkeypatch):
    counts = {"picks": 0, "rects": 0, "appends": 0, "fsyncs": 0}
    inside = {"pick": False, "append": False}

    def bracketed(where, counter, function):
        def run(*args):
            counts[counter] += 1
            inside[where] = True
            try:
                return function(*args)
            finally:
                inside[where] = False
        return run

    post_init, fsync = Rect.__post_init__, os.fsync

    def counting_post_init(self):
        counts["rects"] += inside["pick"]
        post_init(self)

    def counting_fsync(fd):
        counts["fsyncs"] += inside["append"]
        fsync(fd)

    monkeypatch.setattr(RTree, "_pick_child",
                        bracketed("pick", "picks", RTree._pick_child))
    monkeypatch.setattr(WalWriter, "append",
                        bracketed("append", "appends", WalWriter.append))
    monkeypatch.setattr(Rect, "__post_init__", counting_post_init)
    monkeypatch.setattr(os, "fsync", counting_fsync)

    # Counting changes no decision: the run still is the golden run.
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["durable_updates"]
    assert durable_updates() == golden

    # 964 descents (482 inserts or modifies, once copy-on-write and once
    # durable) through a tree of height 3.
    assert counts["picks"] == 1928
    assert counts["rects"] == 0
    assert counts["appends"] == golden["wal_commits"] == 363
    assert counts["fsyncs"] == counts["appends"]
