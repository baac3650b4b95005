"""Property-based crash-recovery harness for the durable write path.

A seed-deterministic driver generates a random server-side update stream
(insert / delete / modify), commits it through the WAL in random-sized
batches against a checkpointed store, then crashes the store at a random
sample of WAL byte offsets — always including every record boundary and
its neighbours — and asserts, for each crash point, that reopening with
``recover=True`` lands exactly on the newest wholly-committed batch:

(a) **oracle equality** — the recovered object set equals a snapshot of
    the live tree taken right after that batch committed;
(b) **structural validity** — :func:`repro.rtree.assert_tree_valid`;
(c) **clean log** — recovery truncated any torn tail, so a rescan shows
    exactly the committed records and nothing after them;
(d) **order fidelity** — full recovery reproduces the live tree's object
    insertion order, not just its content.

On failure the driver *shrinks*: it greedily removes update events from
the stream while the failure reproduces, then reports the minimal stream.
"""

from __future__ import annotations

import random
from itertools import count
from typing import List, Optional

import pytest

from repro.core.server import ServerQueryProcessor
from repro.geometry import Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.rtree.entry import ObjectRecord
from tests.storage.faults import assert_crash_point_recovery
from repro.storage.paged import load_tree, save_tree
from repro.storage.wal import HEADER_SIZE, scan_wal, wal_path
from repro.updates import DatasetUpdater
from repro.updates.stream import UpdateEvent

INITIAL_OBJECTS = 30
EVENTS_PER_SEQUENCE = 14
SAMPLED_OFFSETS = 24       # random crash points per sequence (+ boundaries)
SMOKE_SEQUENCES = 10       # fast (-m "not slow") lane
SEQUENCES = 50             # full lane


# --------------------------------------------------------------------------- #
# stream generation (pure function of the seed — required for shrinking)
# --------------------------------------------------------------------------- #
def _random_mbr(rng: random.Random) -> Rect:
    x, y = rng.random(), rng.random()
    return Rect(x, y, min(1.0, x + 0.004), min(1.0, y + 0.004))


def make_initial_records(seed: int) -> List[ObjectRecord]:
    rng = random.Random(seed * 5077 + 3)
    return [ObjectRecord(object_id=object_id, mbr=_random_mbr(rng),
                         size_bytes=rng.randint(400, 1600))
            for object_id in range(INITIAL_OBJECTS)]


def generate_events(seed: int,
                    event_count: int = EVENTS_PER_SEQUENCE) -> List[UpdateEvent]:
    """A deterministic update stream.

    The generator tracks its own view of the live id set; shrunken subsets
    stay valid because the updater skips no-op events (deleting or
    modifying an id that is not live).
    """
    rng = random.Random(seed * 4091 + 17)
    live = set(range(INITIAL_OBJECTS))
    next_id = INITIAL_OBJECTS
    events: List[UpdateEvent] = []
    for index in range(event_count):
        kind = rng.choice(("insert", "delete", "modify"))
        if kind != "insert" and len(live) <= 10:
            kind = "insert"
        if kind == "insert":
            object_id = next_id
            next_id += 1
            live.add(object_id)
            event = UpdateEvent(index=index, arrival_time=float(index),
                                kind="insert", object_id=object_id,
                                mbr=_random_mbr(rng),
                                size_bytes=rng.randint(400, 1600))
        else:
            object_id = rng.choice(sorted(live))
            if kind == "delete":
                live.remove(object_id)
                event = UpdateEvent(index=index, arrival_time=float(index),
                                    kind="delete", object_id=object_id)
            else:
                event = UpdateEvent(index=index, arrival_time=float(index),
                                    kind="modify", object_id=object_id,
                                    mbr=_random_mbr(rng),
                                    size_bytes=rng.randint(400, 1600))
        events.append(event)
    return events


def batch_size_for(seed: int) -> int:
    return random.Random(seed * 911 + 5).randint(1, 4)


# --------------------------------------------------------------------------- #
# one sequence: build, commit, crash everywhere sampled, recover
# --------------------------------------------------------------------------- #
_dir_counter = count()


def run_crash_sequence(seed: int, base_dir,
                       events: Optional[List[UpdateEvent]] = None) -> int:
    """Execute one crash-recovery sequence; returns crash points checked."""
    if events is None:
        events = generate_events(seed)
    work = base_dir / f"seq-{next(_dir_counter)}"
    work.mkdir()
    store = str(work / "store.rpro")
    tree = bulk_load_str(make_initial_records(seed),
                         size_model=SizeModel(page_bytes=256))
    save_tree(tree, store)

    live = load_tree(store, writable=True)
    updater = DatasetUpdater(live, ServerQueryProcessor(live))
    states = [oracle_state(live)]
    batch = batch_size_for(seed)
    for start in range(0, len(events), batch):
        updater.apply_batch(events[start:start + batch])
        states.append(oracle_state(live))
    live_order = list(live.objects)
    live.store.close()

    # Crash points: every record boundary and its neighbours, plus a
    # random sample of interior offsets.
    scan = scan_wal(wal_path(store))
    assert scan.tail_state == "clean"
    log_size = scan.file_length
    offsets = {0, HEADER_SIZE, log_size}
    for end in scan.record_ends:
        offsets.update((end - 1, end, end + 1))
    rng = random.Random(seed * 31 + 7)
    for _ in range(SAMPLED_OFFSETS):
        offsets.add(rng.randint(HEADER_SIZE, log_size))
    valid = {0} | set(range(HEADER_SIZE, log_size + 1))
    clones = work / "clones"
    clones.mkdir()
    checked = assert_crash_point_recovery(
        store, states, str(clones), offsets=sorted(offsets & valid))

    # Property (d): full recovery reproduces the exact insertion order.
    recovered = load_tree(store, recover=True)
    try:
        assert list(recovered.objects) == live_order, (
            "recovered object order diverges from the live tree")
    finally:
        recovered.store.close()
    return checked


# --------------------------------------------------------------------------- #
# shrink-on-failure
# --------------------------------------------------------------------------- #
def oracle_state(tree) -> dict:
    """Snapshot of the live object table (monkeypatched by the meta-test)."""
    return dict(tree.objects)


def _fails(seed: int, base_dir, events: List[UpdateEvent]) -> bool:
    try:
        run_crash_sequence(seed, base_dir, events=events)
        return False
    except AssertionError:
        return True


def check_sequence(seed: int, base_dir) -> None:
    """Run one sequence; shrink the event stream and re-raise on failure."""
    events = generate_events(seed)
    try:
        run_crash_sequence(seed, base_dir, events=events)
    except AssertionError as error:
        shrunk = list(events)
        changed = True
        while changed:
            changed = False
            for index in range(len(shrunk)):
                trial = shrunk[:index] + shrunk[index + 1:]
                if trial and _fails(seed, base_dir, trial):
                    shrunk = trial
                    changed = True
                    break
        listing = "\n".join(f"  {event!r}" for event in shrunk)
        raise AssertionError(
            f"seed={seed} batch={batch_size_for(seed)}: {error}"
            f"\nminimal failing update stream ({len(shrunk)} events):\n"
            f"{listing}") from error


# --------------------------------------------------------------------------- #
# the test matrix
# --------------------------------------------------------------------------- #
def test_random_crash_recovery_smoke(tmp_path):
    """Fast lane: a handful of random streams × sampled crash points."""
    for seed in range(SMOKE_SEQUENCES):
        check_sequence(seed, tmp_path)


@pytest.mark.slow
def test_random_crash_recovery_full(tmp_path):
    """Full lane: fifty streams (the acceptance bar)."""
    for seed in range(SMOKE_SEQUENCES, SEQUENCES):
        check_sequence(seed, tmp_path)


def test_crash_shrinker_reports_a_minimal_stream(tmp_path, monkeypatch):
    """Sabotage the oracle; the driver must shrink to one event and say so."""
    import sys
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "oracle_state",
                        lambda tree: {-1: ObjectRecord(
                            object_id=-1, mbr=Rect(0, 0, 1, 1),
                            size_bytes=1)})
    with pytest.raises(AssertionError) as excinfo:
        check_sequence(0, tmp_path)
    message = str(excinfo.value)
    assert "minimal failing update stream" in message
    assert "(1 events)" in message
