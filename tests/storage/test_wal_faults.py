"""Fault-injection tests: torn writes, bit rot, and the crash-point matrix."""

import errno
import os
import random

import pytest

from repro.core.server import ServerQueryProcessor
from repro.geometry import Rect
from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.storage import StorageError
from repro.storage.faults import (
    FaultyFile,
    InjectedCrash,
    assert_crash_point_recovery,
    corrupt_byte,
    crash_point_offsets,
    faulty_opener,
)
from repro.storage.paged import load_tree, save_tree
from repro.storage.wal import (
    HEADER_SIZE,
    WalRecord,
    WalWriter,
    repair_wal,
    scan_wal,
    wal_path,
)
from repro.updates import DatasetUpdater
from repro.updates.stream import UpdateEvent

from tests.conftest import make_records


# --------------------------------------------------------------------------- #
# FaultyFile unit behaviour
# --------------------------------------------------------------------------- #
def test_faulty_file_crashes_after_byte_budget(tmp_path):
    path = str(tmp_path / "budget.bin")
    handle = FaultyFile(open(path, "wb"), crash_after_bytes=10)
    assert handle.write(b"123456") == 6
    with pytest.raises(InjectedCrash):
        handle.write(b"789012345")  # would land bytes 7..15
    handle.close()
    # Exactly the budget landed on disk — the prefix a dead process leaves.
    assert os.path.getsize(path) == 10
    with open(path, "rb") as check:
        assert check.read() == b"1234567890"


def test_faulty_file_short_write_cuts_one_op(tmp_path):
    path = str(tmp_path / "short.bin")
    handle = FaultyFile(open(path, "wb"), short_write_at_op=(1, 2))
    handle.write(b"aaaa")
    with pytest.raises(InjectedCrash):
        handle.write(b"bbbb")
    handle.close()
    with open(path, "rb") as check:
        assert check.read() == b"aaaabb"


def test_faulty_file_garbles_in_flight_without_crashing(tmp_path):
    path = str(tmp_path / "garble.bin")
    handle = FaultyFile(open(path, "wb"), garble_at=(5, 0xFF))
    handle.write(b"0123")
    handle.write(b"4567")  # offset 5 is this write's second byte
    handle.close()
    with open(path, "rb") as check:
        data = check.read()
    assert data[:5] == b"01234"
    assert data[5] == ord("5") ^ 0xFF
    assert data[6:] == b"67"


def test_faulty_file_stays_dead_after_crash(tmp_path):
    path = str(tmp_path / "dead.bin")
    handle = FaultyFile(open(path, "wb"), crash_after_bytes=0)
    with pytest.raises(InjectedCrash):
        handle.write(b"x")
    for operation in (lambda: handle.write(b"y"), handle.flush,
                      handle.fileno, handle.tell):
        with pytest.raises(InjectedCrash):
            operation()
    handle.close()  # closing a dead handle is fine (the OS does it too)


# --------------------------------------------------------------------------- #
# WalWriter under injected crashes
# --------------------------------------------------------------------------- #
def _record(version, blob=b"payload-bytes"):
    return WalRecord(version=version, root_id=1, height=1, next_page_id=2,
                     pages=((1, blob),), objects=((version, blob),))


def test_crash_mid_append_leaves_recoverable_torn_tail(tmp_path):
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=5)
    writer.append(_record(1))
    committed = os.path.getsize(log)
    writer.close()

    crasher = WalWriter(log, store_crc=5,
                        opener=faulty_opener(crash_after_bytes=7))
    with pytest.raises(InjectedCrash):
        crasher.append(_record(2))
    crasher.close()
    assert os.path.getsize(log) == committed + 7

    scan = scan_wal(log)
    assert scan.tail_state == "torn"
    assert len(scan.records) == 1
    repair_wal(log)
    assert os.path.getsize(log) == committed
    survivor = WalWriter(log, store_crc=5)
    survivor.append(_record(2))
    survivor.close()
    assert [r.version for r in scan_wal(log).records] == [1, 2]


def test_garbled_append_is_corrupt_not_torn(tmp_path):
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=5,
                       opener=faulty_opener(garble_at=(HEADER_SIZE + 20, 0x40)))
    writer.append(_record(1))  # lands fully, but one payload byte is rotten
    writer.append(_record(2))  # committed behind the rot
    writer.close()
    scan = scan_wal(log)
    assert scan.tail_state == "corrupt"
    assert "checksum" in scan.tail_error
    assert scan.records == []
    with pytest.raises(StorageError, match="force"):
        repair_wal(log)


def test_garbled_final_append_is_a_torn_tail(tmp_path):
    """The twin: rot in the newest record is what an unsynced frame looks like."""
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=5)
    committed = writer.append(_record(1))
    writer.close()
    writer = WalWriter(log, store_crc=5, opener=faulty_opener(
        garble_at=(committed + 20, 0x40)))
    writer.append(_record(2))  # lands fully, one payload byte rotten
    writer.close()
    scan = scan_wal(log)
    assert scan.tail_state == "torn"
    assert "checksum" in scan.tail_error
    assert [r.version for r in scan.records] == [1]
    repair_wal(log)  # no force
    assert os.path.getsize(log) == committed
    assert scan_wal(log).tail_state == "clean"


# --------------------------------------------------------------------------- #
# crash-point matrix over a real durable store
# --------------------------------------------------------------------------- #
def _live_store(tmp_path, batches=4, batch_size=5):
    """A checkpoint reopened writable: ``(path, tree, updater, event batches)``."""
    records = make_records(90, seed=52)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=512))
    path = str(tmp_path / "store.rpro")
    save_tree(tree, path)
    live = load_tree(path, writable=True)
    updater = DatasetUpdater(live, ServerQueryProcessor(live))
    rng = random.Random(13)
    index = 0
    event_batches = []
    for _ in range(batches):
        events = []
        for _ in range(batch_size):
            kind = ("insert", "modify", "delete")[index % 3]
            object_id = 500 + index if kind == "insert" else rng.randrange(90)
            mbr = size = None
            if kind in ("insert", "modify"):
                x, y = rng.random(), rng.random()
                mbr = Rect(x, y, min(1.0, x + 0.01), min(1.0, y + 0.01))
                size = 600 + index
            events.append(UpdateEvent(index=index, arrival_time=float(index),
                                      kind=kind, object_id=object_id,
                                      mbr=mbr, size_bytes=size))
            index += 1
        event_batches.append(events)
    return path, live, updater, event_batches


def _store_with_history(tmp_path, batches=4, batch_size=5):
    """A checkpoint + WAL of ``batches`` commits, with per-batch oracles."""
    path, live, updater, event_batches = _live_store(tmp_path, batches, batch_size)
    states = [dict(live.objects)]
    for events in event_batches:
        updater.apply_batch(events)
        states.append(dict(live.objects))
    live.store.close()
    return path, states


def test_crash_point_matrix_sampled(tmp_path):
    path, states = _store_with_history(tmp_path)
    offsets = crash_point_offsets(path)
    boundaries = {0, HEADER_SIZE, offsets[-1]}
    boundaries.update(scan_wal(wal_path(path)).record_ends)
    # Every record boundary, its neighbours, and a stride sample between.
    sampled = sorted(boundary + delta for boundary in boundaries
                     for delta in (-1, 0, 1)
                     if boundary + delta in set(offsets))
    sampled += [offset for offset in offsets[::17] if offset not in sampled]
    work = tmp_path / "clones"
    work.mkdir()
    checked = assert_crash_point_recovery(path, states, str(work),
                                          offsets=sorted(set(sampled)))
    assert checked >= len(boundaries) * 2


@pytest.mark.slow
def test_crash_point_matrix_exhaustive(tmp_path):
    path, states = _store_with_history(tmp_path)
    work = tmp_path / "clones"
    work.mkdir()
    checked = assert_crash_point_recovery(path, states, str(work))
    log_size = os.path.getsize(wal_path(path))
    # [0] plus every byte length from the header to the full log.
    assert checked == log_size - HEADER_SIZE + 2


def test_matrix_harness_rejects_bad_oracle_counts(tmp_path):
    path, states = _store_with_history(tmp_path, batches=2)
    work = tmp_path / "clones"
    work.mkdir()
    with pytest.raises(ValueError, match="oracle states"):
        assert_crash_point_recovery(path, states[:-1], str(work))


def _state(objects):
    return {k: (r.size_bytes, r.mbr) for k, r in objects.items()}


def test_garbled_wal_refuses_silent_recovery(tmp_path):
    path, states = _store_with_history(tmp_path, batches=3)
    log = wal_path(path)
    # Inside the second record, with the third committed behind it.
    corrupt_byte(log, scan_wal(log).record_ends[0] + 40)
    with pytest.raises(StorageError, match="corrupt"):
        load_tree(path, recover=True)
    # After a forced repair the first batch's state is recovered.
    repair_wal(log, force=True)
    tree = load_tree(path, recover=True)
    try:
        assert _state(tree.objects) == _state(states[1])
        assert_tree_valid(tree)
    finally:
        tree.store.close()


def test_garbled_final_record_recovers_to_the_previous_commit(tmp_path):
    """The twin: the same damage in the final record needs no force."""
    path, states = _store_with_history(tmp_path, batches=2)
    log = wal_path(path)
    first_end = scan_wal(log).record_ends[0]
    corrupt_byte(log, first_end + 40)
    assert scan_wal(log).tail_state == "torn"
    tree = load_tree(path, recover=True)
    try:
        assert _state(tree.objects) == _state(states[1])
        assert_tree_valid(tree)
    finally:
        tree.store.close()
    scan = scan_wal(log)
    assert (scan.tail_state, len(scan.records)) == ("clean", 1)
    assert os.path.getsize(log) == first_end


# --------------------------------------------------------------------------- #
# a failed append poisons the writer
# --------------------------------------------------------------------------- #
class _FailingFile:
    """A file whose ``fail_write``-th write, or whose flush, raises ENOSPC."""

    def __init__(self, handle, fail_write=None, fail_flush=False):
        self._handle = handle
        self._fail_write = fail_write
        self._fail_flush = fail_flush
        self._writes = 0

    def write(self, data):
        index, self._writes = self._writes, self._writes + 1
        if index == self._fail_write:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(data)

    def flush(self):
        if self._fail_flush:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._handle.flush()

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.mark.parametrize("failing", ["header write", "payload write",
                                     "marker write", "flush", "fsync"])
def test_failed_append_poisons_the_writer(tmp_path, monkeypatch, failing):
    """Nothing is ever written — or acknowledged — behind a partial frame.

    At HEAD the writer stayed usable after e.g. a disk-full marker write:
    the next append was acknowledged behind the partial frame, the log then
    scanned ``corrupt ... bad commit marker`` and that acknowledged commit
    was unrecoverable without ``force``.
    """
    path, live, updater, batches = _live_store(tmp_path)
    updater.apply_batch(batches[0])
    acknowledged = dict(live.objects)
    live.store.wal.close()
    writes = ["header write", "payload write", "marker write"]

    def opener(log, mode):
        return _FailingFile(
            open(log, mode),
            fail_write=writes.index(failing) if failing in writes else None,
            fail_flush=failing == "flush")

    writer = WalWriter(wal_path(path), live.store.wal.store_crc, opener=opener)
    live.store.attach_wal(writer)
    if failing == "fsync":
        def no_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")
        monkeypatch.setattr(os, "fsync", no_fsync)
    with pytest.raises(OSError):
        updater.apply_batch(batches[1])
    monkeypatch.undo()
    unacknowledged = dict(live.objects)
    assert (writer.records_written, writer.bytes_written) == (0, 0)

    # The writer refuses from now on, naming the log and the way out.
    for refused in (lambda: updater.apply_batch(batches[2]), writer.tell):
        with pytest.raises(StorageError, match="recover the store") as caught:
            refused()
        assert wal_path(path) in str(caught.value)
    assert (writer.records_written, writer.bytes_written) == (0, 0)
    live.store.close()

    # Where a write failed the frame is absent or partial: a torn tail,
    # dropped, and the store reopens at the last acknowledged version.
    # Where flush or fsync failed every byte had already been handed over
    # and reaches the file when the handle closes: the record is whole, and
    # recovery keeps it as it keeps any commit whose acknowledgement a crash
    # swallowed.
    whole = failing in ("flush", "fsync")
    tail = {"payload write": "torn", "marker write": "torn"}.get(failing, "clean")
    assert scan_wal(wal_path(path)).tail_state == tail
    tree = load_tree(path, recover=True)
    try:
        assert _state(tree.objects) == _state(unacknowledged if whole
                                              else acknowledged)
        assert_tree_valid(tree)
    finally:
        tree.store.close()
    scan = scan_wal(wal_path(path))
    assert (scan.tail_state, len(scan.records)) == ("clean", 2 if whole else 1)
