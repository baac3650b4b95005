"""Tests for the write-ahead log: codec, writer, scanner, recovery, pack."""

import os
import random

import pytest

from repro.core.server import ServerQueryProcessor
from repro.geometry import Rect
from repro.rtree import SizeModel, assert_tree_valid, bulk_load_str
from repro.storage import StorageError
from repro.storage.paged import (
    PagedFileBackend,
    file_crc32,
    load_tree,
    pack,
    save_tree,
    wal_summary,
)
from repro.storage.wal import (
    COMMIT_MARKER,
    HEADER_SIZE,
    WalRecord,
    WalWriter,
    decode_record,
    encode_record,
    repair_wal,
    reset_wal,
    scan_wal,
    truncate_to,
    wal_header,
    wal_path,
)
from repro.updates import DatasetUpdater
from repro.updates.stream import UpdateEvent

from tests.conftest import make_records


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _sample_record(version=1, pages=None, objects=None):
    return WalRecord(version=version, root_id=7, height=2, next_page_id=41,
                     pages=pages if pages is not None else
                     ((3, b"page-three"), (9, None), (12, b"")),
                     objects=objects if objects is not None else
                     ((100, b"object-blob"), (100, None), (101, b"x" * 300)))


def _durable_store(tmp_path, count=120, page_bytes=256):
    """A checkpointed store reopened writable, with updater wiring."""
    records = make_records(count, seed=33)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=page_bytes))
    path = str(tmp_path / "store.rpro")
    save_tree(tree, path)
    live = load_tree(path, writable=True)
    server = ServerQueryProcessor(live)
    updater = DatasetUpdater(live, server)
    return path, live, updater


def _events(count, start_index=0, id_base=1000, seed=77):
    rng = random.Random(seed)
    events = []
    for offset in range(count):
        index = start_index + offset
        kind = ("insert", "delete", "modify")[offset % 3]
        if kind == "insert":
            object_id = id_base + offset
        else:
            object_id = rng.randrange(0, 120)
        mbr = size = None
        if kind in ("insert", "modify"):
            x, y = rng.random(), rng.random()
            mbr = Rect(x, y, min(1.0, x + 0.004), min(1.0, y + 0.004))
            size = 400 + offset
        events.append(UpdateEvent(index=index, arrival_time=float(index),
                                  kind=kind, object_id=object_id,
                                  mbr=mbr, size_bytes=size))
    return events


def _object_state(tree):
    return {object_id: (record.size_bytes, record.mbr)
            for object_id, record in tree.objects.items()}


# --------------------------------------------------------------------------- #
# record codec
# --------------------------------------------------------------------------- #
def test_record_roundtrip_preserves_everything():
    record = _sample_record()
    assert decode_record(encode_record(record)) == record


def test_record_roundtrip_handles_empty_and_order():
    empty = WalRecord(version=0, root_id=-1, height=0, next_page_id=0,
                      pages=(), objects=())
    assert decode_record(encode_record(empty)) == empty
    # Operational object order (drop then upsert of the same id) survives.
    record = _sample_record(objects=((5, None), (5, b"after"), (6, None)))
    assert decode_record(encode_record(record)).objects == \
        ((5, None), (5, b"after"), (6, None))


def test_decode_rejects_trailing_and_truncated_payloads():
    payload = encode_record(_sample_record())
    with pytest.raises(ValueError, match="trailing"):
        decode_record(payload + b"x")
    with pytest.raises(ValueError):
        decode_record(payload[:-1])


# --------------------------------------------------------------------------- #
# writer + scanner
# --------------------------------------------------------------------------- #
def test_writer_appends_scannable_records(tmp_path):
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=123)
    first = _sample_record(version=1)
    second = _sample_record(version=2, pages=((1, b"p"),), objects=())
    writer.append(first)
    end = writer.append(second)
    writer.close()
    assert os.path.getsize(log) == end
    scan = scan_wal(log)
    assert scan.tail_state == "clean"
    assert scan.records == [first, second]
    assert scan.committed_version == 2
    assert scan.store_crc == 123
    assert scan.record_ends[-1] == end
    assert scan.tail_bytes == 0


def test_writer_refuses_foreign_log(tmp_path):
    log = str(tmp_path / "log.wal")
    WalWriter(log, store_crc=1).close()
    with pytest.raises(StorageError, match="header mismatch"):
        WalWriter(log, store_crc=2)


def _three_record_log(tmp_path, name="log.wal"):
    """A clean log of versions 1..3: ``(path, bytes, clean scan)``."""
    log = str(tmp_path / name)
    writer = WalWriter(log, store_crc=9)
    for version in (1, 2, 3):
        writer.append(_sample_record(version=version))
    writer.close()
    with open(log, "rb") as handle:
        data = handle.read()
    return log, data, scan_wal(log)


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def test_scan_classifies_torn_vs_corrupt(tmp_path):
    log, data, clean = _three_record_log(tmp_path)
    full = len(data)

    # Every proper prefix that is not a record boundary scans as torn
    # with exactly the already-committed records intact.
    for cut in (full - 1, full - len(COMMIT_MARKER),
                clean.record_ends[0] + 3, HEADER_SIZE + 1):
        scan = scan_wal(_write(str(tmp_path / "torn.wal"), data[:cut]))
        assert scan.tail_state == "torn", cut
        expected = sum(1 for end in clean.record_ends if end <= cut)
        assert len(scan.records) == expected
        assert scan.committed_length == ([HEADER_SIZE]
                                         + clean.record_ends)[expected]

    # In-place damage on a frame with a committed record behind it is
    # corrupt, not torn: that frame's fsync had returned before the next
    # append began, so no crash can have produced it.
    from tests.storage.faults import corrupt_byte
    bad_log = _write(str(tmp_path / "bad.wal"), data)
    corrupt_byte(bad_log, clean.record_ends[0] + 30)
    scan = scan_wal(bad_log)
    assert scan.tail_state == "corrupt"
    assert len(scan.records) == 1  # the first record survives

    # Bad magic and short headers are corrupt too.
    corrupt_byte(bad_log, 0)
    assert scan_wal(bad_log).tail_state == "corrupt"
    with open(str(tmp_path / "short.wal"), "wb") as handle:
        handle.write(wal_header(9)[:HEADER_SIZE - 2])
    assert scan_wal(str(tmp_path / "short.wal")).tail_state == "corrupt"


def test_scan_classifies_final_frame_damage_as_torn(tmp_path):
    """The twin: the same byte damage in the *final* frame is a torn tail."""
    from tests.storage.faults import corrupt_byte
    log, data, clean = _three_record_log(tmp_path)
    corrupt_byte(log, clean.record_ends[1] + 30)
    scan = scan_wal(log)
    assert scan.tail_state == "torn"
    assert "checksum" in scan.tail_error
    assert scan.records == clean.records[:2]
    assert scan.committed_length == clean.record_ends[1]
    # One byte behind the very same frame and it is corrupt again.
    with open(log, "ab") as handle:
        handle.write(b"\x00")
    assert scan_wal(log).tail_state == "corrupt"


_RECORD_HEADER_BYTES = 12  # <Q payload_len> <I crc32>


def _final_frame(data, clean):
    """``(payload_start, marker_start)`` of the last record of a clean log."""
    start = clean.record_ends[-2]
    return start + _RECORD_HEADER_BYTES, len(data) - len(COMMIT_MARKER)


@pytest.mark.parametrize("damage", ["zeroed_payload_block", "garbled_payload",
                                    "garbled_marker"])
def test_what_one_fsync_can_leave_is_a_torn_tail(tmp_path, damage):
    """Full-length final frames a crash before the single fsync can leave.

    With the payload and the marker in one fsync the kernel may have
    written the marker's block back and not the payload's, or the other
    way round; two fsyncs could leave neither file.
    """
    log, data, clean = _three_record_log(tmp_path)
    payload_start, marker_start = _final_frame(data, clean)
    damaged = bytearray(data)
    if damage == "zeroed_payload_block":
        damaged[payload_start:marker_start] = bytes(marker_start - payload_start)
    elif damage == "garbled_payload":
        damaged[payload_start + 5] ^= 0x10
    else:
        damaged[marker_start + 3] ^= 0x10
    assert len(damaged) == len(data)
    _write(log, bytes(damaged))

    scan = scan_wal(log)
    assert scan.tail_state == "torn"
    assert scan.records == clean.records[:2]
    assert scan.committed_version == 2
    repaired = repair_wal(log)  # no force needed
    assert repaired.records == clean.records[:2]
    assert os.path.getsize(log) == clean.record_ends[1]
    assert scan_wal(log).tail_state == "clean"


def test_zeroed_final_header_stays_corrupt(tmp_path):
    """The one exotic crash file that must *not* become torn.

    A zeroed record header reads as an empty frame (length 0, and the CRC32
    of nothing is 0) whose marker is wrong and which has the real payload's
    bytes behind it — refused, the safe direction, as before the one-fsync
    rule.
    """
    log, data, clean = _three_record_log(tmp_path)
    start = clean.record_ends[-2]
    _write(log, data[:start] + bytes(_RECORD_HEADER_BYTES)
           + data[start + _RECORD_HEADER_BYTES:])
    scan = scan_wal(log)
    assert scan.tail_state == "corrupt"
    assert "marker" in scan.tail_error
    assert scan.records == clean.records[:2]
    with pytest.raises(StorageError, match="force"):
        repair_wal(log)


def test_append_fsyncs_once_and_counts_nothing_when_it_raises(tmp_path, monkeypatch):
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=3)
    real_fsync, synced = os.fsync, []
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1])
    for version in (1, 2, 3):
        before = len(synced)
        end = writer.append(_sample_record(version=version))
        assert len(synced) == before + 1
        assert writer.records_written == version
        assert writer.bytes_written == end - HEADER_SIZE

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")

    counted = (writer.records_written, writer.bytes_written)
    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        writer.append(_sample_record(version=4))
    assert (writer.records_written, writer.bytes_written) == counted


def test_scan_missing_and_empty_logs_are_clean(tmp_path):
    missing = scan_wal(str(tmp_path / "nope.wal"))
    assert (missing.tail_state, missing.records) == ("clean", [])
    empty = str(tmp_path / "empty.wal")
    open(empty, "wb").close()
    assert scan_wal(empty).tail_state == "clean"


def test_repair_wal_truncates_torn_requires_force_for_corrupt(tmp_path):
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=4)
    first_end = writer.append(_sample_record(version=1))
    writer.append(_sample_record(version=2))
    writer.close()
    committed = os.path.getsize(log)
    with open(log, "ab") as handle:
        handle.write(b"\x01\x02\x03")
    scan = repair_wal(log)
    assert os.path.getsize(log) == committed
    assert len(scan.records) == 2

    from tests.storage.faults import corrupt_byte
    # Inside the first record's commit marker: version 2 sits behind it and
    # would be lost, so the truncation has to be forced.
    corrupt_byte(log, first_end - 2)
    with pytest.raises(StorageError, match="force"):
        repair_wal(log)
    repair_wal(log, force=True)
    assert os.path.getsize(log) == HEADER_SIZE

    # Unreadable header: repair (forced) removes the file entirely.
    corrupt_byte(log, 1)
    with pytest.raises(StorageError):
        repair_wal(log)
    repair_wal(log, force=True)
    assert not os.path.exists(log)


def test_repair_wal_drops_a_damaged_final_marker_without_force(tmp_path):
    """The twin: the same marker damage in the final frame is a torn tail."""
    from tests.storage.faults import corrupt_byte
    log = str(tmp_path / "log.wal")
    writer = WalWriter(log, store_crc=4)
    first = _sample_record(version=1)
    first_end = writer.append(first)
    last_end = writer.append(_sample_record(version=2))
    writer.close()
    corrupt_byte(log, last_end - 2)  # inside the final commit marker
    assert scan_wal(log).tail_state == "torn"
    scan = repair_wal(log)
    assert scan.records == [first] and scan.committed_version == 1
    assert os.path.getsize(log) == first_end
    assert scan_wal(log).tail_state == "clean"
    # The repaired log takes appends again.
    writer = WalWriter(log, store_crc=4)
    writer.append(_sample_record(version=2))
    writer.close()
    assert [r.version for r in scan_wal(log).records] == [1, 2]


def test_truncate_to_guards_the_header(tmp_path):
    log = str(tmp_path / "log.wal")
    reset_wal(log, 1)
    with pytest.raises(ValueError, match="header"):
        truncate_to(log, HEADER_SIZE - 1)


# --------------------------------------------------------------------------- #
# durable updater commits
# --------------------------------------------------------------------------- #
def test_durable_updater_commits_one_record_per_batch(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    events = _events(30)
    for start in range(0, 30, 5):
        updater.apply_batch(events[start:start + 5])
    log_scan = scan_wal(wal_path(path))
    assert log_scan.tail_state == "clean"
    assert len(log_scan.records) == updater.wal_commits == 6
    assert log_scan.committed_version == updater.registry.dataset_version
    assert updater.summary()["wal_commits"] == 6
    summary = wal_summary(path)
    assert summary["records"] == 6
    assert summary["wal_bytes"] > HEADER_SIZE
    live.store.close()


def test_recovery_reproduces_live_state_exactly(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    for start in range(0, 36, 4):
        updater.apply_batch(_events(36)[start:start + 4])
    expected_state = _object_state(live)
    expected_order = list(live.objects)
    expected_root, expected_height = live.root_id, live.height
    live.store.close()

    recovered = load_tree(path, recover=True)
    try:
        assert _object_state(recovered) == expected_state
        # Replay preserves dict insertion order, not just content.
        assert list(recovered.objects) == expected_order
        assert (recovered.root_id, recovered.height) == \
            (expected_root, expected_height)
        assert_tree_valid(recovered)
    finally:
        recovered.store.close()


def test_nonrecovering_load_refuses_a_live_wal(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    updater.apply_batch(_events(4))
    live.store.close()
    with pytest.raises(StorageError, match="recover"):
        load_tree(path)
    # Explicit recovery (or writable mode, which implies it) still works.
    tree = load_tree(path, recover=True)
    tree.store.close()


def test_stale_wal_is_ignored(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    updater.apply_batch(_events(6))
    live.store.close()
    # Simulate pack crashing after publishing the folded checkpoint but
    # before deleting the log: re-checkpoint over the store, keep the log.
    recovered = load_tree(path, recover=True)
    log = wal_path(path)
    with open(log, "rb") as handle:
        stale_log = handle.read()
    try:
        save_tree(recovered, path)
    finally:
        recovered.store.close()
    with open(log, "wb") as handle:
        handle.write(stale_log)
    assert wal_summary(path)["stale"] is True
    # A plain (non-recover) load no longer trips over the superseded log,
    # and an opened-writable store starts a fresh log for the new CRC.
    tree = load_tree(path, writable=True)
    try:
        assert scan_wal(log).store_crc == file_crc32(path)
        assert scan_wal(log).records == []
    finally:
        tree.store.close()


def test_pack_folds_wal_and_reclaims_dead_pages(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    for start in range(0, 24, 6):
        updater.apply_batch(_events(24)[start:start + 6])
    expected_state = _object_state(live)
    version = updater.registry.dataset_version
    live.store.close()

    before = wal_summary(path)
    assert before["dead_pages"] > 0
    info = pack(path)
    assert info["records_folded"] == before["records"] == 4
    assert info["committed_version"] == version
    assert info["dead_pages_reclaimed"] == before["dead_pages"]
    assert not os.path.exists(wal_path(path))

    packed = load_tree(path)
    try:
        assert _object_state(packed) == expected_state
        # Pack writes the canonical checkpoint form: sorted object order,
        # exactly like a fresh save_tree of the same content.
        assert list(packed.objects) == sorted(packed.objects)
        assert_tree_valid(packed)
    finally:
        packed.store.close()
    after = wal_summary(path)
    assert after["wal_present"] is False
    assert after["dead_pages"] == 0


def test_pack_refuses_corrupt_wal(tmp_path):
    from tests.storage.faults import corrupt_byte
    path, live, updater = _durable_store(tmp_path)
    updater.apply_batch(_events(5))
    updater.apply_batch(_events(5, start_index=5, id_base=2000, seed=78))
    live.store.close()
    # Inside the first record, with the second committed behind it.
    corrupt_byte(wal_path(path), HEADER_SIZE + 20)
    with pytest.raises(StorageError, match="corrupt"):
        pack(path)
    with pytest.raises(StorageError, match="corrupt"):
        load_tree(path, recover=True)


def test_pack_folds_up_to_a_damaged_final_record(tmp_path):
    """The twin: damage in the final record is a torn tail pack recovers past."""
    from tests.storage.faults import corrupt_byte
    path, live, updater = _durable_store(tmp_path)
    updater.apply_batch(_events(5))
    expected_state = _object_state(live)
    version = updater.registry.dataset_version
    updater.apply_batch(_events(5, start_index=5, id_base=2000, seed=78))
    live.store.close()
    log = wal_path(path)
    corrupt_byte(log, scan_wal(log).record_ends[0] + 20)
    assert wal_summary(path)["tail_state"] == "torn"

    info = pack(path)
    assert info["records_folded"] == 1
    assert info["committed_version"] == version
    assert not os.path.exists(log)
    packed = load_tree(path)
    try:
        assert _object_state(packed) == expected_state
        assert_tree_valid(packed)
    finally:
        packed.store.close()


def test_wal_summary_reports_torn_tails_without_mutating(tmp_path):
    path, live, updater = _durable_store(tmp_path)
    for start in range(0, 8, 4):
        updater.apply_batch(_events(8)[start:start + 4])
    live.store.close()
    log = wal_path(path)
    size = os.path.getsize(log)
    with open(log, "r+b") as handle:
        handle.truncate(size - 5)
    summary = wal_summary(path)
    assert summary["tail_state"] == "torn"
    assert summary["tail_bytes"] > 0
    assert summary["records"] == 1
    # The scan-only summary must not repair the file.
    assert os.path.getsize(log) == size - 5


def test_writable_backend_requires_wal_for_commit(tmp_path):
    records = make_records(40, seed=3)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    path = str(tmp_path / "plain.rpro")
    save_tree(tree, path)
    cow = load_tree(path, copy_on_write=True)
    try:
        assert isinstance(cow.store, PagedFileBackend)
        assert cow.store.wal is None
        with pytest.raises(StorageError, match="write-ahead log"):
            cow.store.commit_record(_sample_record())
    finally:
        cow.store.close()
