"""Write-ahead log for the paged store: atomic multi-page commits.

Dynamic fleets mutate the R-tree through :class:`~repro.updates.applier.
DatasetUpdater`; with a durable store every applied batch becomes exactly
one append-only *commit record* in a ``.rpro.wal`` sibling file.  The
design follows ZODB's ``FileStorage`` transaction log, reduced to what the
paged store needs:

* **One record per batch.**  A record carries the post-state page image of
  every node page the batch changed (or a tombstone for pages it freed),
  the object-record deltas in operational order, the new root/height, the
  page-id allocation cursor, and the :class:`~repro.updates.registry.
  VersionRegistry` dataset version the batch committed — everything replay
  needs to reconstruct the exact in-memory state.
* **Torn-write-safe framing, one fsync per record.**  Each record is
  length-prefixed, CRC32-checksummed and closed by an 8-byte commit marker;
  the writer writes header, payload and marker, then flushes and fsyncs
  *once*, and only then counts and acknowledges the record.  Until that
  fsync returns the kernel may write the frame's blocks back in any order,
  so a crash leaves either a fully committed record or a final frame that
  is short, or full-length with a payload or marker that does not check.
* **Recovery = replay + truncate.**  :func:`scan_wal` walks the log,
  returning every committed record and classifying the tail: ``clean``
  (ends exactly on a commit marker), ``torn`` (an unfinished record: one
  that runs into end-of-file, or a *final* frame — nothing behind it —
  whose checksum or marker fails; the signature of a crash mid-commit,
  recovery truncates it), or ``corrupt`` (checksum or marker failure with
  even one byte behind it — not a crash artefact, so recovery refuses
  unless forced).  The cost of the single fsync: bit rot confined to the
  *newest* record is dropped as a torn tail instead of refused (the trade
  SQLite's and PostgreSQL's logs make); rot anywhere earlier is detected
  as before.

Byte layout::

    file   := magic "RPROWAL1\\n" <I store_crc> record*
    record := <Q payload_len> <I crc32(payload)> payload marker
    marker := "RWCOMMIT"                               # 8 bytes
    payload:= <Q version> <q root_id> <i height> <q next_page_id>
              <I n_pages> <I n_objects> page* object*
    page   := <q node_id> <B op> [<I len> bytes]       # op 1 = freed
    object := <q object_id> <B op> [<I len> bytes]     # op 1 = deleted

``store_crc`` is the CRC32 of the complete ``.rpro`` checkpoint the log
belongs to.  It closes the one recovery hole framing alone cannot: a crash
in :func:`~repro.storage.paged.pack` *between* atomically publishing the
folded checkpoint and deleting the now-redundant log would otherwise leave
a stale log that replays over pages it no longer describes.  With the
binding, a log whose ``store_crc`` does not match the checkpoint on disk
is recognised as superseded and discarded instead of replayed.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, IO, List, Optional, Tuple

from repro.obs import instrument as obs
from repro.storage.atomic import atomic_write_bytes
from repro.storage.backend import StorageError

MAGIC = b"RPROWAL1\n"
COMMIT_MARKER = b"RWCOMMIT"

_STORE_CRC = struct.Struct("<I")

#: Fixed prefix before the first record: magic plus the checkpoint CRC.
HEADER_SIZE = len(MAGIC) + _STORE_CRC.size

_RECORD_HEADER = struct.Struct("<QI")
_PAYLOAD_HEADER = struct.Struct("<QqiqII")
_ITEM_HEADER = struct.Struct("<qB")
_BLOB_LENGTH = struct.Struct("<I")

_OP_WRITE = 0
_OP_DROP = 1

#: Tail states :func:`scan_wal` can report.
TAIL_CLEAN = "clean"
TAIL_TORN = "torn"
TAIL_CORRUPT = "corrupt"

#: ``(id, blob)`` writes a page / upserts an object; ``(id, None)`` drops it.
Delta = Tuple[int, Optional[bytes]]

Opener = Callable[[str, str], IO[bytes]]


def wal_path(store_path: str) -> str:
    """The write-ahead-log sibling of a ``.rpro`` store file."""
    return store_path + ".wal"


@dataclass(frozen=True)
class WalRecord:
    """One committed batch: page images, object deltas and tree metadata.

    ``pages`` is sorted by node id (writes and frees interleaved — a batch
    never both writes and frees the same page, so the order is immaterial
    to replay but fixed for byte-determinism).  ``objects`` preserves the
    operational order of the batch (a *modify* is a drop followed by an
    upsert) because dict insertion order downstream must match a live run.
    """

    version: int
    root_id: int
    height: int
    next_page_id: int
    pages: Tuple[Delta, ...]
    objects: Tuple[Delta, ...]


def _encode_deltas(deltas: Tuple[Delta, ...]) -> List[bytes]:
    parts: List[bytes] = []
    for item_id, blob in deltas:
        if blob is None:
            parts.append(_ITEM_HEADER.pack(item_id, _OP_DROP))
        else:
            parts.append(_ITEM_HEADER.pack(item_id, _OP_WRITE))
            parts.append(_BLOB_LENGTH.pack(len(blob)))
            parts.append(blob)
    return parts


def encode_record(record: WalRecord) -> bytes:
    """Serialise one commit record's payload (header + CRC not included)."""
    parts = [_PAYLOAD_HEADER.pack(record.version, record.root_id,
                                  record.height, record.next_page_id,
                                  len(record.pages), len(record.objects))]
    parts.extend(_encode_deltas(record.pages))
    parts.extend(_encode_deltas(record.objects))
    return b"".join(parts)


def _decode_deltas(data: bytes, offset: int,
                   count: int) -> Tuple[List[Delta], int]:
    deltas: List[Delta] = []
    for _ in range(count):
        item_id, op = _ITEM_HEADER.unpack_from(data, offset)
        offset += _ITEM_HEADER.size
        if op == _OP_DROP:
            deltas.append((item_id, None))
        elif op == _OP_WRITE:
            (length,) = _BLOB_LENGTH.unpack_from(data, offset)
            offset += _BLOB_LENGTH.size
            if offset + length > len(data):
                raise ValueError("delta blob overruns the record payload")
            deltas.append((item_id, data[offset:offset + length]))
            offset += length
        else:
            raise ValueError(f"unknown delta op {op}")
    return deltas, offset


def decode_record(data: bytes) -> WalRecord:
    """Reconstruct a commit record from its payload bytes."""
    try:
        (version, root_id, height, next_page_id,
         n_pages, n_objects) = _PAYLOAD_HEADER.unpack_from(data, 0)
        pages, offset = _decode_deltas(data, _PAYLOAD_HEADER.size, n_pages)
        objects, offset = _decode_deltas(data, offset, n_objects)
    except struct.error as error:
        raise ValueError(f"malformed WAL record payload ({error})") from error
    if offset != len(data):
        raise ValueError(f"WAL record payload has {len(data) - offset} "
                         f"trailing bytes")
    return WalRecord(version=version, root_id=root_id, height=height,
                     next_page_id=next_page_id, pages=tuple(pages),
                     objects=tuple(objects))


@dataclass
class WalScan:
    """Everything :func:`scan_wal` learned about one log file.

    ``committed_length`` is the byte offset just past the last fully
    committed record — the truncation point recovery restores the file to
    when the tail is ``torn``.
    """

    records: List[WalRecord]
    committed_length: int
    file_length: int
    tail_state: str
    tail_error: Optional[str] = None
    #: Byte offset just past each committed record's commit marker, in log
    #: order — the exact set of offsets a crash can safely rewind to.
    record_ends: List[int] = field(default_factory=list)
    #: CRC32 of the checkpoint this log belongs to (``None`` when the log
    #: header itself is unreadable).
    store_crc: Optional[int] = None

    @property
    def committed_version(self) -> int:
        """Dataset version of the newest committed record (0 when empty)."""
        return self.records[-1].version if self.records else 0

    @property
    def tail_bytes(self) -> int:
        """Bytes past the last commit marker (0 on a clean log)."""
        return self.file_length - self.committed_length


def scan_wal(path: str) -> WalScan:
    """Walk a write-ahead log, collecting committed records.

    Never modifies the file.  A missing or empty log scans as clean and
    empty.  Classification of a bad tail: anything that simply runs out of
    bytes (short header, short payload, short or absent commit marker) is
    ``torn``, and so is a checksum or marker mismatch on the *final* frame
    (``frame_end == len(data)``) — a crash before the record's one fsync
    returned can leave its blocks written back out of order.  The same
    mismatch with anything behind the frame is ``corrupt``: an append only
    starts after the previous record's fsync, so crashes cannot fabricate
    it and recovery demands an explicit force.
    """
    if not os.path.exists(path):
        return WalScan(records=[], committed_length=0, file_length=0,
                       tail_state=TAIL_CLEAN)
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return WalScan(records=[], committed_length=0, file_length=0,
                       tail_state=TAIL_CLEAN)
    if not data.startswith(MAGIC):
        return WalScan(records=[], committed_length=0, file_length=len(data),
                       tail_state=TAIL_CORRUPT,
                       tail_error=f"bad WAL magic {data[:len(MAGIC)]!r}")
    if len(data) < HEADER_SIZE:
        # The header is written atomically at creation, so a short header
        # is damage, not a crash artefact.
        return WalScan(records=[], committed_length=0, file_length=len(data),
                       tail_state=TAIL_CORRUPT,
                       tail_error="truncated WAL header")
    (store_crc,) = _STORE_CRC.unpack_from(data, len(MAGIC))
    records: List[WalRecord] = []
    record_ends: List[int] = []
    offset = HEADER_SIZE
    committed = offset

    def bad_tail(state: str, message: str) -> WalScan:
        return WalScan(records=records, committed_length=committed,
                       file_length=len(data), tail_state=state,
                       tail_error=f"{message} (record at byte {committed})",
                       record_ends=record_ends, store_crc=store_crc)

    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            return bad_tail(TAIL_TORN, "incomplete record header")
        payload_length, crc = _RECORD_HEADER.unpack_from(data, offset)
        payload_start = offset + _RECORD_HEADER.size
        marker_start = payload_start + payload_length
        frame_end = marker_start + len(COMMIT_MARKER)
        if frame_end > len(data):
            return bad_tail(TAIL_TORN, "record runs past end of file")
        unsynced = TAIL_TORN if frame_end == len(data) else TAIL_CORRUPT
        payload = data[payload_start:marker_start]
        if zlib.crc32(payload) != crc:
            return bad_tail(unsynced, "payload checksum mismatch")
        marker = data[marker_start:frame_end]
        if marker != COMMIT_MARKER:
            return bad_tail(unsynced, f"bad commit marker {marker!r}")
        try:
            records.append(decode_record(payload))
        except ValueError as error:
            return bad_tail(TAIL_CORRUPT, str(error))
        offset = frame_end
        committed = offset
        record_ends.append(committed)
    return WalScan(records=records, committed_length=committed,
                   file_length=len(data), tail_state=TAIL_CLEAN,
                   record_ends=record_ends, store_crc=store_crc)


def wal_header(store_crc: int) -> bytes:
    """The fixed file prefix binding a log to one checkpoint."""
    return MAGIC + _STORE_CRC.pack(store_crc)


def reset_wal(path: str, store_crc: int) -> None:
    """(Re)initialise a log to an empty one bound to ``store_crc``."""
    atomic_write_bytes(path, wal_header(store_crc))


def truncate_to(path: str, committed_length: int) -> int:
    """Cut a log back to its last committed byte; returns bytes dropped."""
    if committed_length < HEADER_SIZE:
        raise ValueError(f"cannot truncate a WAL below its {HEADER_SIZE}-"
                         f"byte header (got {committed_length})")
    size = os.path.getsize(path)
    if size <= committed_length:
        return 0
    # In-place truncation of the torn tail: the bytes before the target
    # offset are exactly the committed prefix, so no rewrite is needed.
    with open(path, "r+b") as handle:  # repro: allow[DUR01]
        handle.truncate(committed_length)
        handle.flush()
        os.fsync(handle.fileno())
    return size - committed_length


def repair_wal(path: str, force: bool = False) -> WalScan:
    """Truncate a bad WAL tail so the log reopens cleanly.

    Torn tails (crash artefacts) are always dropped; corrupt tails — which
    imply bytes were damaged in place, so data past the damage may be lost
    — require ``force``.  A log whose header itself is unreadable can only
    be repaired by deleting it, which likewise requires ``force``.
    Returns the scan describing what was kept.
    """
    scan = scan_wal(path)
    if scan.tail_state == TAIL_CORRUPT and not force:
        raise StorageError(
            f"{path}: corrupt WAL tail ({scan.tail_error}); records past "
            f"byte {scan.committed_length} would be lost — pass force to "
            f"truncate anyway")
    if scan.committed_length < HEADER_SIZE:
        if scan.file_length and os.path.exists(path):
            os.remove(path)
        return scan
    if scan.tail_bytes and os.path.exists(path):
        truncate_to(path, scan.committed_length)
    return scan


class WalWriter:
    """Appends commit records with the fsync discipline recovery relies on.

    Header, payload and commit marker are written, then flushed and fsync'd
    *once*; :meth:`append` counts and acknowledges the record only after
    that fsync returned, so an acknowledged record is complete on disk and
    only the final, unacknowledged frame can ever be damaged by a crash.
    An append that raises part-way poisons the writer — nothing may be
    written behind a partial frame — until the store is recovered.
    ``opener`` exists for the fault-injection harness
    (:mod:`repro.storage.faults`), which substitutes a file wrapper that
    dies mid-write.
    """

    def __init__(self, path: str, store_crc: int,
                 opener: Optional[Opener] = None) -> None:
        self.path = path
        self.store_crc = store_crc
        open_file: Opener = opener if opener is not None else open
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            reset_wal(path, store_crc)
        else:
            with open(path, "rb") as handle:
                prefix = handle.read(HEADER_SIZE)
            if prefix != wal_header(store_crc):
                raise StorageError(
                    f"{path} is not the WAL of this checkpoint (header "
                    f"mismatch); recover or pack the store first")
        # Append-only handle: the WAL is the one artefact that grows in
        # place; its torn-tail recovery replaces rename-atomicity.
        self._handle: Optional[IO[bytes]] = open_file(path, "ab")
        self._refusal = "WAL writer is closed"
        self.records_written = 0
        self.bytes_written = 0

    def _open_handle(self) -> IO[bytes]:
        if self._handle is None:
            raise StorageError(f"{self.path}: {self._refusal}")
        return self._handle

    def tell(self) -> int:
        """Current end-of-log byte offset."""
        return self._open_handle().tell()

    def append(self, record: WalRecord) -> int:
        """Durably append one commit record; returns the new log length.

        One fsync per record, and no acknowledgement before it: the counters
        move and the call returns only once the whole frame is on disk.  Any
        exception on the way leaves an unacknowledged, possibly partial
        frame at the tail (recovery keeps it if whole, truncates it if not)
        and closes the writer for good.
        """
        handle = self._open_handle()
        payload = encode_record(record)
        try:
            handle.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
            handle.write(payload)
            handle.write(COMMIT_MARKER)
            handle.flush()
            os.fsync(handle.fileno())
            end = handle.tell()
        except BaseException:
            self._refusal = ("an append failed part-way and may have left a "
                             "partial record; recover the store before "
                             "writing to it again")
            try:
                self.close()
            except OSError:
                pass  # the buffered rest failed again; the handle is gone
            raise
        frame = _RECORD_HEADER.size + len(payload) + len(COMMIT_MARKER)
        self.records_written += 1
        self.bytes_written += frame
        if obs.ENABLED:
            obs.active().event("wal.append", record_bytes=frame,
                               version=record.version)
        return end

    def close(self) -> None:
        """Close the log handle; further appends raise."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()
