"""The paged file backend: R-tree nodes and objects, one per disk page.

``save_tree`` checkpoints an in-memory tree into a single ``.rpro`` file;
``load_tree`` reconstructs the tree around a :class:`PagedFileBackend` whose
page reads are actual ``seek`` + ``read`` calls against that file, filtered
through an LRU page buffer.  This makes the paper's page-access cost model
*physical*: a remainder query resumed over a cold buffer performs one file
read per visited page, while the logical ``reads`` counter stays identical
to the in-memory backend by construction (same traversal, same counter
semantics), so all visited-page accounting is backend-invariant.

Design notes (in the spirit of ZODB's FileStorage, minus the history):

* **Checkpoint, then read-only.**  Trees are built / mutated in memory and
  saved; a loaded tree is frozen (``allocate`` / ``free`` raise
  :class:`~repro.storage.backend.ReadOnlyStorageError`).  This sidesteps the
  aliasing hazards of write-back caching of mutable nodes and matches every
  workload in this repo: bulk-load once, serve queries forever.
* **One record per page.**  The slot size is the smallest multiple of 64
  bytes that fits the largest encoded node (at least ``size_model.page_bytes``),
  mirroring "an R-tree node is a page".  Object records get pages of the
  same stride in a second region; they are decoded eagerly at load time
  because every layer addresses ``tree.objects`` as a dict (payloads are
  synthetic byte *counts*, so this costs ~50 bytes per object, not 10 KB).
* **Deterministic layout.**  Pages are laid out in sorted-id order and the
  JSON header is dumped canonically, so ``save → load → save`` reproduces
  the file byte for byte — asserted by the round-trip tests.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rtree.entry import ObjectRecord
from repro.rtree.node import Node
from repro.rtree.serialize import (
    decode_node,
    decode_object,
    encode_node,
    encode_object,
    encoded_object_size,
)
from repro.rtree.sizes import SizeModel
from repro.rtree.tree import RTree
from repro.storage.atomic import atomic_write_bytes
from repro.storage.backend import ReadOnlyStorageError, StorageBackend, StorageError
from repro.storage.wal import (
    HEADER_SIZE as WAL_HEADER_SIZE,
    MAGIC as WAL_MAGIC,
    TAIL_CORRUPT,
    WalRecord,
    WalScan,
    WalWriter,
    scan_wal,
    truncate_to,
    wal_path,
)

MAGIC = b"RPROSTOR1\n"

#: Default number of decoded node pages the LRU buffer holds.
DEFAULT_BUFFER_PAGES = 64


def _slot_size(sizes: Iterable[int], minimum: int) -> int:
    """The page stride: smallest multiple of 64 covering every record."""
    largest = max(list(sizes) or [0])
    needed = max(largest, minimum, 64)
    return (needed + 63) // 64 * 64


def _size_model_dict(size_model: SizeModel) -> Dict[str, int]:
    return {
        "page_bytes": size_model.page_bytes,
        "coordinate_bytes": size_model.coordinate_bytes,
        "pointer_bytes": size_model.pointer_bytes,
        "query_header_bytes": size_model.query_header_bytes,
        "object_id_bytes": size_model.object_id_bytes,
    }


def save_tree(tree: RTree, path: str, meta: Optional[Dict] = None) -> Dict:
    """Checkpoint ``tree`` into the single-file page store at ``path``.

    Returns the header dict that was written.  ``meta`` is free-form caller
    metadata (the CLI stores the generating dataset configuration) returned
    verbatim by :func:`read_header`.  Re-saving a tree that is itself backed
    by a :class:`PagedFileBackend` carries the original meta over unless a
    new one is given, so save → load → save is byte-stable.
    """
    if meta is None and isinstance(tree.store, PagedFileBackend):
        meta = tree.store.header.get("meta")
    node_ids = sorted(tree.store.node_ids())
    encoded_nodes = [encode_node(tree.store.peek(node_id)) for node_id in node_ids]
    object_ids = sorted(tree.objects)
    page_size = _slot_size((len(blob) for blob in encoded_nodes),
                           max(tree.size_model.page_bytes, encoded_object_size()))
    header = {
        "format": 1,
        "kind": "rtree-page-store",
        "page_size": page_size,
        "root_id": tree.root_id,
        "height": tree.height,
        "node_count": len(node_ids),
        "object_count": len(object_ids),
        "node_ids": node_ids,
        "object_ids": object_ids,
        "size_model": _size_model_dict(tree.size_model),
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "meta": dict(meta or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(len(header_bytes).to_bytes(8, "little"))
    body.write(header_bytes)
    for blob in encoded_nodes:
        body.write(blob.ljust(page_size, b"\0"))
    for object_id in object_ids:
        body.write(encode_object(tree.objects[object_id]).ljust(page_size, b"\0"))
    atomic_write_bytes(path, body.getvalue())
    # A checkpoint supersedes any write-ahead log next to the old file:
    # every committed batch is folded into the new pages, and replaying a
    # stale log over them would corrupt the store.
    log = wal_path(path)
    if os.path.exists(log):
        os.remove(log)
    return header


def _read_header_raw(path: str) -> Tuple[Dict, int]:
    """Read the JSON header; returns ``(header, data_start_offset)``."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise StorageError(f"{path} is not an rpro page store "
                               f"(bad magic {magic!r})")
        header_len = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(header_len).decode("utf-8"))
    if header.get("format") != 1 or header.get("kind") != "rtree-page-store":
        raise StorageError(f"{path}: unsupported format {header.get('format')!r} "
                           f"/ kind {header.get('kind')!r}")
    return header, len(MAGIC) + 8 + header_len


def read_header(path: str) -> Dict:
    """Read and validate the JSON header of a ``.rpro`` file."""
    return _read_header_raw(path)[0]


class PagedFileBackend(StorageBackend):
    """:class:`StorageBackend` over a ``.rpro`` page file.

    By default the backend is frozen (checkpoint-then-read-only).  With
    ``copy_on_write=True`` the file stays untouched but the backend accepts
    structural mutation: pages fetched through :meth:`edit` (and every page
    created by :meth:`allocate`) live in an in-memory *overlay* that shadows
    the file, and :meth:`free` records tombstones.  That is what lets the
    dynamic-dataset subsystem (:mod:`repro.updates`) mutate a tree served
    from disk without rewriting the checkpoint; re-checkpoint with
    :func:`save_tree` to make the mutations durable.

    Parameters
    ----------
    path:
        File written by :func:`save_tree`.
    buffer_pages:
        Capacity of the LRU buffer of decoded node pages.  ``0`` disables
        buffering entirely (every logical read is a file read).
    copy_on_write:
        Accept mutations through an in-memory page overlay (see above).
    """

    def __init__(self, path: str, buffer_pages: int = DEFAULT_BUFFER_PAGES,
                 copy_on_write: bool = False) -> None:
        if buffer_pages < 0:
            raise ValueError("buffer_pages must be >= 0")
        self.path = path
        self.buffer_pages = buffer_pages
        #: RTree consults this before mutating; COW backends accept writes.
        self.writable = copy_on_write
        self.header, data_start = _read_header_raw(path)
        self._page_size: int = self.header["page_size"]
        self._node_offsets: Dict[int, int] = {
            node_id: data_start + slot * self._page_size
            for slot, node_id in enumerate(self.header["node_ids"])}
        self._object_region_start = data_start + len(self._node_offsets) * self._page_size
        self._handle: Optional[io.BufferedReader] = open(path, "rb")
        self._buffer: "OrderedDict[int, Node]" = OrderedDict()
        # Copy-on-write state: pinned mutable pages, freed file pages and
        # the id counter for freshly allocated pages.
        self._overlay: Dict[int, Node] = {}
        self._freed: Set[int] = set()
        self._next_id = (max(self._node_offsets) + 1) if self._node_offsets else 1
        #: Attached write-ahead log; commits flow through :meth:`commit_record`.
        self.wal: Optional[WalWriter] = None
        self.reads = 0
        self.writes = 0
        self.file_reads = 0
        self.file_writes = 0
        self.buffer_hits = 0

    # ------------------------------------------------------------------ #
    # StorageBackend contract
    # ------------------------------------------------------------------ #
    def allocate(self, level: int) -> Node:
        """Create a fresh overlay page (copy-on-write mode only)."""
        if not self.writable:
            raise ReadOnlyStorageError(
                "the paged file backend is read-only; reopen it with "
                "copy_on_write=True or checkpoint a new file with "
                "repro.storage.paged.save_tree")
        node = Node(node_id=self._next_id, level=level)
        self._next_id += 1
        self._overlay[node.node_id] = node
        self.writes += 1
        return node

    def free(self, node_id: int) -> None:
        """Drop a page (copy-on-write mode only); file pages get tombstones."""
        if not self.writable:
            raise ReadOnlyStorageError(
                "the paged file backend is read-only; reopen it with "
                "copy_on_write=True or checkpoint a new file with "
                "repro.storage.paged.save_tree")
        if node_id not in self:
            raise KeyError(node_id)
        self._overlay.pop(node_id, None)
        self._buffer.pop(node_id, None)
        if node_id in self._node_offsets:
            self._freed.add(node_id)

    def get(self, node_id: int) -> Node:
        """Fetch a node; one logical read, physically served buffer-first."""
        self.reads += 1
        return self._fetch(node_id)

    def peek(self, node_id: int) -> Node:
        """Fetch a node without counting a logical read."""
        return self._fetch(node_id)

    def edit(self, node_id: int) -> Node:
        """Fetch a node for mutation, pinning it into the page overlay.

        The pinned object shadows the file page for every later fetch, so
        in-place mutations can never be lost to LRU-buffer eviction.
        """
        if not self.writable:
            raise ReadOnlyStorageError(
                "the paged file backend is read-only; reopen it with "
                "copy_on_write=True to mutate its pages")
        node = self._overlay.get(node_id)
        if node is not None:
            return node
        node = self._fetch(node_id)
        self._buffer.pop(node_id, None)
        self._overlay[node_id] = node
        return node

    def __contains__(self, node_id: int) -> bool:
        if node_id in self._overlay:
            return True
        return node_id in self._node_offsets and node_id not in self._freed

    def __len__(self) -> int:
        return len(self.node_ids())

    def node_ids(self) -> List[int]:
        """All live page ids: file slot order, then overlay allocations."""
        ids = [node_id for node_id in self._node_offsets
               if node_id not in self._freed]
        ids.extend(sorted(node_id for node_id in self._overlay
                          if node_id not in self._node_offsets))
        return ids

    def io_stats(self) -> Dict[str, int]:
        """Physical counters: file reads, WAL commit writes, buffer hits."""
        return {"file_reads": self.file_reads, "file_writes": self.file_writes,
                "buffer_hits": self.buffer_hits}

    def reset_io_stats(self) -> None:
        """Zero the physical counters; done after bulk startup scans so
        :meth:`io_stats` reflects query-driven I/O only."""
        self.file_reads = 0
        self.file_writes = 0
        self.buffer_hits = 0

    def flush(self) -> None:
        """No-op: commits are already fsync'd record by record."""

    def close(self) -> None:
        """Close the file handle (and any WAL); further reads will fail."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------ #
    # durability: the write-ahead log
    # ------------------------------------------------------------------ #
    @property
    def next_page_id(self) -> int:
        """The id the next :meth:`allocate` will hand out."""
        return self._next_id

    def attach_wal(self, writer: WalWriter) -> None:
        """Bind an open WAL writer; later commits append to it."""
        self.wal = writer

    def commit_record(self, record: WalRecord) -> None:
        """Durably append one commit record: one WAL frame, one fsync,
        counted only once the fsync returned."""
        if self.wal is None:
            raise StorageError(f"{self.path}: no write-ahead log attached; "
                               f"open the store with writable=True")
        self.wal.append(record)
        self.file_writes += 1

    def apply_wal_record(self, record: WalRecord) -> None:
        """Replay one committed record's page images into the overlay.

        Replay is tolerant where :meth:`free` is strict (a freed page that
        was never materialised is simply absent) because records describe
        *post-state*: installing them must succeed on any prefix of the
        same log.  Object deltas are applied by :func:`load_tree`, which
        owns the object dict.
        """
        for node_id, blob in record.pages:
            if blob is None:
                self._overlay.pop(node_id, None)
                self._buffer.pop(node_id, None)
                if node_id in self._node_offsets:
                    self._freed.add(node_id)
            else:
                node = decode_node(blob)
                self._freed.discard(node_id)
                self._buffer.pop(node_id, None)
                self._overlay[node_id] = node
        self._next_id = max(self._next_id, record.next_page_id)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _fetch(self, node_id: int) -> Node:
        node = self._overlay.get(node_id)
        if node is not None:
            # Pinned mutable page: served without file I/O, like a buffer hit.
            self.buffer_hits += 1
            return node
        if node_id in self._freed:
            raise KeyError(node_id)
        node = self._buffer.get(node_id)
        if node is not None:
            self.buffer_hits += 1
            self._buffer.move_to_end(node_id)
            return node
        node = self._decode_page(node_id)
        if self.buffer_pages:
            self._buffer[node_id] = node
            while len(self._buffer) > self.buffer_pages:
                self._buffer.popitem(last=False)
        return node

    def _decode_page(self, node_id: int) -> Node:
        """Read and decode one node page, mapping corruption to StorageError."""
        try:
            node = decode_node(self._read_page(self._node_offsets[node_id]))
        except (ValueError, struct.error) as error:
            raise StorageError(
                f"{self.path}: node page {node_id} is corrupt or truncated "
                f"({error})")
        if node.node_id != node_id:
            raise StorageError(
                f"{self.path}: node page slot for id {node_id} holds id "
                f"{node.node_id}")
        return node

    def _read_page(self, offset: int) -> bytes:
        if self._handle is None:
            raise StorageError(f"{self.path}: backend is closed")
        self.file_reads += 1
        self._handle.seek(offset)
        return self._handle.read(self._page_size)

    def load_objects(self) -> Dict[int, ObjectRecord]:
        """Decode the object-record region into an id-keyed dict."""
        objects: Dict[int, ObjectRecord] = {}
        for slot, object_id in enumerate(self.header["object_ids"]):
            try:
                record = decode_object(self._read_page(
                    self._object_region_start + slot * self._page_size))
            except (ValueError, struct.error) as error:
                raise StorageError(
                    f"{self.path}: object page {object_id} is corrupt or "
                    f"truncated ({error})")
            if record.object_id != object_id:
                raise StorageError(
                    f"{self.path}: object slot {slot} holds id "
                    f"{record.object_id}, directory says {object_id}")
            objects[record.object_id] = record
        return objects


def file_crc32(path: str) -> int:
    """CRC32 of a whole file — the checkpoint identity WALs are bound to."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _live_wal_scan(path: str, store_crc: int) -> Optional[WalScan]:
    """Scan the store's WAL, discarding logs a later checkpoint superseded.

    Returns ``None`` when there is no log or the log belongs to an older
    checkpoint (a :func:`pack` interrupted between publishing the folded
    file and deleting the log — every record is already folded in, so the
    log is redundant, not lost).  Corrupt tails raise: silently replaying
    a prefix of a damaged log could resurrect an old version.
    """
    log = wal_path(path)
    if not os.path.exists(log):
        return None
    scan = scan_wal(log)
    if scan.store_crc is not None and scan.store_crc != store_crc:
        return None
    if scan.tail_state == TAIL_CORRUPT:
        raise StorageError(
            f"{log}: corrupt write-ahead log ({scan.tail_error}); run "
            f"`repro persist recover --force` to truncate it to the last "
            f"committed record")
    return scan


def load_tree(path: str, buffer_pages: int = DEFAULT_BUFFER_PAGES,
              copy_on_write: bool = False, writable: bool = False,
              recover: bool = False) -> RTree:
    """Reconstruct the R-tree saved at ``path`` over a paged file backend.

    Node pages are fetched lazily through the backend's LRU buffer; object
    records are decoded eagerly (see the module docstring).  By default the
    returned tree is read-only: structural mutations raise
    :class:`~repro.storage.backend.ReadOnlyStorageError`.  Three opt-ins
    relax that:

    * ``copy_on_write=True`` — accept mutations in a throwaway in-memory
      overlay; the file and its WAL (if any) stay untouched.
    * ``recover=True`` — replay the committed records of the store's
      write-ahead log into the overlay and truncate any torn tail, opening
      the tree at its newest committed version.
    * ``writable=True`` — the durable mode (implies both of the above):
      after recovery a :class:`~repro.storage.wal.WalWriter` is attached,
      so :class:`~repro.updates.applier.DatasetUpdater` batches commit
      durably.

    A store whose WAL holds committed records refuses a plain (non-
    recovering) load: serving the stale checkpoint while committed batches
    sit in the log would silently roll back acknowledged writes.
    """
    if writable:
        copy_on_write = True
        recover = True
    log = wal_path(path)
    scan: Optional[WalScan] = None
    store_crc: Optional[int] = None
    if recover:
        store_crc = file_crc32(path)
        scan = _live_wal_scan(path, store_crc)
        if scan is None and os.path.exists(log):
            # A log bound to an older checkpoint (pack interrupted between
            # publishing the folded file and deleting the log): every
            # record is already folded in, so discard it here rather than
            # tripping the writer's header check below.
            os.remove(log)
    elif os.path.exists(log) and os.path.getsize(log) > WAL_HEADER_SIZE:
        live = _read_wal_store_crc(log)
        if live is None or live == file_crc32(path):
            raise StorageError(
                f"{path} has a write-ahead log with committed records; "
                f"load it with recover=True (or writable=True), or fold "
                f"the log with pack()")
    backend = PagedFileBackend(path, buffer_pages=buffer_pages,
                               copy_on_write=copy_on_write)
    header = backend.header
    root_id: int = header["root_id"]
    height: int = header["height"]
    objects = backend.load_objects()
    if scan is not None:
        for record in scan.records:
            backend.apply_wal_record(record)
            for object_id, blob in record.objects:
                # Pop-then-set mirrors the live delete/insert sequence, so
                # dict insertion order — which downstream consumers see —
                # matches an uninterrupted run exactly.
                objects.pop(object_id, None)
                if blob is not None:
                    objects[object_id] = decode_object(blob)
        if scan.records:
            root_id = scan.records[-1].root_id
            height = scan.records[-1].height
        if scan.tail_bytes:
            truncate_to(log, scan.committed_length)
    size_model = SizeModel(**header["size_model"])
    tree = RTree.from_storage(
        store=backend, objects=objects,
        root_id=root_id, height=height,
        size_model=size_model, max_entries=header["max_entries"],
        min_entries=header["min_entries"])
    if writable:
        assert store_crc is not None
        backend.attach_wal(WalWriter(log, store_crc))
    # The eager object decode above is startup I/O, not query I/O: start
    # the physical counters from zero so io_stats() measures the workload.
    backend.reset_io_stats()
    return tree


def _read_wal_store_crc(log: str) -> Optional[int]:
    """The checkpoint CRC a log claims to belong to (``None`` if unreadable)."""
    with open(log, "rb") as handle:
        prefix = handle.read(WAL_HEADER_SIZE)
    if len(prefix) < WAL_HEADER_SIZE or not prefix.startswith(WAL_MAGIC):
        return None
    return int.from_bytes(prefix[len(WAL_MAGIC):], "little")


def pack(path: str, buffer_pages: int = DEFAULT_BUFFER_PAGES) -> Dict:
    """Fold the WAL into a fresh checkpoint, reclaiming dead pages.

    Recovers the store to its newest committed version, rewrites ``path``
    atomically with only the live pages (freed and shadowed file slots are
    dropped; overlay pages become file pages), and deletes the log.  A
    crash at any point leaves either the old checkpoint + log or the new
    checkpoint (with, at worst, a superseded log that the next open
    discards).  Returns a summary dict.
    """
    before = wal_summary(path)
    if before["tail_state"] == TAIL_CORRUPT:
        raise StorageError(
            f"{wal_path(path)}: corrupt write-ahead log; run `repro "
            f"persist recover --force` before packing")
    tree = load_tree(path, buffer_pages=buffer_pages, recover=True)
    try:
        header = save_tree(tree, path)
    finally:
        tree.store.close()
    return {
        "records_folded": before["records"],
        "wal_bytes": before["wal_bytes"],
        "committed_version": before["committed_version"],
        "dead_pages_reclaimed": before["dead_pages"],
        "pages_before": before["file_pages"],
        "pages_after": header["node_count"],
        "objects": header["object_count"],
    }


def wal_summary(path: str) -> Dict:
    """WAL facts for one store: length, committed version, dead pages.

    ``dead_pages`` counts the file page slots whose on-disk bytes are
    obsolete — freed by a committed batch, or shadowed by a newer image in
    the log — i.e. exactly what :func:`pack` reclaims.  Never modifies
    either file.
    """
    header = read_header(path)
    log = wal_path(path)
    file_ids = set(header["node_ids"])
    summary: Dict = {
        "wal_present": os.path.exists(log),
        "wal_bytes": 0,
        "records": 0,
        "committed_version": 0,
        "tail_state": "clean",
        "tail_bytes": 0,
        "tail_error": None,
        "stale": False,
        "dead_pages": 0,
        "file_pages": len(file_ids),
        "live_pages": len(file_ids),
    }
    if not summary["wal_present"]:
        return summary
    scan = scan_wal(log)
    summary["wal_bytes"] = scan.file_length
    summary["tail_state"] = scan.tail_state
    summary["tail_bytes"] = scan.tail_bytes
    summary["tail_error"] = scan.tail_error
    if scan.store_crc is not None and scan.store_crc != file_crc32(path):
        summary["stale"] = True
        return summary
    summary["records"] = len(scan.records)
    summary["committed_version"] = scan.committed_version
    freed: Set[int] = set()
    shadowed: Set[int] = set()
    overlay_live: Set[int] = set()
    for record in scan.records:
        for node_id, blob in record.pages:
            if blob is None:
                freed.add(node_id)
                overlay_live.discard(node_id)
            elif node_id in file_ids:
                shadowed.add(node_id)
            else:
                overlay_live.add(node_id)
    summary["dead_pages"] = len(file_ids & (freed | shadowed))
    summary["live_pages"] = len(file_ids - freed) + len(overlay_live)
    return summary
