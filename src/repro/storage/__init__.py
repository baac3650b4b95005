"""Pluggable persistence: disk-backed R-tree pages and warm-restart state.

The paper's cost model counts page accesses; this package makes those pages
(optionally) real.  It contains:

* :mod:`repro.storage.backend` — the :class:`StorageBackend` contract every
  node store satisfies, plus the storage error types;
* :mod:`repro.storage.memory` — the in-memory backend (the default; the
  classic :class:`~repro.rtree.tree.PageStore` registered under the
  contract);
* :mod:`repro.storage.paged` — ``save_tree`` / ``load_tree`` and the
  :class:`PagedFileBackend` whose page reads are actual file reads through
  an LRU page buffer; writable stores commit through the WAL and ``pack``
  folds the log back into a fresh checkpoint;
* :mod:`repro.storage.wal` — the append-only write-ahead log: CRC-framed
  commit records, one fsync per record, and torn-tail-safe recovery;
* :mod:`repro.storage.atomic` — crash-safe whole-file replacement (temp +
  fsync + rename), the required write path for every non-WAL artefact;
* :mod:`repro.storage.snapshot` — canonical-JSON state files, which carry
  the warm-restart fleet sessions of :mod:`repro.sim.restart`.

The file backend is decision-identical to the in-memory one: query results
and per-query visited-page counts match exactly (asserted by the storage
equivalence tests), only the physical I/O — reported via
:meth:`StorageBackend.io_stats` — differs.
"""

from repro.storage.atomic import atomic_write_bytes, atomic_write_text
from repro.storage.backend import ReadOnlyStorageError, StorageBackend, StorageError
from repro.storage.memory import MemoryBackend
from repro.storage.paged import (
    DEFAULT_BUFFER_PAGES,
    PagedFileBackend,
    file_crc32,
    load_tree,
    pack,
    read_header,
    save_tree,
    wal_summary,
)
from repro.storage.snapshot import load_state, save_state
from repro.storage.wal import (
    WalRecord,
    WalScan,
    WalWriter,
    repair_wal,
    scan_wal,
    wal_path,
)

__all__ = [
    "DEFAULT_BUFFER_PAGES",
    "MemoryBackend",
    "PagedFileBackend",
    "ReadOnlyStorageError",
    "StorageBackend",
    "StorageError",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "atomic_write_bytes",
    "atomic_write_text",
    "file_crc32",
    "load_state",
    "load_tree",
    "pack",
    "read_header",
    "repair_wal",
    "save_state",
    "save_tree",
    "scan_wal",
    "wal_path",
    "wal_summary",
]
