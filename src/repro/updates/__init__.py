"""The dynamic-dataset subsystem: server-side updates + cache consistency.

The paper assumes a static object set; a production deployment churns —
POIs open and close, prices change, objects move.  This package adds that
churn and the machinery that keeps proactive client caches honest about it:

* :mod:`repro.updates.stream` — seed-deterministic update streams
  (insert / delete / modify with Zipf-skewed hot objects) interleaved with
  query traffic by the fleet's arrival-time machinery;
* :mod:`repro.updates.registry` — version stamps for every live node page
  and object record, bumped whenever server-side content changes;
* :mod:`repro.updates.applier` — the :class:`Updater` seam and
  :class:`DatasetUpdater`, which applies
  update events to the live R-tree (R*-style insert / delete, in memory or
  through the paged backend's copy-on-write overlay), detects exactly which
  pages changed, bumps their versions and invalidates the server's derived
  state (partition trees, memoised ground truth);
* :mod:`repro.updates.protocol` — the client-side cache-consistency
  protocols: version-stamped lazy validation (``versioned``), a TTL
  baseline (``ttl``) and the no-op staleness baseline (``none``), all
  billing their wire traffic through the byte-accurate cost model;
* :mod:`repro.updates.validation` — the validation-service abstraction the
  versioned protocol talks to: the in-process implementation answers from
  the live updater, the networked one (:mod:`repro.net`) ships the same
  stamps over a socket and decodes the same verdicts;
* :mod:`repro.updates.oracle` — naive linear-scan query oracles over the
  current object set, the reference the property-based differential
  harness compares every cached answer against.
"""

from repro.updates.applier import DatasetUpdater, Updater
from repro.updates.oracle import oracle_results
from repro.updates.protocol import (
    CacheSyncReport,
    ConsistencyProtocol,
    TTLProtocol,
    VersionedProtocol,
    make_protocol,
)
from repro.updates.registry import VersionRegistry
from repro.updates.validation import (
    LocalValidationService,
    ValidationService,
    ValidationStamp,
    ValidationVerdict,
)
from repro.updates.stream import (
    CONSISTENCY_MODES,
    UpdateEvent,
    UpdateStreamConfig,
    generate_update_stream,
)

__all__ = [
    "CONSISTENCY_MODES",
    "CacheSyncReport",
    "ConsistencyProtocol",
    "DatasetUpdater",
    "LocalValidationService",
    "TTLProtocol",
    "UpdateEvent",
    "UpdateStreamConfig",
    "Updater",
    "ValidationService",
    "ValidationStamp",
    "ValidationVerdict",
    "VersionRegistry",
    "VersionedProtocol",
    "generate_update_stream",
    "make_protocol",
    "oracle_results",
]
