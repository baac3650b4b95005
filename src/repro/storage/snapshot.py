"""State files: canonical JSON for warm restarts.

A mobile client that reconnects after a crash (or an overnight shutdown)
should not start cold: its proactive cache — index-node snapshots, data
objects, EBRS/replacement metadata — is exactly the state the paper's cost
model rewards keeping.  :mod:`repro.sim.restart` embeds every client's
:meth:`repro.sim.sessions.ProactiveSession.state_dict` (a superset of
:meth:`repro.core.cache.ProactiveCache.state_dict`) in one fleet-session
document, and this module writes such documents to canonical JSON files and
reads them back.

The JSON is dumped *without* key sorting: the cache state embeds two
orderings the replacement policies are sensitive to (items insertion order
and leaf-set order), and Python floats round-trip exactly through JSON, so
``save → load → save`` reproduces the file byte for byte — asserted by the
round-trip tests.
"""

from __future__ import annotations

import json

from repro.storage.atomic import atomic_write_text
from repro.storage.backend import StorageError

_CANONICAL = {"sort_keys": False, "separators": (",", ":")}


def dumps_state(state: dict) -> str:
    """Canonical JSON text of a state dict (order-preserving, compact)."""
    return json.dumps(state, **_CANONICAL)


def save_state(state: dict, path: str) -> None:
    """Write any state dict to ``path`` as canonical JSON, atomically.

    The temp + fsync + rename discipline means a crash mid-save can never
    leave a torn snapshot behind: ``path`` holds either the previous
    complete snapshot or the new one.
    """
    atomic_write_text(path, dumps_state(state) + "\n")


def load_state(path: str) -> dict:
    """Read a state dict previously written by :func:`save_state`.

    A file that does not parse as JSON — truncated by an interrupted copy,
    or damaged in place — raises :class:`~repro.storage.backend.
    StorageError` naming the file, rather than a bare decoding error.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        state = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(
            f"{path}: snapshot is truncated or corrupt ({error}); it was "
            f"not written by an atomic save_state") from error
    if not isinstance(state, dict):
        raise StorageError(f"{path}: snapshot is not a JSON object")
    return state

