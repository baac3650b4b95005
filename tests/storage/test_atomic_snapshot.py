"""Atomic whole-file writes and the snapshot error paths they protect."""

import os

import pytest

from repro.storage import StorageError
from repro.storage.atomic import atomic_write_bytes, atomic_write_text
from repro.storage.snapshot import dumps_state, load_state, save_state


# --------------------------------------------------------------------------- #
# atomic replacement
# --------------------------------------------------------------------------- #
def test_atomic_write_creates_and_replaces(tmp_path):
    path = str(tmp_path / "artefact.bin")
    atomic_write_bytes(path, b"first version")
    with open(path, "rb") as handle:
        assert handle.read() == b"first version"
    atomic_write_text(path, "second version")
    with open(path, "rb") as handle:
        assert handle.read() == "second version".encode("utf-8")
    # No temp siblings survive a successful write.
    assert os.listdir(tmp_path) == ["artefact.bin"]


def test_atomic_write_failure_keeps_old_file_and_no_temp(tmp_path, monkeypatch):
    path = str(tmp_path / "artefact.bin")
    atomic_write_bytes(path, b"survivor")

    def exploding_fsync(fileno):
        raise OSError("disk on fire")

    monkeypatch.setattr("repro.storage.atomic.fsync_handle", exploding_fsync)
    with pytest.raises(OSError, match="disk on fire"):
        atomic_write_bytes(path, b"never lands")
    # The target still holds the previous complete content; the temp
    # sibling was cleaned up rather than left to confuse the next writer.
    with open(path, "rb") as handle:
        assert handle.read() == b"survivor"
    assert os.listdir(tmp_path) == ["artefact.bin"]


# --------------------------------------------------------------------------- #
# state snapshots
# --------------------------------------------------------------------------- #
def _state():
    return {"format": 1, "items": [3, 1, 2], "weights": {"b": 0.1, "a": 2.5}}


def test_state_roundtrip_is_byte_stable(tmp_path):
    path = str(tmp_path / "state.json")
    save_state(_state(), path)
    loaded = load_state(path)
    assert loaded == _state()
    # Order-preserving canonical JSON: save → load → save is byte-stable.
    assert list(loaded["weights"]) == ["b", "a"]
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.read()
    save_state(loaded, path)
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == first
    assert first == dumps_state(_state()) + "\n"


def test_truncated_snapshot_raises_storage_error(tmp_path):
    path = str(tmp_path / "state.json")
    save_state(_state(), path)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    with pytest.raises(StorageError, match="truncated or corrupt"):
        load_state(path)


def test_non_object_snapshot_raises_storage_error(tmp_path):
    path = str(tmp_path / "state.json")
    path_obj = tmp_path / "state.json"
    path_obj.write_text("[1, 2, 3]\n")
    with pytest.raises(StorageError, match="not a JSON object"):
        load_state(path)

