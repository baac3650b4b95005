"""Byte-count normalisation for the channel's ledger."""

from __future__ import annotations


def as_int_bytes(num_bytes) -> int:
    """Normalise a byte count to a non-negative int.

    Byte counts are integral everywhere in the system (the size model only
    produces ints); an integral float is accepted for backward
    compatibility, anything fractional or negative is a caller bug.
    """
    value = int(num_bytes)
    if value != num_bytes:
        raise ValueError(f"byte count must be integral, got {num_bytes!r}")
    if value < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes!r}")
    return value

