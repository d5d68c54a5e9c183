"""The storage failure type of every store read path."""

from __future__ import annotations


class StorageError(Exception):
    """A stored partition is missing, truncated, or fails its checksum.

    Every load-path failure surfaces as this type — never a raw
    ``struct.error`` / ``zlib.error`` / ``JSONDecodeError`` / ``OSError``
    leaking encoding internals — so callers can degrade by policy (skip
    the partition, quarantine its scope) instead of dying on a damaged
    segment.
    """
