"""v1 → segment store migration (the ``repro store migrate`` backend).

The legacy v1 layout — zlib-JSON ``<source>/<day>/<column>.col`` files
behind a list-shaped ``manifest.json`` with per-file CRC-32s — can no
longer be written anywhere in the tree; this module keeps the only
*reader*. Migration streams each v1 partition through that reader
straight into a generation-0 segment of a **new** target directory,
optionally compacting the result into multi-day runs. A source that is
already a segment store is rewritten partition by partition the same
way.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.store.errors import StorageError
from repro.store.manifest import (
    MANIFEST_NAME,
    load_manifest_payload,
    manifest_format,
)
from repro.store.store import Columns, SegmentStore

#: One migrated partition: ``(source, day, column lists)``.
_Partition = Tuple[str, int, Columns]
_Skipped = List[Tuple[str, int, str]]


@dataclass
class MigrationReport:
    """What a store migration did."""

    partitions: int
    rows: int
    source_bytes: int
    target_bytes: int
    segments: int
    skipped: List[Tuple[str, int, str]] = field(default_factory=list)


def directory_bytes(directory: str) -> int:
    """Total file bytes under *directory* (the honest on-disk size)."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# -- the legacy v1 reader ------------------------------------------------------


def _decode_column(blob: bytes) -> List[Any]:
    """Decode one v1 column file: a deflated dictionary+RLE JSON head."""
    payload = json.loads(zlib.decompress(blob))
    dictionary = [json.loads(key) for key in payload["dict"]]
    values: List[Any] = []
    for index, count in payload["runs"]:
        values.extend([dictionary[index]] * count)
    return values


def _load_v1_partition(directory: str, entry: Dict[str, Any]) -> Columns:
    """Read and verify one v1 manifest entry's column files."""
    partition_dir = os.path.join(
        directory, str(entry["source"]), str(entry["day"])
    )
    checksums = entry.get("checksums", {})
    rows = entry.get("rows")
    columns: Columns = {}
    for column in entry["columns"]:
        path = os.path.join(partition_dir, f"{column}.col")
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise StorageError(
                f"missing segment file {path}: {exc}"
            ) from exc
        expected = checksums.get(column)
        if expected is not None and zlib.crc32(blob) != expected:
            raise StorageError(f"checksum mismatch in {path}")
        try:
            values = _decode_column(blob)
        except (zlib.error, ValueError, KeyError, IndexError,
                TypeError) as exc:
            raise StorageError(
                f"cannot decode segment {path}: {exc}"
            ) from exc
        if rows is not None and len(values) != rows:
            raise StorageError(
                f"row count mismatch in {path}: {len(values)} != {rows}"
            )
        columns[column] = values
    return columns


def _load_v1(
    directory: str, manifest: List[Any], on_error: str, skipped: _Skipped
) -> Iterator[_Partition]:
    for entry in manifest:
        source, day = str(entry["source"]), int(entry["day"])
        try:
            columns = _load_v1_partition(directory, entry)
        except StorageError as exc:
            if on_error == "raise":
                raise
            skipped.append((source, day, str(exc)))
            continue
        yield source, day, columns


def _load_segments(
    directory: str, on_error: str, skipped: _Skipped
) -> Iterator[_Partition]:
    with SegmentStore(directory, on_error=on_error) as store:
        for source, day in store.partitions():
            columns = store.columns(source, day)
            if columns is not None:
                yield source, day, columns
        skipped.extend(store.skipped_partitions)


# -- migration -----------------------------------------------------------------


def migrate_store(
    source_dir: str,
    target_dir: str,
    on_error: str = "raise",
    compact_fanout: Optional[int] = None,
) -> MigrationReport:
    """Convert the store at *source_dir* into segments at *target_dir*.

    *target_dir* must not hold a store already (appending to one would
    double-count every partition both hold). With ``on_error="skip"``
    damaged source partitions are dropped (and reported) instead of
    failing the migration; a strict migration that fails leaves the
    partitions landed so far, so rerun it into a fresh directory.
    *compact_fanout*, when given, runs tiered compaction on the result
    so a long day-per-file history lands as a few multi-day runs.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    if os.path.exists(os.path.join(target_dir, MANIFEST_NAME)):
        raise StorageError(
            f"{target_dir} already holds a store; migrate into a new "
            f"directory"
        )
    payload = load_manifest_payload(source_dir)
    skipped: _Skipped = []
    if manifest_format(payload) == 1:
        loaded = _load_v1(source_dir, payload, on_error, skipped)
    else:
        loaded = _load_segments(source_dir, on_error, skipped)
    partitions = 0
    rows = 0
    target = SegmentStore(target_dir, create=True)
    try:
        for source, day, columns in loaded:
            target.append_columns(source, day, columns)
            partitions += 1
            rows += len(columns["domain"])
        if compact_fanout is not None:
            target.compact(fanout=compact_fanout)
        return MigrationReport(
            partitions=partitions,
            rows=rows,
            source_bytes=directory_bytes(source_dir),
            target_bytes=directory_bytes(target_dir),
            segments=len(target.manifest.segments),
            skipped=skipped,
        )
    finally:
        target.close()
