"""The versioned binary segment format and its mmap reader.

One segment file holds one or more *fragments*, each stored as
per-column dictionary pages (:mod:`repro.store.codecs`):

.. code-block:: text

    header     <4sHHII>   magic "RSG2", version, flags,
                          partition count, directory length
    directory  per fragment:
                 <H> source length, source bytes (utf-8),
                 <I> day, [<I> end: versions 3 and 4], <I> rows,
                 <H> columns,
                 per column:
                   <H> name length, name bytes (utf-8),
                   <B> cell kind, <B> codec id,
                   <Q> page offset, <Q> page length, <I> page CRC-32
    pages      the column pages, back to back
    footer     <IQ4s>     directory CRC-32, total file length,
                          magic "2GSR"

A fragment covers the days ``[day, end)``; version 2 (a full daily
append) has no ``end``: ``end = day + 1``. Compaction writes version 3
for *run fragments* (``docs/STORAGE.md``, "Run fragments"). An append
writes version 4 for a *delta fragment* ("Delta fragments"): a one-day
fragment whose stored ``end`` is the day of its base, below its own
day — the delta marker — and which holds an ``ended`` column beside
the nine.

All integers are little-endian. Page offsets are absolute file
offsets, so a reader can map the file and slice any column's bytes
zero-copy without touching the others — the directory (parsed once at
open) plus the footer checks are the only eagerly-read bytes, and
partition pruning at the manifest level means cold segments are never
opened at all.

Writing is two jobs: *encode* (:func:`encode_partition` — a column's
dictionary page into ``(kind, codec, page bytes)``) and *layout*
(:func:`layout_segment` — encoded pages into the bytes above), so a
page that is already encoded (:meth:`SegmentReader.stored_page`) is
laid out again without being rebuilt. The bytes go through a synced
temporary sibling file and ``os.replace`` so a crash never leaves a
half-written segment behind; any malformed byte on the read side
raises :class:`~repro.store.errors.StorageError`.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.store import codecs
from repro.store.codecs import COLUMN_KINDS, SPAN_KINDS, Entry, Page, _Cursor
from repro.store.codecs import ENDED
from repro.store.errors import StorageError

MAGIC = b"RSG2"
FOOTER_MAGIC = b"2GSR"
VERSION = 2
#: The version of a segment holding at least one run fragment.
RUN_VERSION = 3
#: The version of a segment holding at least one delta fragment.
DELTA_VERSION = 4
#: The on-disk extension of segment files.
SEGMENT_SUFFIX = ".rseg"

_HEADER = struct.Struct("<4sHHII")
_FOOTER = struct.Struct("<IQ4s")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: One partition's input shape for :func:`build_segment`.
PartitionColumns = Mapping[str, Sequence[Any]]

#: One encoded column page: ``(cell kind, codec id, page bytes)``.
EncodedPage = Tuple[int, int, bytes]

#: One fragment between *encode* and *layout*: ``(source, day, end,
#: rows, encoded page per column)``; a delta's ``end`` is its base day.
EncodedPartition = Tuple[str, int, int, int, Mapping[str, EncodedPage]]


@dataclass(frozen=True)
class ColumnRef:
    """Directory entry for one column page."""

    name: str
    kind: int
    codec: int
    offset: int
    length: int
    crc: int


@dataclass
class PartitionRef:
    """Directory entry for one fragment: rows of ``[day, end)``; a
    delta's rows differ from the fragment of its *base* day."""

    source: str
    day: int
    end: int
    rows: int
    columns: Dict[str, ColumnRef] = field(default_factory=dict)
    base: Optional[int] = None

    @property
    def page_bytes(self) -> int:
        """The partition's column page bytes (its share of the file)."""
        return sum(ref.length for ref in self.columns.values())


def _column_kind(name: str) -> int:
    if name == ENDED:
        return codecs.KIND_STR
    kind = COLUMN_KINDS.get(name, SPAN_KINDS.get(name))
    if kind is None:
        raise StorageError(f"unknown column {name!r}")
    return kind


def encode_partition(
    source: str, day: int, pages: Mapping[str, Page]
) -> EncodedPartition:
    """The *encode* half of writing: one partition's columns, each as a
    ``(dictionary entries, row indexes)`` page, into encoded pages."""
    names = sorted(pages)
    rows = next(
        (len(pages[name][1]) for name in names if name != ENDED), 0
    )
    encoded: Dict[str, EncodedPage] = {}
    for name in names:
        entries, indexes = pages[name]
        if name != ENDED and len(indexes) != rows:
            raise StorageError(
                f"ragged partition {source}/{day}: column {name!r} "
                f"has {len(indexes)} rows, expected {rows}"
            )
        kind = _column_kind(name)
        encoded[name] = (kind, *codecs.encode_page(kind, entries, indexes))
    return source, day, day + 1, rows, encoded


def encode_columns(
    source: str, day: int, columns: PartitionColumns
) -> EncodedPartition:
    """:func:`encode_partition` over plain cell lists."""
    return encode_partition(source, day, {
        name: codecs.cell_page(_column_kind(name), columns[name])
        for name in sorted(columns)
    })


def layout_segment(partitions: Sequence[EncodedPartition]) -> bytes:
    """The *layout* half of writing: encoded pages (in the given
    fragment order) into segment bytes — directory, absolute offsets,
    page CRCs, footer; version 2 unless a fragment spans days (3) or
    is a delta (4).

    Column pages are laid out partition-major in sorted column-name
    order; the output is a deterministic function of the input, so two
    stores holding the same partitions produce byte-identical segments.
    """
    version = VERSION
    if any(end <= day for _, day, end, _, _ in partitions):
        version = DELTA_VERSION
    elif any(end != day + 1 for _, day, end, _, _ in partitions):
        version = RUN_VERSION
    directory = bytearray()
    pages: List[bytes] = []
    slots: List[int] = []
    for source, day, end, rows, columns in partitions:
        source_bytes = source.encode("utf-8")
        directory.extend(_U16.pack(len(source_bytes)))
        directory.extend(source_bytes)
        directory.extend(_U32.pack(day))
        if version != VERSION:
            directory.extend(_U32.pack(end))
        directory.extend(_U32.pack(rows))
        directory.extend(_U16.pack(len(columns)))
        for name in sorted(columns):
            kind, codec, page = columns[name]
            name_bytes = name.encode("utf-8")
            directory.extend(_U16.pack(len(name_bytes)))
            directory.extend(name_bytes)
            directory.append(kind)
            directory.append(codec)
            # Offsets are absolute; patched below once the directory
            # length (and so the pages' base offset) is known.
            slots.append(len(directory))
            directory.extend(struct.pack("<QQ", 0, len(page)))
            directory.extend(_U32.pack(zlib.crc32(page)))
            pages.append(page)
    offset = _HEADER.size + len(directory)
    for slot, page in zip(slots, pages):
        struct.pack_into("<Q", directory, slot, offset)
        offset += len(page)
    header = _HEADER.pack(
        MAGIC, version, 0, len(partitions), len(directory)
    )
    footer = _FOOTER.pack(
        zlib.crc32(directory), offset + _FOOTER.size, FOOTER_MAGIC
    )
    return b"".join([header, directory, *pages, footer])


def build_segment(
    partitions: Sequence[Tuple[str, int, PartitionColumns]],
) -> bytes:
    """Serialise cell-list partitions (in the given order) into segment
    bytes: :func:`encode_columns` each, then :func:`layout_segment`."""
    return layout_segment(
        [encode_columns(*partition) for partition in partitions]
    )


def publish_segment(path: str, data: bytes) -> int:
    """Atomically write segment bytes; returns their size. They go to
    a temporary sibling first, are synced, and are renamed into place,
    so readers never observe a torn segment."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return len(data)


def write_segment(
    path: str, partitions: Sequence[Tuple[str, int, PartitionColumns]]
) -> int:
    """Build and atomically write a segment file; returns its size."""
    return publish_segment(path, build_segment(partitions))


def _parse_directory(
    buffer: "memoryview", label: str
) -> List[PartitionRef]:
    try:
        magic, version, _flags, partition_count, dir_length = (
            _HEADER.unpack(buffer[: _HEADER.size])
        )
    except struct.error as exc:
        raise StorageError(f"truncated segment header in {label}") from exc
    if magic != MAGIC:
        raise StorageError(f"bad segment magic in {label}")
    if version not in (VERSION, RUN_VERSION, DELTA_VERSION):
        raise StorageError(
            f"unsupported segment version {version} in {label}"
        )
    total = len(buffer)
    if _HEADER.size + dir_length + _FOOTER.size > total:
        raise StorageError(f"truncated segment directory in {label}")
    try:
        dir_crc, total_length, footer_magic = _FOOTER.unpack(
            buffer[total - _FOOTER.size:]
        )
    except struct.error as exc:
        raise StorageError(f"truncated segment footer in {label}") from exc
    if footer_magic != FOOTER_MAGIC:
        raise StorageError(f"bad footer magic in {label}")
    if total_length != total:
        raise StorageError(
            f"segment length mismatch in {label}: "
            f"{total} on disk, {total_length} recorded"
        )
    directory = bytes(buffer[_HEADER.size:_HEADER.size + dir_length])
    if zlib.crc32(directory) != dir_crc:
        raise StorageError(f"segment directory checksum mismatch in {label}")
    pages_end = total - _FOOTER.size
    cursor = _Cursor(directory)
    partitions: List[PartitionRef] = []
    try:
        for _ in range(partition_count):
            source = cursor.take(
                int(_U16.unpack(cursor.take(2))[0])
            ).decode("utf-8")
            day = cursor.u32()
            end = cursor.u32() if version != VERSION else day + 1
            base = None
            if version == DELTA_VERSION and end <= day:
                base, end = end, day + 1
            if end <= day:
                raise StorageError(f"empty fragment span in {label}")
            rows = cursor.u32()
            column_count = int(_U16.unpack(cursor.take(2))[0])
            partition = PartitionRef(
                source=source, day=day, end=end, rows=rows, base=base
            )
            for _ in range(column_count):
                name = cursor.take(
                    int(_U16.unpack(cursor.take(2))[0])
                ).decode("utf-8")
                kind = cursor.u8()
                codec = cursor.u8()
                offset, length = struct.unpack("<QQ", cursor.take(16))
                crc = cursor.u32()
                if offset < _HEADER.size + dir_length or (
                    offset + length > pages_end
                ):
                    raise StorageError(
                        f"column page out of bounds in {label}"
                    )
                partition.columns[name] = ColumnRef(
                    name=name, kind=kind, codec=codec,
                    offset=offset, length=length, crc=crc,
                )
            partitions.append(partition)
        if not cursor.done():
            raise StorageError(f"trailing directory bytes in {label}")
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise StorageError(f"corrupt segment directory in {label}") from exc
    return partitions


class SegmentReader:
    """A parsed segment: directory in memory, pages read zero-copy.

    Opening maps the file with :mod:`mmap` and verifies only the
    header, footer, and directory checksum; column pages are sliced
    (and CRC-checked) lazily, per read, straight out of the mapping.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            self._file: Optional[Any] = open(path, "rb")
            self._mmap: Optional[mmap.mmap] = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (OSError, ValueError) as exc:
            if getattr(self, "_file", None) is not None:
                self._file.close()  # type: ignore[union-attr]
            raise StorageError(
                f"cannot open segment {path}: {exc}"
            ) from exc
        self._buffer: Optional[memoryview] = memoryview(self._mmap)
        try:
            self.partitions = _parse_directory(self._buffer, path)
        except StorageError:
            self.close()
            raise
        self.file_size = len(self._buffer) if self._buffer is not None else 0

    @classmethod
    def from_bytes(
        cls, data: Union[bytes, bytearray], label: str = "<memory>"
    ) -> "SegmentReader":
        """A reader over in-memory segment bytes (no file, no mmap)."""
        reader = cls.__new__(cls)
        reader.path = label
        reader._file = None
        reader._mmap = None
        reader._buffer = memoryview(bytes(data))
        reader.partitions = _parse_directory(reader._buffer, label)
        reader.file_size = len(reader._buffer)
        return reader

    # -- page access --------------------------------------------------------

    def _view(self, ref: ColumnRef) -> memoryview:
        """One column's stored bytes, still in the mapping: the caller
        releases the view before returning (see :meth:`_page`)."""
        if self._buffer is None:
            raise StorageError(f"segment {self.path} is closed")
        return self._buffer[ref.offset:ref.offset + ref.length]

    def _page(self, ref: ColumnRef) -> bytes:
        """One column's page body, CRC-checked and inflated if needed.

        The page is sliced out of the mapping as a memoryview —
        checksum and decompression read straight from the page cache —
        and the view is released before returning (even on error), so
        no exported pointer can outlive the reader and pin the map.
        """
        view = self._view(ref)
        try:
            if zlib.crc32(view) != ref.crc:
                raise StorageError(
                    f"page checksum mismatch for column {ref.name!r} "
                    f"in {self.path}"
                )
            if ref.codec & codecs.FLAG_ZLIB:
                try:
                    return zlib.decompress(view)
                except zlib.error as exc:
                    raise StorageError(
                        f"corrupt deflated page for column {ref.name!r} "
                        f"in {self.path}: {exc}"
                    ) from exc
            return bytes(view)
        finally:
            view.release()

    def column_page(
        self, partition: PartitionRef, name: str
    ) -> Tuple[List[Entry], List[int]]:
        """The ``(dictionary entries, row indexes)`` of one column —
        the translate-once shape batch building interns from."""
        ref = partition.columns.get(name)
        if ref is None:
            raise StorageError(
                f"missing column {name!r} for {partition.source}/"
                f"{partition.day} in {self.path}"
            )
        if ref.kind != _column_kind(name):
            raise StorageError(
                f"column {name!r} has cell kind {ref.kind} in {self.path}"
            )
        entries, indexes = codecs.decode_page(
            ref.kind, ref.codec & ~codecs.FLAG_ZLIB, self._page(ref)
        )
        if name != ENDED and len(indexes) != partition.rows:
            raise StorageError(
                f"row count mismatch for column {name!r} in {self.path}: "
                f"{len(indexes)} != {partition.rows}"
            )
        return entries, indexes

    def stored_page(
        self, partition: PartitionRef, name: str
    ) -> EncodedPage:
        """One column's page exactly as stored, for compaction to move
        instead of re-encode — handed out only after everything a read
        verifies (:meth:`column_page`: kind, CRC, inflate, structural
        decode, index range, row count)."""
        self.column_page(partition, name)
        ref = partition.columns[name]
        with self._view(ref) as view:
            return ref.kind, ref.codec, bytes(view)

    def column_cells(self, partition: PartitionRef, name: str) -> List[Any]:
        """One column materialised back to plain cell values."""
        entries, indexes = self.column_page(partition, name)
        return codecs.materialise(
            partition.columns[name].kind, entries, indexes
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._buffer is not None:
            self._buffer.release()
            self._buffer = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # A stray exported view (e.g. held alive by an exception
                # traceback) pins the map; dropping our reference lets
                # the GC unmap it once the view dies.
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
