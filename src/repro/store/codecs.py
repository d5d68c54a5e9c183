"""Per-column page codecs for the segment format.

A column page is a dictionary page in the Parquet spirit: the distinct
cell values (the *dictionary*, in first-seen order) followed by an
*index stream* mapping each row to its dictionary entry. Observation
columns repeat massively — mass hosters share NS sets across millions
of domains, domains repeat them across days — so the dictionary is tiny
relative to the row count and the index stream run-length encodes well.

Four cell kinds cover every column:

========  ==============================  =======================
kind      cell value                      columns
========  ==============================  =======================
STR       ``str``                         domain, tld
STR_LIST  list of ``str``                 ns/cname/address columns
INT_LIST  list of ``int``                 asns
INT       ``int`` (unsigned)              start, end
========  ==============================  =======================

and two index codecs, chosen adaptively per page by encoded size:

* ``CODEC_RAW`` — fixed-width little-endian dictionary indexes, one
  per row (wins when runs are short);
* ``CODEC_DICT_RLE`` — ``(index, run length)`` pairs (wins when
  consecutive rows repeat, e.g. sorted-by-provider partitions).

Either may carry ``FLAG_ZLIB`` in the codec id's high bit, meaning the
whole page body is additionally deflated — the fallback that keeps
pathological pages (e.g. all-distinct long strings) no larger than
zlib over the raw page.

Every malformed-input failure raises
:class:`~repro.store.errors.StorageError`; ``struct.error`` and
``zlib.error`` never escape this module.
"""

from __future__ import annotations

import itertools
import operator
import struct
import zlib
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

from repro.store.errors import StorageError

KIND_STR = 0
KIND_STR_LIST = 1
KIND_INT_LIST = 2
KIND_INT = 3

CODEC_RAW = 0
CODEC_DICT_RLE = 1
#: High bit of the codec id: the page body is zlib-deflated.
FLAG_ZLIB = 0x80

#: The canonical observation columns, in storage order, with cell kinds.
COLUMN_KINDS: Dict[str, int] = {
    "domain": KIND_STR,
    "tld": KIND_STR,
    "ns_names": KIND_STR_LIST,
    "apex_addrs": KIND_STR_LIST,
    "www_cnames": KIND_STR_LIST,
    "www_addrs": KIND_STR_LIST,
    "apex_addrs6": KIND_STR_LIST,
    "www_addrs6": KIND_STR_LIST,
    "asns": KIND_INT_LIST,
}
#: A run fragment's ``[start, end)`` day columns (docs/STORAGE.md).
SPAN_KINDS: Dict[str, int] = {"start": KIND_INT, "end": KIND_INT}
#: A delta fragment's column of base domains that do not hold on its
#: day; its row count is its own (docs/STORAGE.md).
ENDED = "ended"
COLUMN_ORDER: Tuple[str, ...] = (
    "domain",
    "tld",
    "ns_names",
    "apex_addrs",
    "www_cnames",
    "www_addrs",
    "apex_addrs6",
    "www_addrs6",
    "asns",
)

#: A decoded dictionary entry: str, tuple of str, or tuple of int.
Entry = Union[str, Tuple[str, ...], Tuple[int, ...]]

#: One column as ``(distinct entries, per-row index into them)`` — the
#: shape a page decodes to and is encoded from.
Page = Tuple[Sequence[Any], Sequence[int]]

_U32 = struct.Struct("<I")
_WIDTH_FORMATS = {1: "B", 2: "H", 4: "I"}


def _index_width(dict_count: int) -> int:
    if dict_count <= 0xFF:
        return 1
    if dict_count <= 0xFFFF:
        return 2
    return 4


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.append(value)


def _read_varints(data: bytes, count: int) -> List[int]:
    """Decode *count* unsigned LEB128 varints from *data*."""
    values: List[int] = []
    value = 0
    shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 70:
                raise StorageError("varint overlong in int-list page")
        else:
            values.append(value)
            value = 0
            shift = 0
    if shift:
        raise StorageError("truncated varint in int-list page")
    if len(values) != count:
        raise StorageError(
            f"int-list varint count mismatch: {len(values)} != {count}"
        )
    return values


class _Cursor:
    """Bounds-checked sequential reader over a page body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, length: int) -> bytes:
        end = self.pos + length
        if length < 0 or end > len(self.data):
            raise StorageError("truncated column page")
        view = self.data[self.pos:end]
        self.pos = end
        return view

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int(_U32.unpack(self.take(4))[0])

    def array(self, width: int, count: int) -> Tuple[int, ...]:
        """*count* fixed-width little-endian unsigned integers."""
        symbol = _WIDTH_FORMATS.get(width)
        if symbol is None:
            raise StorageError(f"bad integer width {width} in column page")
        raw = self.take(width * count)
        if width == 1:
            return tuple(raw)
        return struct.unpack(f"<{count}{symbol}", raw)

    def done(self) -> bool:
        return self.pos == len(self.data)


def _pack_array(out: bytearray, width: int, values: Sequence[int]) -> None:
    if width == 1:
        out.extend(bytes(values))
    else:
        out.extend(
            struct.pack(f"<{len(values)}{_WIDTH_FORMATS[width]}", *values)
        )


def first_seen(keys: Iterable[Any]) -> Tuple[List[Any], List[int]]:
    """The distinct *keys* in first-seen order plus each row's index
    into them — the one dictionary loop. Keys are whatever is equal
    exactly when the cells are: the cells themselves, ``tuple(cell)``s,
    or (inside one pool) the ids a batch interned them to."""
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    distinct = list(dict.fromkeys(keys))
    positions = dict(zip(distinct, range(len(distinct))))
    return distinct, list(map(positions.__getitem__, keys))


def cell_page(kind: int, cells: Iterable[Any]) -> Page:
    """Plain cell values as a ``(dictionary entries, row indexes)``
    page — the inverse of :func:`materialise`."""
    scalar = kind in (KIND_STR, KIND_INT)
    return first_seen(cells if scalar else map(tuple, cells))


def _encode_string_block(out: bytearray, texts: Sequence[str]) -> None:
    """Cumulative-end offset table plus one concatenated UTF-8 blob."""
    blobs = [text.encode("utf-8", "surrogatepass") for text in texts]
    ends = list(itertools.accumulate(map(len, blobs)))
    out.extend(_U32.pack(ends[-1] if ends else 0))
    out.extend(struct.pack(f"<{len(ends)}I", *ends))
    out.extend(b"".join(blobs))


def _decode_string_block(cursor: _Cursor, count: int) -> List[str]:
    """The block's strings. An all-ASCII blob (byte offsets are then
    character offsets) is decoded once and sliced as ``str``."""
    blob_length = cursor.u32()
    ends = cursor.array(4, count)
    blob = cursor.take(blob_length)
    if not count:
        return []
    if ends[-1] != blob_length:
        raise StorageError("string blob length mismatch in column page")
    starts = (0,) + ends[:-1]
    if any(map(operator.gt, starts, ends)):
        raise StorageError("string offsets not monotonic in column page")
    if blob.isascii():
        text = blob.decode("ascii")
        return [text[start:end] for start, end in zip(starts, ends)]
    return [
        blob[start:end].decode("utf-8", "surrogatepass")
        for start, end in zip(starts, ends)
    ]


def _runs(counts: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of consecutive runs *counts* long."""
    ends = tuple(itertools.accumulate(counts))
    return zip((0,) + ends[:-1], ends)


def _encode_dict_section(out: bytearray, kind: int,
                         entries: Sequence[Entry]) -> None:
    if kind == KIND_STR:
        _encode_string_block(out, entries)  # type: ignore[arg-type]
        return
    if kind == KIND_STR_LIST:
        counts = [len(entry) for entry in entries]
        texts, flattened = first_seen(
            text for entry in entries for text in entry
        )
        out.extend(_U32.pack(len(texts)))
        _encode_string_block(out, texts)
        sid_width = _index_width(len(texts))
        out.append(sid_width)
        out.extend(struct.pack(f"<{len(counts)}I", *counts))
        _pack_array(out, sid_width, flattened)
        return
    if kind == KIND_INT_LIST:
        counts = [len(entry) for entry in entries]
        out.extend(struct.pack(f"<{len(counts)}I", *counts))
        stream = bytearray()
        for entry in entries:
            previous = 0
            first = True
            for value in entry:
                _write_varint(
                    stream,
                    _zigzag(int(value) if first else int(value) - previous),
                )
                previous = int(value)
                first = False
        out.extend(_U32.pack(len(stream)))
        out.extend(stream)
        return
    if kind == KIND_INT:
        stream = bytearray()
        for value in entries:
            _write_varint(stream, int(value))  # type: ignore[arg-type]
        out.extend(_U32.pack(len(stream)))
        out.extend(stream)
        return
    raise StorageError(f"unknown cell kind {kind}")


def _decode_dict_section(cursor: _Cursor, kind: int,
                         dict_count: int) -> List[Entry]:
    if kind == KIND_STR:
        return list(_decode_string_block(cursor, dict_count))
    if kind == KIND_STR_LIST:
        text_count = cursor.u32()
        texts = _decode_string_block(cursor, text_count)
        sid_width = cursor.u8()
        counts = cursor.array(4, dict_count)
        flattened = cursor.array(sid_width, sum(counts))
        if flattened and max(flattened) >= len(texts):
            raise StorageError("string id out of range in column page")
        cells = tuple(map(texts.__getitem__, flattened))
        return [cells[start:end] for start, end in _runs(counts)]
    if kind == KIND_INT_LIST:
        counts = cursor.array(4, dict_count)
        stream_length = cursor.u32()
        stream = cursor.take(stream_length)
        # A cell is its first value followed by deltas, so a running sum
        # over the cell's slice restores it.
        values = list(map(_unzigzag, _read_varints(stream, sum(counts))))
        return [
            tuple(itertools.accumulate(values[start:end]))
            for start, end in _runs(counts)
        ]
    if kind == KIND_INT:
        return list(_read_varints(cursor.take(cursor.u32()), dict_count))
    raise StorageError(f"unknown cell kind {kind}")


def _encode_indexes(
    out: bytearray, indexes: Sequence[int], width: int
) -> int:
    """Append the cheaper index stream; returns the codec id used."""
    run_count = (
        1 + sum(map(operator.ne, indexes, indexes[1:])) if indexes else 0
    )
    rle_size = 4 + run_count * (width + 4)
    raw_size = len(indexes) * width
    if rle_size < raw_size:
        pairs: List[int] = []
        for index, run in itertools.groupby(indexes):
            pairs.append(index)
            pairs.append(sum(1 for _ in run))
        out.extend(_U32.pack(run_count))
        out.extend(struct.pack(
            "<" + (_WIDTH_FORMATS[width] + "I") * run_count, *pairs
        ))
        return CODEC_DICT_RLE
    _pack_array(out, width, indexes)
    return CODEC_RAW


def _decode_indexes(
    cursor: _Cursor, codec: int, width: int, row_count: int
) -> List[int]:
    if codec == CODEC_RAW:
        return list(cursor.array(width, row_count))
    if codec == CODEC_DICT_RLE:
        run_count = cursor.u32()
        indexes: List[int] = []
        for _ in range(run_count):
            index = cursor.array(width, 1)[0]
            run = cursor.u32()
            # Bound before allocating: a corrupt run length must raise,
            # not balloon memory expanding billions of rows.
            if len(indexes) + run > row_count:
                raise StorageError(
                    f"run-length overflow: {len(indexes) + run} > {row_count}"
                )
            indexes.extend([index] * run)
        if len(indexes) != row_count:
            raise StorageError(
                f"run-length total mismatch: {len(indexes)} != {row_count}"
            )
        return indexes
    raise StorageError(f"unknown index codec {codec}")


def encode_page(
    kind: int, entries: Sequence[Entry], indexes: Sequence[int]
) -> Tuple[int, bytes]:
    """Encode one page into ``(codec id, page bytes)``.

    *entries* must be distinct and in first-seen order of *indexes*
    (what :func:`first_seen` yields), so the bytes are a canonical
    function of the cells. The codec id combines the index codec with
    :data:`FLAG_ZLIB` when deflating the body pays for itself.
    """
    body = bytearray()
    body.extend(_U32.pack(len(indexes)))
    body.extend(_U32.pack(len(entries)))
    width = _index_width(len(entries))
    body.append(width)
    _encode_dict_section(body, kind, entries)
    codec = _encode_indexes(body, indexes, width)
    page = bytes(body)
    deflated = zlib.compress(page, 6)
    if len(deflated) < len(page):
        return codec | FLAG_ZLIB, deflated
    return codec, page


def encode_column(kind: int, cells: Sequence[Any]) -> Tuple[int, bytes]:
    """Encode one column's cells into ``(codec id, page bytes)``."""
    return encode_page(kind, *cell_page(kind, cells))


def decode_page(
    kind: int, codec: int, data: bytes
) -> Tuple[List[Entry], List[int]]:
    """Decode a page into ``(dictionary entries, per-row indexes)``.

    This is the hot-path shape: callers intern each *distinct* entry
    once and map rows through the index list, so per-row work is a
    single list lookup — no per-row parsing, no per-row interning.
    """
    if codec & FLAG_ZLIB:
        try:
            data = zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise StorageError(f"corrupt deflated page: {exc}") from exc
        codec &= ~FLAG_ZLIB
    try:
        cursor = _Cursor(bytes(data))
        row_count = cursor.u32()
        dict_count = cursor.u32()
        width = cursor.u8()
        if width not in _WIDTH_FORMATS:
            raise StorageError(f"bad index width {width} in column page")
        entries = _decode_dict_section(cursor, kind, dict_count)
        indexes = _decode_indexes(cursor, codec, width, row_count)
        if not cursor.done():
            raise StorageError("trailing bytes after column page")
    except (struct.error, ValueError, OverflowError, MemoryError) as exc:
        raise StorageError(f"corrupt column page: {exc}") from exc
    if indexes and max(indexes) >= dict_count:
        raise StorageError("dictionary index out of range in page")
    return entries, indexes


def materialise(
    kind: int, entries: Sequence[Entry], indexes: Sequence[int]
) -> List[Any]:
    """A decoded page as plain cell values: ``str`` / ``int`` cells for
    STR / INT, ``list`` cells (shared between rows of one entry)
    otherwise."""
    if kind in (KIND_STR, KIND_INT):
        return [entries[i] for i in indexes]
    materialised = [list(entry) for entry in entries]
    return [materialised[i] for i in indexes]


def decode_column(kind: int, codec: int, data: bytes) -> List[Any]:
    """Decode a page straight to plain cell values."""
    return materialise(kind, *decode_page(kind, codec, data))
