"""Property suite for the column page codecs.

Three invariants, over adversarial cell values and damaged bytes:

* every encodable column round-trips exactly (including IPv6-only
  partitions, empty CNAME lists, multi-origin ASN sets, non-ASCII
  domains, NUL and astral-plane code points, and >64 KiB pages);
* no damaged page ever escapes as ``struct.error`` / ``zlib.error`` /
  any other untyped exception — the reader raises
  :class:`~repro.store.errors.StorageError` or returns a decoded page,
  nothing else;
* the encode kernels write the bytes of their plain per-item loops,
  kept here as references.
"""

import glob
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.batch import BatchBuilder
from repro.store import SegmentReader, codecs
from repro.store.codecs import (
    KIND_INT,
    KIND_INT_LIST,
    KIND_STR,
    KIND_STR_LIST,
    decode_column,
    decode_page,
    encode_column,
)
from repro.store.errors import StorageError
from repro.store.store import decode_fragment
from tests.store.test_run_fragments import runs_store

texts = st.text(
    alphabet=st.characters(
        min_codepoint=0, max_codepoint=0x10FFFF,
        exclude_categories=("Cs",),  # codecs use surrogatepass anyway
    ),
    max_size=40,
)
ipv6 = st.from_regex(r"2001:db8(:[0-9a-f]{1,4}){1,6}", fullmatch=True)
str_cells = st.lists(texts, max_size=60)
str_list_cells = st.lists(st.lists(texts, max_size=6), max_size=40)
ipv6_only_cells = st.lists(st.lists(ipv6, max_size=4), max_size=30)
int_list_cells = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), max_size=8
    ).map(sorted),
    max_size=40,
)


class TestRoundtrip:
    @given(cells=str_cells)
    def test_str_columns(self, cells):
        codec, page = encode_column(KIND_STR, cells)
        assert decode_column(KIND_STR, codec, page) == cells

    @given(cells=str_list_cells)
    def test_str_list_columns(self, cells):
        codec, page = encode_column(KIND_STR_LIST, cells)
        assert decode_column(KIND_STR_LIST, codec, page) == cells

    @given(cells=ipv6_only_cells)
    def test_ipv6_only_columns(self, cells):
        codec, page = encode_column(KIND_STR_LIST, cells)
        assert decode_column(KIND_STR_LIST, codec, page) == cells

    @given(cells=int_list_cells)
    def test_int_list_columns(self, cells):
        codec, page = encode_column(KIND_INT_LIST, cells)
        assert decode_column(KIND_INT_LIST, codec, page) == cells

    @given(cells=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                          max_size=60))
    def test_int_columns(self, cells):
        codec, page = encode_column(KIND_INT, cells)
        assert decode_column(KIND_INT, codec, page) == cells

    def test_empty_cname_partition(self):
        cells = [[] for _ in range(1000)]
        codec, page = encode_column(KIND_STR_LIST, cells)
        assert decode_column(KIND_STR_LIST, codec, page) == cells

    def test_multi_origin_asn_sets(self):
        cells = [sorted({64500, 64501, 64502, 3356, 13335}) for _ in range(64)]
        codec, page = encode_column(KIND_INT_LIST, cells)
        assert decode_column(KIND_INT_LIST, codec, page) == cells

    def test_nul_and_astral_codepoints(self):
        cells = ["\x00", "a\x00b", "\U0010ffff", "δ.ελ", "xn--no"]
        codec, page = encode_column(KIND_STR, cells)
        assert decode_column(KIND_STR, codec, page) == cells

    def test_large_all_distinct_column_over_64k(self):
        cells = [f"domain-{i:07d}.example" for i in range(8000)]
        codec, page = encode_column(KIND_STR, cells)
        assert (
            len(zlib.decompress(page))
            if codec & codecs.FLAG_ZLIB
            else len(page)
        ) > 64 * 1024
        assert decode_column(KIND_STR, codec, page) == cells

    def test_wide_dictionary_uses_wider_indexes(self):
        cells = [f"v{i}" for i in range(300)]
        codec, page = encode_column(KIND_STR, cells)
        assert decode_column(KIND_STR, codec, page) == cells

    def test_repetition_picks_rle(self):
        repeated = ["same"] * 5000
        codec, page = encode_column(KIND_STR, repeated)
        assert decode_column(KIND_STR, codec, page) == repeated
        varied = [f"value-{i}" for i in range(5000)]
        _, varied_page = encode_column(KIND_STR, varied)
        assert len(page) < len(varied_page) / 50


def reference_encode_indexes(out, indexes, width):
    """The per-row index-stream loop the store wrote with before its
    kernels went through ``map``/``groupby``."""
    runs = []
    for index in indexes:
        if runs and runs[-1][0] == index:
            runs[-1] = (index, runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    rle_size = 4 + len(runs) * (width + 4)
    raw_size = len(indexes) * width
    if rle_size < raw_size:
        out.extend(struct.pack("<I", len(runs)))
        for index, run in runs:
            codecs._pack_array(out, width, (index,))
            out.extend(struct.pack("<I", run))
        return codecs.CODEC_DICT_RLE
    codecs._pack_array(out, width, indexes)
    return codecs.CODEC_RAW


def reference_first_seen(keys):
    positions = {}
    indexes = [positions.setdefault(key, len(positions)) for key in keys]
    return list(positions), indexes


def reference_string_block(out, texts):
    blobs = [text.encode("utf-8", "surrogatepass") for text in texts]
    ends = []
    total = 0
    for blob in blobs:
        total += len(blob)
        ends.append(total)
    out.extend(struct.pack("<I", total))
    out.extend(struct.pack(f"<{len(ends)}I", *ends))
    for blob in blobs:
        out.extend(blob)


#: Index streams with long runs and short ones, over 1-, 2- and 4-byte
#: dictionaries.
index_streams = st.tuples(
    st.sampled_from((1, 2, 4)),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 12)), max_size=40
    ),
).map(lambda drawn: (drawn[0], [
    index * {1: 50, 2: 3000, 4: 70000}[drawn[0]]
    for index, run in drawn[1] for _ in range(run)
]))


class TestKernelsMatchTheirLoops:
    @given(stream=index_streams)
    def test_index_stream(self, stream):
        width, indexes = stream
        fast, slow = bytearray(), bytearray()
        for kind in (list, tuple):
            assert codecs._encode_indexes(
                fast, kind(indexes), width
            ) == reference_encode_indexes(slow, indexes, width)
            assert fast == slow

    @given(keys=st.lists(st.one_of(
        texts, st.tuples(texts, texts), st.integers(0, 9)
    ), max_size=60))
    def test_first_seen(self, keys):
        expected = reference_first_seen(keys)
        assert codecs.first_seen(keys) == expected
        assert codecs.first_seen(iter(keys)) == expected
        assert codecs.first_seen(tuple(keys)) == expected

    @given(cells=str_cells)
    def test_string_block(self, cells):
        fast, slow = bytearray(), bytearray()
        codecs._encode_string_block(fast, cells)
        reference_string_block(slow, cells)
        assert fast == slow


def sample_pages():
    pages = []
    for kind, cells in (
        (KIND_STR, ["a.com", "b.com", "a.com", "δ.ελ"] * 7),
        (KIND_STR_LIST, [["x", "y"], [], ["x"]] * 9),
        (KIND_INT_LIST, [[64500, 64501], [], [1, 2, 3]] * 9),
        (KIND_INT, [366, 367, 366, 372, 1 << 31] * 5),
    ):
        codec, page = encode_column(kind, cells)
        pages.append((kind, codec, page, cells))
    return pages


PAGES = sample_pages()


def run_segment():
    """The bytes of a compacted segment holding run fragments (com and
    nl) beside one-day fragments (rank-ordered alexa)."""
    with tempfile.TemporaryDirectory() as directory:
        runs_store(directory)
        (path,) = glob.glob(os.path.join(directory, "segments", "*"))
        with open(path, "rb") as handle:
            return handle.read()


RUN_SEGMENT = run_segment()


def read_every_fragment(blob):
    """Open *blob* and decode every fragment it holds, runs included."""
    reader = SegmentReader.from_bytes(blob)
    for ref in reader.partitions:
        decode_fragment(reader, ref, BatchBuilder())


class TestCorruptionNeverEscapesTyped:
    @given(
        case=st.integers(min_value=0, max_value=len(PAGES) - 1),
        cut=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncation(self, case, cut):
        kind, codec, page, _ = PAGES[case]
        try:
            decode_page(kind, codec, page[: min(cut, len(page))])
        except StorageError:
            pass

    @given(
        case=st.integers(min_value=0, max_value=len(PAGES) - 1),
        position=st.integers(min_value=0, max_value=4000),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitflip(self, case, position, bit):
        kind, codec, page, cells = PAGES[case]
        blob = bytearray(page)
        blob[position % len(blob)] ^= 1 << bit
        try:
            decoded_codec = codec
            entries, indexes = decode_page(
                kind, decoded_codec, bytes(blob)
            )
            # A surviving decode must still be internally consistent.
            for index in indexes:
                assert index < len(entries)
        except StorageError:
            pass

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, blob):
        for kind in (KIND_STR, KIND_STR_LIST, KIND_INT_LIST, KIND_INT):
            for codec in (0, 1, 2, 0x80, 0x81):
                try:
                    decode_page(kind, codec, blob)
                except StorageError:
                    pass

    @given(cut=st.integers(min_value=0, max_value=len(RUN_SEGMENT)))
    @settings(max_examples=100, deadline=None)
    def test_truncated_run_segment(self, cut):
        try:
            read_every_fragment(RUN_SEGMENT[:cut])
        except StorageError:
            pass

    @given(
        position=st.integers(min_value=0, max_value=len(RUN_SEGMENT) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitflipped_run_segment(self, position, bit):
        blob = bytearray(RUN_SEGMENT)
        blob[position] ^= 1 << bit
        try:
            read_every_fragment(bytes(blob))
        except StorageError:
            pass

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_behind_a_run_header(self, blob):
        try:
            read_every_fragment(RUN_SEGMENT[:16] + blob)
        except StorageError:
            pass

    def test_wrong_kind_is_typed(self):
        _, codec, page, _ = PAGES[0]
        for kind in (KIND_STR_LIST, KIND_INT_LIST, 99):
            with pytest.raises(StorageError):
                decode_page(kind, codec, page)

    def test_unknown_codec_is_typed(self):
        kind, _, page, _ = PAGES[0]
        with pytest.raises(StorageError):
            decode_page(kind, 7, page)


def _page(row_count, dict_count, width, dict_section, index_section):
    """Hand-framed page body: header, dictionary section, index stream."""
    header = struct.pack("<IIB", row_count, dict_count, width)
    return header + dict_section + index_section


def _string_block(blob, ends):
    return struct.pack(f"<I{len(ends)}I", len(blob), *ends) + blob


class TestHandFramedPages:
    """The decode paths that work on whole blocks at once — string
    blocks sliced from one decoded blob, id and index ranges checked in
    one pass — still refuse every malformed page with StorageError,
    never IndexError or struct.error."""

    def test_non_ascii_block_decodes_per_string(self):
        page = _page(
            2, 2, 1, _string_block("é.com".encode() + b"x", (6, 7)),
            bytes([1, 0]),
        )
        assert decode_page(KIND_STR, codecs.CODEC_RAW, page) == (
            ["é.com", "x"], [1, 0]
        )

    @pytest.mark.parametrize(
        "blob, ends",
        [
            (b"\xff\xfe", (1, 2)),  # not UTF-8 at all
            ("é".encode(), (1, 2)),  # an offset splits a code point
        ],
    )
    def test_invalid_non_ascii_block(self, blob, ends):
        page = _page(1, 2, 1, _string_block(blob, ends), bytes([0]))
        with pytest.raises(StorageError):
            decode_page(KIND_STR, codecs.CODEC_RAW, page)

    def test_offsets_out_of_order_with_a_correct_last_end(self):
        page = _page(
            1, 3, 1, _string_block(b"abcdef", (4, 2, 6)), bytes([0])
        )
        with pytest.raises(StorageError, match="not monotonic"):
            decode_page(KIND_STR, codecs.CODEC_RAW, page)

    def test_string_id_equal_to_the_string_count(self):
        strings = struct.pack("<I", 2) + _string_block(b"xy", (1, 2))
        # sid width 1, one entry of one string id: 2 == len(texts).
        section = strings + bytes([1]) + struct.pack("<I", 1) + bytes([2])
        page = _page(1, 1, 1, section, bytes([0]))
        with pytest.raises(StorageError, match="string id out of range"):
            decode_page(KIND_STR_LIST, codecs.CODEC_RAW, page)

    @pytest.mark.parametrize(
        "codec, index_section",
        [
            (codecs.CODEC_RAW, bytes([0, 2])),
            (codecs.CODEC_DICT_RLE, struct.pack("<IBIBI", 2, 0, 1, 2, 1)),
        ],
    )
    def test_dictionary_index_equal_to_the_dictionary_count(
        self, codec, index_section
    ):
        page = _page(
            2, 2, 1, _string_block(b"ab", (1, 2)), index_section
        )
        with pytest.raises(StorageError, match="index out of range"):
            decode_page(KIND_STR, codec, page)
