"""Full-fidelity round-trips through the columnar store.

Complements ``test_storage.py``: those tests cover the codec and the
store bookkeeping; these assert that *every* observation field — the
IPv6 columns and empty CNAME chains included — survives
encode → persist → load → decode unchanged.
"""

from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentStore

from tests.store.cells import segment_roundtrip, stored_cells


def full_observation(index, day=0):
    """An observation exercising every column, IPv6 included."""
    return DomainObservation(
        day=day,
        domain=f"d{index}.com",
        tld="com",
        ns_names=(f"ns1.host{index % 3}.net", f"ns2.host{index % 3}.net"),
        apex_addrs=(f"198.51.100.{index % 250 + 1}",),
        www_cnames=(f"d{index}.com.cdn.example.net",),
        www_addrs=(f"203.0.113.{index % 250 + 1}",),
        apex_addrs6=(f"2001:db8::{index + 1:x}",),
        www_addrs6=(f"2001:db8:1::{index + 1:x}", f"2001:db8:2::{index + 1:x}"),
        asns=frozenset({64500, 64500 + index % 5}),
    )


def bare_observation(index, day=0):
    """An observation with empty optional columns (no www, no v6)."""
    return DomainObservation(
        day=day,
        domain=f"bare{index}.org",
        tld="org",
        ns_names=(f"ns.bare{index}.org",),
        apex_addrs=(f"192.0.2.{index % 250 + 1}",),
    )


class TestCodecRoundtrip:
    def test_ipv6_strings_roundtrip(self):
        values = [f"2001:db8::{i:x}" for i in range(50)]
        assert segment_roundtrip("domain", values) == values

    def test_empty_lists_roundtrip(self):
        values = [[], ["one"], [], [], ["a", "b"], []]
        assert segment_roundtrip("ns_names", values) == values

    def test_all_empty_column_roundtrips(self):
        values = [[] for _ in range(20)]
        assert segment_roundtrip("ns_names", values) == values

    def test_non_ascii_strings_roundtrip(self):
        # IDNs land in zone files both as punycode and (in sloppy feeds)
        # as raw unicode; the codec must not mangle either.
        values = [
            "xn--mnchen-3ya.de",
            "münchen.de",
            "例え.jp",
            "кириллица.рф",
            "emoji-\U0001f310.example",
            "mixed-ß-ascii.com",
        ]
        assert segment_roundtrip("domain", values) == values

    def test_non_ascii_list_values_roundtrip(self):
        values = [["ns1.münchen.de", "ns2.例え.jp"], [], ["ascii.net"]]
        assert segment_roundtrip("ns_names", values) == values

    def test_column_larger_than_64kib_roundtrips(self):
        # A full .com day is tens of thousands of rows; the dictionary
        # page far exceeds zlib's 32 KiB window and any 16-bit length
        # assumption. Use distinct values so dictionary encoding cannot
        # shrink the page below the threshold.
        values = [f"domain-{i:07d}.example-{i % 97}.com" for i in range(20000)]
        head = sum(len(v) for v in values)
        assert head > 64 * 1024
        assert segment_roundtrip("domain", values) == values

    def test_high_codepoints_and_controls_roundtrip(self):
        values = [
            "\x01weird",
            "tab\tseparated",
            "nul\x00nul",
            "\uffff",
            "\U0010ffff",
        ]
        assert segment_roundtrip("domain", values) == values

    def test_run_boundaries_roundtrip_exactly(self):
        # Runs of repeated values interleaved with singletons: the RLE
        # must restore exact multiplicities and positions.
        values = (
            ["a"] * 1000 + ["b"] + ["a"] * 3 + ["c"] * 500 + ["b"] * 2
        )
        assert segment_roundtrip("domain", values) == values


class TestStoreRoundtrip:
    def test_in_memory_rows_keep_every_field(self, tmp_path):
        store = SegmentStore(str(tmp_path), create=True)
        rows = [full_observation(i) for i in range(10)]
        store.append("com", 0, rows)
        assert list(store.rows("com", 0)) == rows

    def test_empty_cname_rows_keep_every_field(self, tmp_path):
        store = SegmentStore(str(tmp_path), create=True)
        rows = [bare_observation(i) for i in range(10)]
        store.append("org", 0, rows)
        got = list(store.rows("org", 0))
        assert got == rows
        assert all(row.www_cnames == () for row in got)
        assert all(row.apex_addrs6 == () for row in got)

    def test_persisted_partitions_keep_every_field(self, tmp_path):
        full = [full_observation(i) for i in range(12)]
        bare = [bare_observation(i, day=3) for i in range(7)]
        SegmentStore(str(tmp_path), create=True).append_partitions(
            [("com", 0, full), ("org", 3, bare)]
        )
        with SegmentStore(str(tmp_path)) as loaded:
            assert list(loaded.rows("com", 0)) == full
            assert list(loaded.rows("org", 3)) == bare

    def test_persisted_decode_matches_original_columns(self, tmp_path):
        rows = [full_observation(i) for i in range(6)]
        SegmentStore(str(tmp_path), create=True).append("com", 0, rows)
        with SegmentStore(str(tmp_path)) as loaded:
            decoded = stored_cells(loaded, "com", 0)
        assert decoded["apex_addrs6"] == [
            list(row.apex_addrs6) for row in rows
        ]
        assert decoded["www_addrs6"] == [
            list(row.www_addrs6) for row in rows
        ]
        assert decoded["asns"] == [sorted(row.asns) for row in rows]

    def test_mixed_partition_roundtrips(self, tmp_path):
        """Rows with and without optional fields share one partition."""
        rows = [full_observation(0, day=5), bare_observation(1, day=5)]
        SegmentStore(str(tmp_path), create=True).append("com", 5, rows)
        with SegmentStore(str(tmp_path)) as loaded:
            assert list(loaded.rows("com", 5)) == rows
