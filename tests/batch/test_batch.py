"""Unit tests for :class:`ObservationBatch` and its row adapters."""

import pytest

from repro.batch.batch import BatchBuilder, BatchRows, ObservationBatch
from repro.measurement.snapshot import DomainObservation


def observation(index, day=0, domain=None):
    return DomainObservation(
        day=day,
        domain=domain or f"d{index}.com",
        tld="com",
        ns_names=(f"ns1.h{index % 2}.net", f"ns2.h{index % 2}.net"),
        apex_addrs=(f"198.51.100.{index + 1}",),
        www_cnames=(f"d{index}.cdn.example.net",) if index % 2 else (),
        www_addrs=(f"203.0.113.{index + 1}",),
        apex_addrs6=(f"2001:db8::{index + 1:x}",) if index % 3 else (),
        www_addrs6=(),
        asns=frozenset({64500, 64500 + index % 4}),
    )


ROWS = [observation(i) for i in range(8)]


class TestRoundTrip:
    def test_from_rows_rows_round_trips(self):
        batch = ObservationBatch.from_rows(ROWS)
        assert batch.rows() == ROWS
        assert list(batch) == ROWS
        assert len(batch) == len(ROWS)

    def test_row_is_lazy_and_exact(self):
        batch = ObservationBatch.from_rows(ROWS)
        for index, row in enumerate(ROWS):
            assert batch.row(index) == row

    def test_append_fields_matches_append_row(self):
        boxed = ObservationBatch.from_rows(ROWS)
        raw = ObservationBatch()
        for row in ROWS:
            raw.append_fields(
                day=row.day,
                domain=row.domain,
                tld=row.tld,
                ns_names=row.ns_names,
                apex_addrs=row.apex_addrs,
                www_cnames=row.www_cnames,
                www_addrs=row.www_addrs,
                apex_addrs6=row.apex_addrs6,
                www_addrs6=row.www_addrs6,
                asns=row.asns,
            )
        assert raw == boxed

    def test_empty_batch(self):
        batch = ObservationBatch()
        assert len(batch) == 0
        assert batch.rows() == []
        assert ObservationBatch.concat([]).rows() == []


class TestColumnarAccessors:
    def test_text_accessors(self):
        batch = ObservationBatch.from_rows(ROWS)
        for index, row in enumerate(ROWS):
            assert batch.domain_text(index) == row.domain
            assert batch.tld_text(index) == row.tld
            assert batch.ns_texts(index) == row.ns_names
            assert batch.cname_texts(index) == row.www_cnames
            assert batch.asn_set(index) == row.asns

    def test_asn_column_is_sorted(self):
        batch = ObservationBatch.from_rows(ROWS)
        for column in batch.asns:
            assert list(column) == sorted(set(column))

    def test_match_key_shared_iff_signature_fields_match(self):
        first = observation(0)
        twin = DomainObservation(
            day=5,
            domain="other.com",
            tld="com",
            ns_names=first.ns_names,
            apex_addrs=("203.0.113.200",),
            www_cnames=first.www_cnames,
            www_addrs=(),
            asns=first.asns,
        )
        batch = ObservationBatch.from_rows([first, twin, observation(1)])
        assert batch.match_key(0) == batch.match_key(1)
        assert batch.match_key(0) != batch.match_key(2)


class TestRestructuring:
    def test_slice_shares_pools(self):
        batch = ObservationBatch.from_rows(ROWS)
        part = batch.slice(2, 6)
        assert part.rows() == ROWS[2:6]
        assert part.names is batch.names
        assert part.addresses is batch.addresses

    def test_getitem_int_slice_and_step(self):
        batch = ObservationBatch.from_rows(ROWS)
        assert batch[3] == ROWS[3]
        assert batch[1:4].rows() == ROWS[1:4]
        with pytest.raises(ValueError):
            batch[::2]

    def test_concat_shared_pools_fast_path(self):
        builder = BatchBuilder()
        first = builder.build(ROWS[:3])
        second = builder.build(ROWS[3:])
        merged = ObservationBatch.concat([first, second])
        assert merged.rows() == ROWS
        assert merged.names is builder.names

    def test_concat_mixed_pools_reinterns(self):
        first = ObservationBatch.from_rows(ROWS[:3])
        second = ObservationBatch.from_rows(ROWS[3:])
        merged = ObservationBatch.concat([first, second])
        assert merged.rows() == ROWS
        assert merged.names is not first.names

    def test_with_asns_replaces_only_asn_column(self):
        batch = ObservationBatch.from_rows(ROWS)
        enriched = batch.with_asns([(1,)] * len(ROWS))
        assert all(column == (1,) for column in enriched.asns)
        assert enriched.days is batch.days
        assert [r.domain for r in enriched] == [r.domain for r in ROWS]
        with pytest.raises(ValueError):
            batch.with_asns([(1,)])


class TestEqualityAndHashing:
    def test_batches_compare_by_rows(self):
        assert ObservationBatch.from_rows(ROWS) == ObservationBatch.from_rows(
            ROWS
        )
        assert ObservationBatch.from_rows(ROWS) != ObservationBatch.from_rows(
            ROWS[:-1]
        )

    def test_batch_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(ObservationBatch())

    def test_batch_rows_compares_to_lists(self):
        view = BatchRows(ObservationBatch.from_rows(ROWS))
        assert view == ROWS
        assert view == tuple(ROWS)
        assert ROWS == view  # reflected: dataclass list eq delegates
        assert view == BatchRows(ObservationBatch.from_rows(ROWS))
        assert view != ROWS[:-1]

    def test_batch_rows_sequence_protocol(self):
        view = BatchRows(ObservationBatch.from_rows(ROWS))
        assert len(view) == len(ROWS)
        assert view[2] == ROWS[2]
        assert view[1:3] == ROWS[1:3]
        assert list(view) == ROWS
        with pytest.raises(TypeError):
            hash(view)
        assert "8 rows" in repr(view)


class TestBuilder:
    def test_builder_batches_share_pools(self):
        builder = BatchBuilder()
        first = builder.build(ROWS[:4])
        second = builder.build(ROWS[:4])
        assert first.domains == second.domains
        assert first.names is second.names
