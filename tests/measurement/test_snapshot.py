"""Tests for the observation row schema."""

import pytest

from repro.measurement.snapshot import (
    DomainObservation,
    ObservationSegment,
    sld_of,
)


def observation(**overrides):
    defaults = dict(
        day=5,
        domain="examp.com",
        tld="com",
        ns_names=("ns1.hostco-dns.com",),
        apex_addrs=("10.0.0.1",),
    )
    defaults.update(overrides)
    return DomainObservation(**defaults)


class TestSldOf:
    def test_simple(self):
        assert sld_of("kate.ns.cloudflare.com") == "cloudflare.com"

    def test_public_suffix_returns_none(self):
        assert sld_of("com") is None

    def test_invalid_name_returns_none(self):
        assert sld_of("bad..name") is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("ns1.memo-probe.com", "memo-probe.com"),
            ("NS1.Memo-Probe.COM", "memo-probe.com"),
            ("ns1.memo-probe.com.", "memo-probe.com"),
            ("x.co.uk", "x.co.uk"),
            ("co.uk", None),                          # bare public suffix
            ("a" * 64 + ".memo-probe.com", None),     # over-long label
            ("m\u00fcnchen.memo-probe.de", None),     # non-ASCII
            ("", None),
        ],
    )
    def test_memoised_answer_is_the_first_answer(self, text, expected):
        """sld_of parses a text once; hits — None included — must repeat
        what the parse said, and bad names must not raise either time."""
        assert sld_of(text) == expected
        assert sld_of(text) == expected


class TestObservation:
    def test_all_addresses_deduplicates(self):
        obs = observation(
            apex_addrs=("10.0.0.1",),
            www_addrs=("10.0.0.1", "10.0.0.2"),
        )
        assert obs.all_addresses() == ("10.0.0.1", "10.0.0.2")

    def test_all_addresses_first_seen_order_across_columns(self):
        """Regression: the dict.fromkeys rewrite must keep the exact
        apex → www → apex6 → www6 first-seen order and dedup of the old
        linear scan."""
        obs = observation(
            apex_addrs=("10.0.0.2", "10.0.0.1"),
            www_addrs=("10.0.0.1", "10.0.0.3"),
            apex_addrs6=("2001:db8::1", "2001:db8::2"),
            www_addrs6=("2001:db8::2", "10.0.0.2"),
        )
        assert obs.all_addresses() == (
            "10.0.0.2",
            "10.0.0.1",
            "10.0.0.3",
            "2001:db8::1",
            "2001:db8::2",
        )

    def test_all_addresses_scales_linearly_enough(self):
        """Regression for the O(n^2) `addr not in seen-list` scan: a
        many-address observation must dedup in well under a second."""
        import time

        addrs = tuple(f"10.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}"
                      for i in range(20000))
        obs = observation(apex_addrs=addrs, www_addrs=addrs)
        started = time.perf_counter()
        result = obs.all_addresses()
        elapsed = time.perf_counter() - started
        assert result == addrs
        assert elapsed < 1.0

    def test_ns_slds(self):
        obs = observation(
            ns_names=("ns1.hostco-dns.com", "kate.ns.cloudflare.com")
        )
        assert obs.ns_slds() == frozenset(
            {"hostco-dns.com", "cloudflare.com"}
        )

    def test_cname_slds(self):
        obs = observation(www_cnames=("tok-1.incapdns.net",))
        assert obs.cname_slds() == frozenset({"incapdns.net"})

    def test_is_dark(self):
        dark = observation(ns_names=(), apex_addrs=())
        assert dark.is_dark()
        assert not observation().is_dark()

    def test_with_asns(self):
        enriched = observation().with_asns(frozenset({13335}))
        assert enriched.asns == frozenset({13335})
        assert enriched.domain == "examp.com"


class TestSegment:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationSegment(10, 10, observation())

    def test_days(self):
        assert ObservationSegment(10, 25, observation()).days == 15

    def test_at_produces_daily_row(self):
        segment = ObservationSegment(10, 25, observation(day=10))
        assert segment.at(17).day == 17
        assert segment.at(17).domain == "examp.com"

    def test_at_outside_rejected(self):
        segment = ObservationSegment(10, 25, observation(day=10))
        with pytest.raises(ValueError):
            segment.at(25)
