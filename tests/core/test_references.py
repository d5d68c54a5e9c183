"""Tests for signature matching (§3.3)."""

import pytest

from repro.core.references import ProviderSignature, RefType, SignatureCatalog
from repro.measurement.snapshot import DomainObservation


def observation(ns=(), cnames=(), asns=()):
    return DomainObservation(
        day=0,
        domain="a.com",
        tld="com",
        ns_names=tuple(ns),
        apex_addrs=("10.0.0.1",),
        www_cnames=tuple(cnames),
        asns=frozenset(asns),
    )


CLOUDFLARE = ProviderSignature(
    name="CloudFlare",
    asns=frozenset({13335}),
    cname_slds=frozenset({"cloudflare.net"}),
    ns_slds=frozenset({"cloudflare.com"}),
)


class TestSignatureMatch:
    def test_as_reference(self):
        assert CLOUDFLARE.match(observation(asns={13335})) == frozenset(
            {RefType.AS}
        )

    def test_ns_reference_via_sld(self):
        refs = CLOUDFLARE.match(observation(ns=("kate.ns.cloudflare.com",)))
        assert refs == frozenset({RefType.NS})

    def test_cname_reference_via_sld(self):
        refs = CLOUDFLARE.match(
            observation(cnames=("site.cdn.cloudflare.net",))
        )
        assert refs == frozenset({RefType.CNAME})

    def test_combined_references(self):
        refs = CLOUDFLARE.match(
            observation(ns=("kate.ns.cloudflare.com",), asns={13335})
        )
        assert refs == frozenset({RefType.AS, RefType.NS})

    def test_no_reference(self):
        assert CLOUDFLARE.match(observation(ns=("ns1.hostco.com",))) == (
            frozenset()
        )

    def test_to_row_renders_dashes_for_empty(self):
        signature = ProviderSignature(
            "DOSarrest", frozenset({19324}), frozenset(), frozenset()
        )
        row = signature.to_row()
        assert row["CNAME SLD(s)"] == "—"
        assert row["AS number(s)"] == "19324"


class TestCatalog:
    def test_paper_table2_has_nine_providers(self):
        catalog = SignatureCatalog.paper_table2()
        assert len(catalog) == 9
        assert catalog.get("Verisign").ns_slds == frozenset(
            {"verisigndns.com"}
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SignatureCatalog([CLOUDFLARE, CLOUDFLARE])

    def test_match_uses_indexes(self):
        catalog = SignatureCatalog.paper_table2()
        matches = catalog.match(
            observation(cnames=("x.incapdns.net",), asns={19551})
        )
        assert matches == {
            "Incapsula": frozenset({RefType.AS, RefType.CNAME})
        }

    def test_match_multiple_providers(self):
        catalog = SignatureCatalog.paper_table2()
        matches = catalog.match(
            observation(
                ns=("kate.ns.cloudflare.com",),
                asns={13335, 19551},
            )
        )
        assert set(matches) == {"CloudFlare", "Incapsula"}
        assert matches["CloudFlare"] == frozenset({RefType.AS, RefType.NS})

    def test_shared_asn_matches_all_owners(self):
        a = ProviderSignature("A", frozenset({7}), frozenset(), frozenset())
        b = ProviderSignature("B", frozenset({7}), frozenset(), frozenset())
        catalog = SignatureCatalog([a, b])
        assert set(catalog.match(observation(asns={7}))) == {"A", "B"}

    def test_provider_names_sorted(self):
        catalog = SignatureCatalog.paper_table2()
        assert catalog.provider_names == sorted(catalog.provider_names)

    def test_to_table(self):
        rows = SignatureCatalog.paper_table2().to_table()
        assert len(rows) == 9
        assert rows[0]["Provider"] == "Akamai"
