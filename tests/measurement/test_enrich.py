"""Tests for ASN enrichment (daily and segment paths)."""

from dataclasses import replace

import pytest

from repro.batch.batch import BatchBuilder
from repro.measurement.enrich import AsnEnricher
from repro.measurement.prober import FastProber
from repro.measurement.snapshot import DomainObservation, ObservationSegment
from repro.world.world import World


@pytest.fixture(scope="module")
def enricher(tiny_world):
    return AsnEnricher(tiny_world)


class TestDailyEnrichment:
    def test_hoster_domain_gets_hoster_asn(self, tiny_world, enricher):
        prober = FastProber(tiny_world)
        # Find a plain churn-pool domain (unprotected, day 0).
        party_names = set()
        for party in tiny_world.thirdparties.values():
            party_names.update(party.domains)
        name = next(
            name
            for name, timeline in tiny_world.domains.items()
            if timeline.created == 0 and name not in party_names
            and timeline.tld == "com"
        )
        observation = enricher.enrich(prober.observe(name, 0))
        hoster_asns = {h.primary_asn() for h in tiny_world.hosters}
        provider_asns = set()
        for provider in tiny_world.providers.values():
            provider_asns.update(provider.asns)
        assert observation.asns
        assert observation.asns <= (hoster_asns | provider_asns)

    def test_cloudflare_customer_gets_13335(self, tiny_world, enricher):
        prober = FastProber(tiny_world)
        target = None
        for name, timeline in tiny_world.domains.items():
            config = timeline.config_at(timeline.created)
            if any(
                ns.endswith("cloudflare.com") for ns in config.ns_names
            ):
                target = name
                break
        assert target is not None, "no CloudFlare delegation in tiny world"
        observation = enricher.enrich(
            prober.observe(target, tiny_world.domains[target].created)
        )
        assert 13335 in observation.asns

    def test_dark_observation_has_no_asns(self, tiny_world, enricher):
        prober = FastProber(tiny_world)
        sedo = tiny_world.thirdparties["Sedo"].domains[0]
        observation = enricher.enrich(prober.observe(sedo, 266))
        assert observation.asns == frozenset()

    def test_enrich_day_batch(self, tiny_world, enricher):
        prober = FastProber(tiny_world)
        names = list(tiny_world.zone_names("com", 0))[:20]
        rows = enricher.enrich_day(prober.observe_day(names, 0))
        assert all(row.asns for row in rows if not row.is_dark())


def _probe_row(day, index, apex=(), www=(), apex6=()):
    return DomainObservation(
        day=day, domain=f"probe{index}.com", tld="com", ns_names=(),
        apex_addrs=tuple(apex), www_addrs=tuple(www),
        apex_addrs6=tuple(apex6),
    )


def _boundary_days(world):
    """Day 0, the last day, and every change day with its neighbours."""
    days = {0, world.horizon - 1}
    for day in world.routing_change_days():
        days.update((day - 1, day, day + 1))
    return sorted(day for day in days if 0 <= day < world.horizon)


@pytest.fixture(scope="module")
def moas_world():
    """A bare routing timeline with a MOAS prefix, a withdrawal that
    leaves an address unrouted, a re-announcement, an IPv6 flip and a
    MOAS prefix that never changes."""
    world = World(horizon=100)
    world.add_routing_event(0, "10.80.0.0/16", frozenset({600, 700}))
    world.add_routing_event(0, "10.50.0.0/16", frozenset({100}))
    world.add_routing_event(0, "10.50.1.0/24", frozenset({200, 300}))
    world.add_routing_event(30, "10.50.1.0/24", frozenset())
    world.add_routing_event(0, "10.60.0.0/24", frozenset({400}))
    world.add_routing_event(40, "10.60.0.0/24", frozenset())
    world.add_routing_event(70, "10.60.0.0/24", frozenset({400, 500}))
    world.add_routing_event(0, "fd00::/48", frozenset({64496}))
    world.add_routing_event(55, "fd00::/48", frozenset({64497}))
    return world


def _moas_rows(day):
    return [
        _probe_row(day, 0, apex=["10.50.1.9"]),             # MOAS, then /16
        _probe_row(day, 1, apex=["10.60.0.7"]),             # withdrawn
        _probe_row(day, 2, apex=["203.0.113.9"]),           # never routed
        _probe_row(day, 3, apex6=["fd00::53"]),             # IPv6
        _probe_row(day, 4, apex=["10.50.1.9"], www=["10.60.0.7", "10.50.2.2"],
                   apex6=["fd00::53"]),                     # union of all
        _probe_row(day, 5),                                 # no address
        _probe_row(day, 6, apex=["203.0.113.9", "10.80.3.3"],
                   www=["10.50.2.2"]),                      # static union
    ]


def _tiny_rows(world, day):
    """Real probed rows (ENOM's diverted prefixes among them) plus
    synthetic diverted / IPv6 / unrouted addresses."""
    names = []
    for party in ("ENOM", "Wix", "Namecheap"):
        names.extend(world.thirdparties[party].domains[:3])
    names.extend(list(world.zone_names("com", day))[:10])
    rows = list(FastProber(world).observe_day(names, day))
    diverted = world.thirdparties["ENOM"].base_routing[0][0].split("/")[0]
    rows.append(_probe_row(day, 0, apex=[diverted], apex6=["fd00::1"]))
    rows.append(_probe_row(day, 1, www=["203.0.113.9"]))
    return rows


def _check_days(world, segment):
    """A segment's start day and every routing change day inside it."""
    return [segment.start] + [
        day
        for day in world.routing_change_days()
        if segment.start < day < segment.end
    ]


def _covered(segments):
    """Each source row's covered days, as merged ``(start, end)`` runs:
    splitting a segment must neither drop nor add a day."""
    runs = {}
    for segment in segments:
        key = replace(segment.observation, day=0, asns=frozenset())
        spans = runs.setdefault(key, [])
        if spans and spans[-1][1] == segment.start:
            spans[-1] = (spans[-1][0], segment.end)
        else:
            spans.append((segment.start, segment.end))
    return runs


class TestBatchMatchesDailyOracle:
    """``enrich_batch`` reads address timelines; ``enrich_day`` asks the
    day's snapshot for every address. They must agree value for value."""

    @staticmethod
    def _assert_agree(world, rows):
        batched = AsnEnricher(world).enrich_batch(BatchBuilder().build(rows))
        assert batched.rows() == AsnEnricher(world).enrich_day(rows)
        return batched

    def test_every_boundary_day_of_tiny_world(self, tiny_world):
        for day in _boundary_days(tiny_world):
            self._assert_agree(tiny_world, _tiny_rows(tiny_world, day))

    def test_moas_withdrawal_and_ipv6(self, moas_world):
        assert _boundary_days(moas_world)[:3] == [0, 1, 29]
        seen = set()
        for day in _boundary_days(moas_world):
            batched = self._assert_agree(moas_world, _moas_rows(day))
            seen.update(row.asns for row in batched.rows())
        assert frozenset({200, 300}) in seen      # MOAS: all origins
        assert frozenset({100}) in seen           # falls back to the /16
        assert frozenset({400, 500}) in seen      # re-announced
        assert frozenset({64497}) in seen
        assert frozenset() in seen

    def test_one_batch_straddling_a_change_day(self, tiny_world, moas_world):
        change_day = tiny_world.routing_change_days()[3]
        rows = [
            row
            for day in (change_day - 1, change_day, change_day + 1)
            for row in _tiny_rows(tiny_world, day)
        ]
        batched = self._assert_agree(tiny_world, rows)
        assert len({row.asns for row in batched.rows()}) > 1
        self._assert_agree(
            moas_world,
            [row for day in (29, 30, 39, 40, 69, 70) for row in _moas_rows(day)],
        )

    def test_second_batch_resolves_nothing_new(self, tiny_world):
        enricher = AsnEnricher(tiny_world)
        rows = _tiny_rows(tiny_world, 100)
        first = enricher.enrich_batch(BatchBuilder().build(rows))
        resolved = enricher.lookups
        assert 0 < resolved <= len(
            {address for row in rows for address in row.all_addresses()}
        )
        # Same day again, and a later day over the same addresses, in a
        # batch with pools of its own: every address is already known.
        again = enricher.enrich_batch(BatchBuilder().build(rows))
        assert again.rows() == first.rows()
        later = [replace(row, day=300) for row in rows]
        enricher.enrich_batch(BatchBuilder().build(later))
        assert enricher.lookups == resolved


class TestAddressTimelines:
    def test_static_address_single_entry(self, tiny_world, enricher):
        hoster = tiny_world.hosters[0]
        address = hoster.host_address("probe.example")
        timeline = enricher.address_timeline(address)
        assert len(timeline) == 1
        assert timeline[0] == (0, frozenset({hoster.primary_asn()}))

    def test_dynamic_address_multiple_entries(self, tiny_world, enricher):
        enom = tiny_world.thirdparties["ENOM"]
        address = enom.base_routing[0][0].split("/")[0]
        timeline = enricher.address_timeline(address)
        assert len(timeline) > 2
        origins = {frozenset(o) for _, o in timeline}
        assert frozenset({21740}) in origins
        assert frozenset({26415}) in origins

    def test_timeline_is_cached(self, tiny_world, enricher):
        address = tiny_world.hosters[0].host_address("probe.example")
        first = enricher.address_timeline(address)
        assert enricher.address_timeline(address) is first


class TestSegmentEnrichment:
    def test_static_segments_pass_through_with_asns(self, tiny_world,
                                                    enricher):
        prober = FastProber(tiny_world)
        party_names = set()
        for party in tiny_world.thirdparties.values():
            party_names.update(party.domains)
        name = next(
            name
            for name, timeline in tiny_world.domains.items()
            if name not in party_names and timeline.tld == "com"
        )
        segments = enricher.enrich_segments(prober.observe_segments(name))
        assert all(s.observation.asns for s in segments)

    def test_bgp_diversion_splits_segments(self, tiny_world, enricher):
        """An ENOM domain has one DNS config but several ASN segments."""
        prober = FastProber(tiny_world)
        name = tiny_world.thirdparties["ENOM"].domains[0]
        raw = prober.observe_segments(name)
        assert len(raw) == 1  # DNS never changes: BGP-only diversion
        enriched = enricher.enrich_segments(raw)
        assert len(enriched) > 2
        origins_seen = {s.observation.asns for s in enriched}
        assert frozenset({21740}) in origins_seen
        assert frozenset({26415}) in origins_seen

    def test_segment_enrichment_matches_daily(self, tiny_world, enricher,
                                              moas_world):
        """Property: every enriched segment's ASNs equal daily enrichment
        on its start day and on every routing change day inside it, for
        every domain of ``tiny_world`` and every probe row of
        ``moas_world`` (held over the whole horizon and over pieces cut
        across its change days)."""
        prober = FastProber(tiny_world)
        checked = 0
        for name in sorted(tiny_world.domains):
            raw = prober.observe_segments(name)
            enriched = enricher.enrich_segments(raw)
            assert _covered(enriched) == _covered(raw)
            for segment in enriched:
                for day in _check_days(tiny_world, segment):
                    daily = enricher.enrich(prober.observe(name, day))
                    assert daily.asns == segment.observation.asns, (
                        f"{name} day {day}"
                    )
                    checked += 1
        moas = AsnEnricher(moas_world)
        raw = [
            ObservationSegment(start, end, row)
            for start, end in ((0, 100), (0, 30), (25, 45), (45, 100))
            for row in _moas_rows(start)
        ]
        enriched = moas.enrich_segments(raw)
        assert _covered(enriched) == _covered(raw)
        for segment in enriched:
            for day in _check_days(moas_world, segment):
                daily = moas.enrich(replace(segment.observation, day=day))
                assert daily.asns == segment.observation.asns, (
                    f"{segment.observation.domain} day {day}"
                )
                checked += 1
        assert checked > len(tiny_world.domains)

    def test_segments_remain_contiguous(self, tiny_world, enricher):
        prober = FastProber(tiny_world)
        name = tiny_world.thirdparties["ENOM"].domains[0]
        enriched = enricher.enrich_segments(prober.observe_segments(name))
        for left, right in zip(enriched, enriched[1:]):
            assert left.end == right.start


class TestHotPathCaches:
    def test_string_and_parsed_lookups_agree(self, tiny_world, enricher):
        import ipaddress

        pfx2as = tiny_world.pfx2as_at(0)
        addresses = [
            hoster.host_address("probe.example")
            for hoster in tiny_world.hosters[:5]
        ]
        for address in addresses:
            assert pfx2as.lookup(address) == pfx2as.lookup(
                ipaddress.ip_address(address)
            )

    def test_interning_shares_enriched_observations(self, tiny_world):
        fresh = AsnEnricher(tiny_world)
        prober = FastProber(tiny_world)
        name = tiny_world.thirdparties["ENOM"].domains[0]
        raw = prober.observe_segments(name)
        first = fresh.enrich_segments(raw)
        hits_after_first = fresh.intern_hits
        second = fresh.enrich_segments(raw)
        assert second == first
        # The rerun re-derives every (observation, origins) pair, so each
        # segment is an intern hit the second time around.
        assert fresh.intern_hits >= hits_after_first + len(second)
        for left, right in zip(first, second):
            assert left.observation is right.observation

    def test_diversion_reuses_interned_observation(self, tiny_world):
        """A BGP flap returning to the original origins shares one object."""
        fresh = AsnEnricher(tiny_world)
        prober = FastProber(tiny_world)
        name = tiny_world.thirdparties["ENOM"].domains[0]
        enriched = fresh.enrich_segments(prober.observe_segments(name))
        by_key = {}
        for segment in enriched:
            key = segment.observation.asns
            if key in by_key:
                assert segment.observation is by_key[key]
            else:
                by_key[key] = segment.observation
        assert len(by_key) < len(enriched)
