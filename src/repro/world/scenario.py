"""The calibrated "paper world": populations, adoption, and anomalies.

All targets are expressed in **paper units** (absolute domain counts as
reported or visually estimated from the paper's figures) and divided by
``ScenarioConfig.scale``. The default scale of 1000 yields a ~140k-domain
world whose *shapes* — growth ratios, method mixes, anomaly calendar,
peak-duration quantiles — match the paper's; absolute counts are 1/1000th.

Calibration sources:

* zone sizes and growth: §4.2 ("from about 140M to 152M domains", 1.09×);
* namespace shares: Fig. 4 (com 82.47 %, net 10.33 %, org 7.21 %) and the
  DPS-use skew (com 85.71 %, net 8.22 %, org 6.07 %);
* per-provider quiet levels and method mixes: Fig. 3 and §4.3 (CloudFlare
  ~75 % delegation; Incapsula ~0.02 % delegation; Verisign delegation >
  diversion during the first eleven months);
* the third-party anomaly calendar: §4.4.1 with the paper's dates and
  domain counts (Wix 1.76M and 1.1M, ENOM/ZOHO ≤700k, Namecheap ~247k,
  Sedo ~716k on 22 Nov 2015, Fabulous ~355k, SiteMatrix ~170k);
* on-demand peak-duration P80 targets: Fig. 8 (Neustar 4d, Level 3 4d,
  CenturyLink 6d, Akamai 10d, Incapsula 11d, Verisign 16d, DOSarrest 27d,
  CloudFlare 31d, F5 79d);
* .nl and Alexa: §4.2 / Fig. 6 (10.5 % vs 1.8 %; 11.8 %).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.world.attacks import AttackModel
from repro.world.domain import DnsConfig, DomainTimeline, Method
from repro.world.namespace import ChurnParameters, TldRegistry
from repro.world.entities import (
    HostingProvider,
    Organization,
    provision_organization,
)
from repro.world.ipam import stable_hash
from repro.world.providers import DPSProvider, build_paper_providers
from repro.world.thirdparty import DiversionWindow, ThirdParty
from repro.world.timeline import CCTLD_START_DAY, GTLD_DAYS
from repro.world.world import World

GTLD_SHARES = {"com": 0.8247, "net": 0.1033, "org": 0.0721}
DPS_TLD_SKEW = {"com": 0.8571, "net": 0.0822, "org": 0.0607}

#: (start, end) always-on customer targets in paper units (thousands of
#: domains ×1000), per provider — quiet levels read off Fig. 3.
ORGANIC_TARGETS: Dict[str, Tuple[int, int]] = {
    "CloudFlare": (2_200_000, 3_300_000),
    "Incapsula": (120_000, 230_000),
    "Verisign": (280_000, 360_000),
    "Akamai": (250_000, 290_000),
    "Neustar": (120_000, 140_000),
    "CenturyLink": (60_000, 65_000),
    "DOSarrest": (40_000, 60_000),
    "F5 Networks": (15_000, 15_000),
    "Level 3": (60_000, 70_000),
}

#: Method mixes per provider: (method, weight, divert).
METHOD_MIXES: Dict[str, Tuple[Tuple[Method, float, bool], ...]] = {
    "CloudFlare": (
        (Method.NS_DELEGATION, 0.75, True),
        (Method.CNAME, 0.24, True),
        (Method.A_RECORD, 0.01, True),
    ),
    "Incapsula": (
        (Method.CNAME, 0.9995, True),
        (Method.NS_DELEGATION, 0.0005, True),
    ),
    "Verisign": (
        (Method.NS_DELEGATION, 0.55, False),  # Managed DNS, no diversion
        (Method.NS_DELEGATION, 0.35, True),
        (Method.A_RECORD, 0.10, True),
    ),
    "Akamai": (
        (Method.CNAME, 0.80, True),
        (Method.NS_DELEGATION, 0.20, True),
    ),
    "Neustar": (
        (Method.NS_DELEGATION, 0.60, True),
        (Method.CNAME, 0.30, True),
        (Method.A_RECORD, 0.10, True),
    ),
    "CenturyLink": (
        (Method.NS_DELEGATION, 0.50, True),
        (Method.A_RECORD, 0.50, True),
    ),
    "DOSarrest": ((Method.A_RECORD, 1.0, True),),
    "F5 Networks": ((Method.A_RECORD, 1.0, True),),
    "Level 3": (
        (Method.NS_DELEGATION, 0.40, True),
        (Method.A_RECORD, 0.60, True),
    ),
}

#: On-demand populations (paper units) and Fig. 8 P80 duration targets.
ON_DEMAND_TARGETS: Dict[str, Tuple[int, int]] = {
    "Neustar": (60_000, 4),
    "Level 3": (25_000, 4),
    "CenturyLink": (30_000, 6),
    "Akamai": (30_000, 10),
    "Incapsula": (25_000, 11),
    "Verisign": (30_000, 16),
    "DOSarrest": (15_000, 27),
    "CloudFlare": (40_000, 31),
    "F5 Networks": (8_000, 79),
}


@dataclass
class ScenarioConfig:
    """Knobs for building the paper world."""

    #: Divide every paper-unit count by this (1000 → ~140k domains).
    scale: int = 1000
    seed: int = 2016
    horizon: int = GTLD_DAYS
    hoster_count: int = 25
    #: Geometric per-day deletion probability for churn domains.
    deletion_rate: float = 2.0e-4
    #: Fraction of the day-0 always-on cohort that later abandons.
    abandon_fraction: float = 0.03
    #: When False, build the *counterfactual calm world*: third parties
    #: keep their base states and permanent migrations, but all transient
    #: diversion windows, outages, and on-demand attack mitigation are
    #: dropped. Comparing the calm world's true growth with the cleaned
    #: estimate from the full world validates the §4.2 anomaly cleaning.
    include_transient_anomalies: bool = True

    def scaled(self, paper_count: float) -> int:
        """A paper-unit count brought to this scenario's scale, at least 1."""
        return max(1, round(paper_count / self.scale))


def build_paper_world(config: Optional[ScenarioConfig] = None) -> World:
    """Build the full calibrated world. Deterministic for a given config."""
    config = config or ScenarioConfig()
    builder = _ScenarioBuilder(config)
    return builder.build()


class _ScenarioBuilder:
    """Stepwise construction of the paper world."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.world = World(horizon=config.horizon)
        self.hosters: List[HostingProvider] = []
        self.providers: Dict[str, DPSProvider] = {}
        self._counter = 0
        #: Names eligible for organic protection (not third-party owned).
        self._pool: Dict[str, List[str]] = {"com": [], "net": [], "org": []}
        #: Adoption day per organically protected domain (for Alexa).
        self.adoption_days: Dict[str, int] = {}
        #: Organic adopters that later abandon their provider.
        self.abandoned: set = set()
        self._protected: set = set()

    # -- entry point ---------------------------------------------------------

    def build(self) -> World:
        self._build_infrastructure()
        self._build_populations()
        self._build_third_parties()
        self._assign_organic_adoption()
        self._assign_on_demand()
        self._build_nl()
        self._build_alexa()
        return self.world

    # -- infrastructure -----------------------------------------------------------

    def _build_infrastructure(self) -> None:
        world = self.world
        self.providers = build_paper_providers(
            world.as_registry, world.allocator
        )
        world.providers = self.providers
        for provider in self.providers.values():
            world.announce(provider)
            for sld in provider.ns_slds + provider.cname_slds:
                world.register_ns_owner(sld, provider)

        for index in range(self.config.hoster_count):
            hoster = HostingProvider(
                name=f"HostCo-{index + 1}",
                ns_sld=f"hostco{index + 1}-dns.com",
                dual_stack=(index % 5 == 0),
            )
            provision_organization(
                hoster,
                world.as_registry,
                world.allocator,
                prefixlen=18,
                v6=hoster.dual_stack,
            )
            world.announce(hoster)
            world.register_ns_owner(hoster.ns_sld, hoster)
            self.hosters.append(hoster)
            world.hosters.append(hoster)

        self.amazon = Organization(name="Amazon.com, Inc.")
        provision_organization(
            self.amazon, world.as_registry, world.allocator,
            prefixlen=16, asn=14618,
        )
        world.announce(self.amazon)
        world.register_ns_owner("amazonaws.com", self.amazon)

        world.tld_windows = {
            "com": (0, self.config.horizon),
            "net": (0, self.config.horizon),
            "org": (0, self.config.horizon),
            "nl": (
                CCTLD_START_DAY,
                self.config.horizon - CCTLD_START_DAY,
            ),
        }

    # -- churn populations -----------------------------------------------------------

    def _new_name(self, tld: str) -> str:
        self._counter += 1
        return f"d{self._counter:07d}.{tld}"

    def _pick_hoster(self) -> HostingProvider:
        # Zipf-ish popularity: hoster k with weight 1/(k+1).
        weights = [1.0 / (k + 1) for k in range(len(self.hosters))]
        return self.rng.choices(self.hosters, weights=weights, k=1)[0]

    def _add_churn_domain(
        self, tld: str, created: int, deleted: Optional[int],
        name: Optional[str] = None,
    ) -> DomainTimeline:
        name = name if name is not None else self._new_name(tld)
        hoster = self._pick_hoster()
        timeline = DomainTimeline(
            name=name,
            tld=tld,
            created=created,
            base_config=hoster.base_config(name),
            deleted=deleted,
        )
        self.world.add_domain(timeline)
        if deleted is None and tld in self._pool:
            self._pool[tld].append(name)
        return timeline

    def _build_populations(self) -> None:
        """Initial gTLD zones plus daily churn hitting 1.09× growth."""
        config = self.config
        start_total = config.scaled(140_000_000)
        end_total = config.scaled(152_300_000)
        for tld, share in GTLD_SHARES.items():
            registry = TldRegistry(
                tld=tld,
                parameters=ChurnParameters(
                    initial=round(start_total * share),
                    target_end=round(end_total * share),
                    horizon=config.horizon,
                    deletion_rate=config.deletion_rate,
                ),
                rng=self.rng,
                name_factory=self._new_name,
            )
            for name, created, deleted in registry.population():
                self._add_churn_domain(tld, created, deleted, name=name)

    # -- third parties (§4.4.1 calendar) ------------------------------------------

    def _third_party_org(
        self, name: str, asn: Optional[int], prefix_count: int = 2,
        prefixlen: int = 22,
    ) -> Organization:
        org = Organization(name=name)
        provision_organization(
            org, self.world.as_registry, self.world.allocator,
            prefix_count=prefix_count, prefixlen=prefixlen, asn=asn,
        )
        return org

    def _claim_domains(self, count: int, tld: str = "com") -> List[str]:
        """Permanently assign churn-pool domains to a third party.

        Third parties existed before the study, so they claim from the
        front of the pool — the day-0 cohort — not from late churn births.
        """
        pool = self._pool[tld]
        if count > len(pool):
            raise ValueError(f"not enough {tld} domains to claim {count}")
        claimed = pool[:count]
        del pool[:count]
        self._protected.update(claimed)
        return claimed

    def _build_third_parties(self) -> None:
        config = self.config
        world = self.world
        providers = self.providers

        # ---- Wix: swings between F5 and Incapsula (footnotes 11, 17).
        wix = self._third_party_org("Wix.com Ltd", asn=58182)
        world.register_ns_owner("wixdns.net", wix)
        wix_prefixes = tuple(str(p) for p in wix.prefixes)
        incapsula_asn = frozenset({providers["Incapsula"].primary_asn()})
        f5_asn = frozenset({providers["F5 Networks"].primary_asn()})

        def wix_base(domain: str) -> DnsConfig:
            token = f"site-{stable_hash(domain) % 10**6:06d}"
            aws_edge = self.amazon.host_address(domain)
            return DnsConfig(
                ns_names=("ns1.wixdns.net", "ns2.wixdns.net"),
                apex_ips=(aws_edge,),
                www_cnames=(f"{token}.wixsite.amazonaws.com",),
                www_ips=(aws_edge,),
            )

        def wix_diverted(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=("ns1.wixdns.net", "ns2.wixdns.net"),
                apex_ips=(wix.host_address(domain),),
                www_ips=(wix.host_address("www." + domain),),
            )

        def wix_window(
            start: int, end: Optional[int], asns: FrozenSet[int],
            fraction: float, seed: int,
        ) -> DiversionWindow:
            provider_name = (
                "Incapsula" if asns == incapsula_asn else "F5 Networks"
            )
            return DiversionWindow(
                start=start,
                end=end,
                diverted=wix_diverted,
                fraction=fraction,
                seed=seed,
                routing=tuple((p, asns) for p in wix_prefixes),
                provider=provider_name,
                group_hint="ns:wixdns.net",
            )

        wix_party = ThirdParty(
            name="Wix",
            base=wix_base,
            domains=self._claim_domains(config.scaled(1_800_000)),
            windows=[
                # Early March 2015: a diverted cohort moves F5 → Incapsula
                # (the 5 Mar 2015 peak of ~1.1M names, with the opposing
                # F5 trough).
                wix_window(0, 4, f5_asn, 0.62, seed=11),
                wix_window(4, 11, incapsula_asn, 0.62, seed=11),
                # May–June 2015 plateau, same cohort (Fig. 7's point).
                wix_window(61, 122, incapsula_asn, 0.62, seed=11),
                # Frequent short Incapsula swings of the same cohort —
                # these dominate the Fig. 8 duration CDF (P80 ≈ 11d).
                wix_window(140, 147, incapsula_asn, 0.62, seed=11),
                wix_window(160, 169, incapsula_asn, 0.62, seed=11),
                # A long F5 episode (F5's Fig. 8 P80 is 79 days).
                wix_window(175, 255, f5_asn, 0.45, seed=12),
                wix_window(262, 268, incapsula_asn, 0.62, seed=11),
                wix_window(290, 298, incapsula_asn, 0.55, seed=13),
                wix_window(310, 317, incapsula_asn, 0.62, seed=11),
                wix_window(330, 336, f5_asn, 0.40, seed=14),
                wix_window(355, 363, incapsula_asn, 0.62, seed=11),
                # April 2016: the 1.76M-name Incapsula peak (cf. ①).
                wix_window(407, 415, incapsula_asn, 0.98, seed=15),
                wix_window(450, 458, incapsula_asn, 0.62, seed=11),
                # June–July 2016 swing.
                wix_window(490, 500, incapsula_asn, 0.50, seed=16),
                wix_window(520, 527, incapsula_asn, 0.62, seed=11),
            ],
        )
        world.thirdparties["Wix"] = wix_party

        # ---- ENOM: /24s route to Verisign during diversion (footnote 13).
        enom = self._third_party_org(
            "eNom, Incorporated", asn=21740, prefix_count=2, prefixlen=24
        )
        world.register_ns_owner("enomdns.com", enom)
        enom_prefixes = tuple(str(p) for p in enom.prefixes)
        verisign_asn = frozenset({26415})
        enom_base_routing = tuple(
            (p, frozenset({21740})) for p in enom_prefixes
        )

        def enom_base(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=("ns1.enomdns.com", "ns2.enomdns.com"),
                apex_ips=(enom.host_address(domain),),
                www_ips=(enom.host_address(domain),),
            )

        def enom_bgp_window(start: int, end: int, seed: int) -> DiversionWindow:
            return DiversionWindow(
                start=start,
                end=end,
                diverted=None,  # BGP-only: DNS untouched
                seed=seed,
                routing=tuple((p, verisign_asn) for p in enom_prefixes),
                provider="Verisign",
                group_hint="ns:enomdns.com",
            )

        world.thirdparties["ENOM"] = ThirdParty(
            name="ENOM",
            base=enom_base,
            domains=self._claim_domains(config.scaled(500_000)),
            base_routing=enom_base_routing,
            windows=[
                enom_bgp_window(80, 101, seed=21),
                enom_bgp_window(152, 163, seed=22),
                enom_bgp_window(235, 256, seed=23),
                enom_bgp_window(320, 341, seed=24),
                enom_bgp_window(425, 446, seed=25),
                enom_bgp_window(505, 520, seed=26),
            ],
        )

        # ---- ZOHO: two prefixes normally in AS2639 (footnote 13).
        zoho = self._third_party_org(
            "ZOHO Corporation", asn=2639, prefix_count=2, prefixlen=23
        )
        world.register_ns_owner("zohodns.com", zoho)
        zoho_prefixes = tuple(str(p) for p in zoho.prefixes)

        def zoho_base(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=("ns1.zohodns.com", "ns2.zohodns.com"),
                apex_ips=(zoho.host_address(domain),),
                www_ips=(zoho.host_address(domain),),
            )

        world.thirdparties["ZOHO"] = ThirdParty(
            name="ZOHO",
            base=zoho_base,
            domains=self._claim_domains(config.scaled(200_000)),
            base_routing=tuple((p, frozenset({2639})) for p in zoho_prefixes),
            windows=[
                DiversionWindow(
                    start=start, end=end, diverted=None, seed=seed,
                    routing=tuple((p, verisign_asn) for p in zoho_prefixes),
                    provider="Verisign",
                    group_hint="ns:zohodns.com",
                )
                for start, end, seed in (
                    (120, 136, 31), (262, 272, 32), (455, 472, 33),
                )
            ],
        )

        # ---- Namecheap: registrar-servers.com NS starts answering
        #      CloudFlare-announced addresses (Feb 2016, cf. ③).
        namecheap = self._third_party_org("Namecheap, Inc.", asn=22612)
        world.register_ns_owner("registrar-servers.com", namecheap)
        cloudflare = providers["CloudFlare"]

        def namecheap_base(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=(
                    "dns1.registrar-servers.com",
                    "dns2.registrar-servers.com",
                ),
                apex_ips=(namecheap.host_address(domain),),
                www_ips=(namecheap.host_address(domain),),
            )

        def namecheap_diverted(domain: str) -> DnsConfig:
            shared = cloudflare.shared_addresses(domain)
            return DnsConfig(
                ns_names=(
                    "dns1.registrar-servers.com",
                    "dns2.registrar-servers.com",
                ),
                apex_ips=shared,
                www_ips=shared,
            )

        world.thirdparties["Namecheap"] = ThirdParty(
            name="Namecheap",
            base=namecheap_base,
            domains=self._claim_domains(config.scaled(247_000)),
            windows=[
                DiversionWindow(
                    start=340, end=355, diverted=namecheap_diverted, seed=41,
                    provider="CloudFlare",
                    group_hint="ns:registrar-servers.com",
                )
            ],
        )

        # ---- Sedo Domain Parking: parked pages behind Akamai; the
        #      22 Nov 2015 DNS issue makes them unmeasurable for a day.
        sedo = self._third_party_org("Sedo GmbH", asn=47846, prefix_count=1)
        world.register_ns_owner("sedoparking.com", sedo)
        akamai = providers["Akamai"]

        def sedo_base(domain: str) -> DnsConfig:
            shared = akamai.shared_addresses(domain)
            return DnsConfig(
                ns_names=("ns1.sedoparking.com", "ns2.sedoparking.com"),
                apex_ips=shared,
                www_ips=shared,
            )

        sedo_party = ThirdParty(
            name="Sedo",
            base=sedo_base,
            domains=self._claim_domains(config.scaled(716_000)),
        )
        sedo_party.dark_days.append((266, 267))  # 2015-11-22
        world.thirdparties["Sedo"] = sedo_party

        # ---- Fabulous: ~355k domains leave CenturyLink in Feb 2016 (⑤).
        fabulous = self._third_party_org("Fabulous.com Pty Ltd", asn=24155)
        world.register_ns_owner("fabulous-dns.com", fabulous)
        centurylink = providers["CenturyLink"]

        def fabulous_base(domain: str) -> DnsConfig:
            shared = centurylink.shared_addresses(domain)
            return DnsConfig(
                ns_names=("ns1.fabulous-dns.com", "ns2.fabulous-dns.com"),
                apex_ips=shared,
                www_ips=shared,
            )

        def fabulous_after(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=("ns1.fabulous-dns.com", "ns2.fabulous-dns.com"),
                apex_ips=(fabulous.host_address(domain),),
                www_ips=(fabulous.host_address(domain),),
            )

        world.thirdparties["Fabulous"] = ThirdParty(
            name="Fabulous",
            base=fabulous_base,
            domains=self._claim_domains(config.scaled(355_000)),
            windows=[
                DiversionWindow(
                    start=345, end=None, diverted=fabulous_after, seed=51,
                    jitter=2,
                    provider="CenturyLink",
                    group_hint="ns:fabulous-dns.com",
                )
            ],
        )

        # ---- SiteMatrix: a domainer moves ~170k names to Incapsula in
        #      June 2016 (cf. ②), permanently.
        sitematrix = self._third_party_org("SiteMatrix Fund", asn=64000)
        world.register_ns_owner("sitematrixdns.com", sitematrix)
        incapsula = providers["Incapsula"]

        def sitematrix_base(domain: str) -> DnsConfig:
            return DnsConfig(
                ns_names=("ns1.sitematrixdns.com", "ns2.sitematrixdns.com"),
                apex_ips=(sitematrix.host_address(domain),),
                www_ips=(sitematrix.host_address(domain),),
            )

        def sitematrix_after(domain: str) -> DnsConfig:
            shared = incapsula.shared_addresses(domain)
            return DnsConfig(
                ns_names=("ns1.sitematrixdns.com", "ns2.sitematrixdns.com"),
                apex_ips=shared,
                www_cnames=(incapsula.cname_target(domain),),
                www_ips=shared,
            )

        world.thirdparties["SiteMatrix"] = ThirdParty(
            name="SiteMatrix",
            base=sitematrix_base,
            domains=self._claim_domains(config.scaled(170_000)),
            windows=[
                DiversionWindow(
                    start=478, end=None, diverted=sitematrix_after, seed=61,
                    provider="Incapsula",
                    group_hint="ns:sitematrixdns.com",
                )
            ],
        )

        # Seed every third-party domain's base configuration, then apply
        # the behaviour calendars (the calm world keeps only the permanent
        # migrations).
        for party in world.thirdparties.values():
            for domain_name in party.domains:
                timeline = world.domains[domain_name]
                timeline.set_config(timeline.created, party.base(domain_name))
            if not config.include_transient_anomalies:
                party.windows = [
                    window for window in party.windows if window.end is None
                ]
                party.dark_days.clear()
            party.apply(world, config.horizon)

    # -- organic adoption -----------------------------------------------------------

    def _protection_tld(self, rng: Optional[random.Random] = None) -> str:
        rng = rng if rng is not None else self.rng
        tlds = list(DPS_TLD_SKEW)
        weights = [DPS_TLD_SKEW[t] for t in tlds]
        return rng.choices(tlds, weights=weights, k=1)[0]

    def _take_pool_domain(
        self,
        tld: Optional[str] = None,
        created_by: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> str:
        """Claim an unprotected pool domain, optionally created by a day."""
        rng = rng if rng is not None else self.rng
        tld = tld or self._protection_tld(rng)
        pool = self._pool[tld]
        attempts = 0
        while pool and attempts < 10_000:
            index = rng.randrange(len(pool))
            name = pool[index]
            attempts += 1
            if (
                created_by is not None
                and self.world.domains[name].created > created_by
            ):
                continue
            pool[index] = pool[-1]
            pool.pop()
            self._protected.add(name)
            return name
        raise ValueError(f"pool for {tld} exhausted")

    def _pick_method(self, provider_name: str) -> Tuple[Method, bool]:
        mixes = METHOD_MIXES[provider_name]
        weights = [weight for _, weight, _ in mixes]
        method, _, divert = self.rng.choices(mixes, weights=weights, k=1)[0]
        return method, divert

    def _protect_from(
        self, name: str, provider: DPSProvider, day: int,
        method: Method, divert: bool,
    ) -> None:
        timeline = self.world.domains[name]
        day = max(day, timeline.created)
        base = timeline.config_at(day)
        timeline.set_config(
            day, provider.protect(base, name, method, divert=divert)
        )
        self.adoption_days[name] = day

    def _assign_organic_adoption(self) -> None:
        config = self.config
        for provider_name, (start_paper, end_paper) in ORGANIC_TARGETS.items():
            provider = self.providers[provider_name]
            start_count = config.scaled(start_paper)
            end_count = config.scaled(end_paper)
            # Day-0 cohort.
            cohort: List[str] = []
            for _ in range(start_count):
                name = self._take_pool_domain(created_by=0)
                method, divert = self._pick_method(provider_name)
                self._protect_from(name, provider, 0, method, divert)
                cohort.append(name)
            # A few abandon mid-study (outflux for Fig. 7).
            abandon_count = int(len(cohort) * config.abandon_fraction)
            for name in self.rng.sample(cohort, abandon_count):
                timeline = self.world.domains[name]
                leave_day = self.rng.randrange(60, config.horizon - 30)
                hoster = self._pick_hoster()
                timeline.set_config(leave_day, hoster.base_config(name))
                self.abandoned.add(name)
            # Arrivals spread over the study (CloudFlare-style influx),
            # topped up to compensate the abandoners.
            arrivals = max(0, end_count - start_count) + abandon_count
            for _ in range(arrivals):
                day = self.rng.randrange(1, config.horizon)
                name = self._take_pool_domain(created_by=day)
                method, divert = self._pick_method(provider_name)
                self._protect_from(name, provider, day, method, divert)

    # -- on-demand populations (Fig. 8, driven by §2.3 attack episodes) -----

    def _assign_on_demand(self) -> None:
        """On-demand customers divert while under (simulated) attack.

        Each customer gets an :class:`~repro.world.attacks.AttackModel`
        calibrated to the provider's Fig. 8 P80; the resulting mitigation
        windows become A-record diversion episodes.
        """
        config = self.config
        if not config.include_transient_anomalies:
            return
        # A dedicated stream keeps the calm world (which skips this step
        # entirely) byte-identical everywhere else.
        od_rng = random.Random(config.seed ^ 0x0D0D)
        for provider_name, (paper_count, p80) in ON_DEMAND_TARGETS.items():
            provider = self.providers[provider_name]
            count = config.scaled(paper_count)
            for _ in range(count):
                name = self._take_pool_domain(created_by=0, rng=od_rng)
                timeline = self.world.domains[name]
                base = timeline.config_at(timeline.created)
                model = AttackModel(
                    rng=random.Random(od_rng.getrandbits(32)),
                    p80_days=p80,
                    mean_gap_days=30.0,
                )
                windows = model.mitigation_windows(
                    start=timeline.created, horizon=config.horizon - 1,
                )
                diverted = provider.protect(
                    base, name, Method.A_RECORD, divert=True
                )
                for window in windows:
                    timeline.set_config(window.start, diverted)
                    timeline.set_config(window.end, base)

    # -- .nl and Alexa ---------------------------------------------------------------

    def _build_nl(self) -> None:
        config = self.config
        window_start = CCTLD_START_DAY
        window_days = config.horizon - window_start
        initial = config.scaled(5_750_000)
        self._pool["nl"] = []
        for _ in range(initial):
            name = self._new_name("nl")
            hoster = self._pick_hoster()
            timeline = DomainTimeline(
                name=name, tld="nl", created=0,
                base_config=hoster.base_config(name),
            )
            self.world.add_domain(timeline)
            self._pool["nl"].append(name)
        # 1.8 % zone growth over the window: steady creations.
        extra = round(initial * 0.018)
        carry = 0.0
        per_day = extra / window_days
        for day in range(window_start, config.horizon):
            carry += per_day
            births = int(carry)
            carry -= births
            for _ in range(births):
                name = self._new_name("nl")
                hoster = self._pick_hoster()
                self.world.add_domain(
                    DomainTimeline(
                        name=name, tld="nl", created=day,
                        base_config=hoster.base_config(name),
                    )
                )
        # DPS adoption in .nl: baseline before the window, +10.5 % inside.
        baseline = config.scaled(100_000)
        growth = round(baseline * 0.105)
        cloudflare = self.providers["CloudFlare"]
        for index in range(baseline + growth):
            method, divert = self._pick_method("CloudFlare")
            if index < baseline:
                day = 0
            else:
                day = self.rng.randrange(window_start, config.horizon)
            name = self._take_pool_domain("nl", created_by=day)
            self._protect_from(name, cloudflare, day, method, divert)

    def _build_alexa(self) -> None:
        """A daily-churning popularity ranking, Alexa-style.

        A stable *core* (the perennially popular sites, where the DPS
        adopters live) is on the list every day; the remaining list slots
        rotate through a larger *tail* of names, so the union of names
        over the window (Table 1's 2.2M unique SLDs) far exceeds the
        daily list size (1M).
        """
        config = self.config
        window_start = CCTLD_START_DAY
        window_days = config.horizon - window_start
        daily_size = config.scaled(1_000_000)
        unique_target = max(config.scaled(2_200_000), daily_size)

        core: List[str] = []
        # Core members protected before the window (the baseline level).
        baseline = config.scaled(75_000)
        protected_pool = [
            name
            for name, day in self.adoption_days.items()
            if day < window_start
            and name not in self.abandoned
            and self.world.domains[name].alive(window_start)
        ]
        core.extend(
            self.rng.sample(protected_pool, min(baseline, len(protected_pool)))
        )
        # Core members adopting inside the window (the ~11.8 % growth).
        adopters_inside = [
            name
            for name, day in self.adoption_days.items()
            if window_start <= day < config.horizon
        ]
        wanted_growth = config.scaled(75_000 * 0.118)
        core.extend(
            self.rng.sample(
                adopters_inside, min(wanted_growth, len(adopters_inside))
            )
        )
        fill_pool = [
            name
            for tld in ("com", "net", "org", "nl")
            for name in self._pool.get(tld, [])
        ]
        self.rng.shuffle(fill_pool)
        core_target = max(len(core), round(daily_size * 0.6))
        fill_iter = iter(fill_pool)
        seen = set(core)
        while len(core) < core_target:
            name = next(fill_iter)
            if name not in seen:
                seen.add(name)
                core.append(name)

        members: Dict[str, List[Tuple[int, int]]] = {
            name: [(window_start, config.horizon)] for name in core
        }
        # Rotating tail: each of the remaining slots cycles through
        # several names over the window.
        tail_slots = max(0, daily_size - len(core))
        tail_names = max(0, unique_target - len(core))
        if tail_slots and tail_names:
            per_slot = max(1, -(-tail_names // tail_slots))  # ceil
            for slot in range(tail_slots):
                boundaries = [
                    window_start + (window_days * i) // per_slot
                    for i in range(per_slot + 1)
                ]
                for start, end in zip(boundaries, boundaries[1:]):
                    if start >= end:
                        continue
                    name = next(fill_iter, None)
                    if name is None or name in seen:
                        continue
                    seen.add(name)
                    members[name] = [(start, end)]
        self.world.alexa_names = list(members)
        self.world.alexa_members = members
