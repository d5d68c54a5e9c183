"""The nine DDoS Protection Service providers and their protection actions.

Each provider carries the ground-truth fingerprint from the paper's
Table 2 — AS numbers, CNAME second-level domains, NS second-level domains —
and knows how to rewrite a customer domain's :class:`DnsConfig` for each
diversion method of §2.1. The fingerprints here are *ground truth for the
simulation*; the methodology's Table 2 is re-derived from measurement data
by :mod:`repro.core.fingerprint` and compared against these.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.routing.asn import ASRegistry
from repro.world.domain import DnsConfig, Method
from repro.world.entities import Organization
from repro.world.ipam import PrefixAllocator, address_in, stable_hash

#: First names CloudFlare assigns to its authoritative name servers
#: (§4.3 footnote 10: 403 servers like ``kate.ns.cloudflare.com``).
_CLOUDFLARE_NS_POOL_SIZE = 403
_CLOUDFLARE_GIVEN_NAMES = (
    "kate", "ada", "ben", "carl", "dana", "eva", "finn", "gina", "hank",
    "iris", "jack", "kim", "liam", "mona", "nick", "olga", "pete", "quinn",
    "rosa", "sam", "tina", "ugo", "vera", "walt", "xena", "yuri", "zoe",
)


@dataclass
class DPSProvider(Organization):
    """A cloud-based DDoS protection provider."""

    #: CNAME second-level domains (Table 2, column 3).
    cname_slds: Tuple[str, ...] = ()
    #: NS second-level domains (Table 2, column 4).
    ns_slds: Tuple[str, ...] = ()
    #: Which diversion methods the provider's services support.
    methods: Tuple[Method, ...] = ()
    #: Number of shared cloud addresses customers land on.
    shared_address_count: int = 16
    #: Which of this provider's ASNs announces each of its prefixes.
    prefix_origins: Dict[ipaddress.IPv4Network, int] = field(
        default_factory=dict
    )

    _shared_pool: List[str] = field(default_factory=list)

    # -- infrastructure -----------------------------------------------------

    def build_shared_pool(self) -> None:
        """Precompute the shared anycast-style customer addresses."""
        self._shared_pool = []
        for prefix in self.prefixes:
            per_prefix = max(
                1, self.shared_address_count // max(1, len(self.prefixes))
            )
            for index in range(per_prefix):
                self._shared_pool.append(
                    address_in(prefix, f"{self.name}-shared-{index}")
                )

    def shared_addresses(self, key: str, count: int = 1) -> Tuple[str, ...]:
        """*count* shared cloud addresses for customer *key*."""
        if not self._shared_pool:
            self.build_shared_pool()
        pool = self._shared_pool
        start = stable_hash(key) % len(pool)
        return tuple(pool[(start + i) % len(pool)] for i in range(count))

    def supports(self, method: Method) -> bool:
        return method in self.methods

    # -- DNS fingerprint pieces ----------------------------------------------

    def cname_target(self, domain_name: str) -> str:
        """The provider-side canonical name for customer *domain_name*."""
        if not self.cname_slds:
            raise ValueError(f"{self.name} offers no CNAME redirection")
        sld = self.cname_slds[stable_hash(domain_name) % len(self.cname_slds)]
        token = f"{domain_name.split('.')[0]}-{stable_hash(domain_name) % 100000:05d}"
        return f"{token}.{sld}"

    def delegation_ns_names(self, domain_name: str) -> Tuple[str, ...]:
        """The provider name servers a delegated customer zone uses."""
        if not self.ns_slds:
            raise ValueError(f"{self.name} offers no managed DNS")
        sld = self.ns_slds[stable_hash(domain_name) % len(self.ns_slds)]
        if "cloudflare" in sld:
            # Named pool: <given-name><n>.ns.cloudflare.com style.
            picks = []
            base = stable_hash(domain_name)
            for i in range(2):
                index = (base + i * 7919) % _CLOUDFLARE_NS_POOL_SIZE
                given = _CLOUDFLARE_GIVEN_NAMES[
                    index % len(_CLOUDFLARE_GIVEN_NAMES)
                ]
                serial = index // len(_CLOUDFLARE_GIVEN_NAMES)
                label = given if serial == 0 else f"{given}{serial}"
                picks.append(f"{label}.ns.{sld}")
            return tuple(picks)
        return (f"ns1.{sld}", f"ns2.{sld}")

    def ns_address(self, ns_name: str) -> str:
        """The address one of this provider's name servers resolves to."""
        return self.host_address(ns_name)

    # -- protection actions (§2.1 / §2.3) ------------------------------------

    def protect(
        self,
        base: DnsConfig,
        domain_name: str,
        method: Method,
        divert: bool = True,
    ) -> DnsConfig:
        """The configuration of *domain_name* once protected via *method*.

        ``divert=False`` models delegation-without-diversion (e.g. a
        Verisign Managed DNS customer that has not enabled cloud
        mitigation): the provider controls the zone but address records
        still point at the origin.
        """
        if method == Method.BGP:
            # BGP diversion leaves the DNS untouched; the routing layer
            # moves the customer prefix origin instead.
            return base
        if not self.supports(method):
            raise ValueError(f"{self.name} does not support {method.value}")
        diverted = self.shared_addresses(domain_name, count=1)
        if method == Method.A_RECORD:
            return DnsConfig(
                ns_names=base.ns_names,
                apex_ips=diverted,
                www_ips=diverted,
            )
        if method == Method.CNAME:
            return DnsConfig(
                ns_names=base.ns_names,
                apex_ips=diverted,
                www_cnames=(self.cname_target(domain_name),),
                www_ips=diverted,
            )
        if method == Method.NS_DELEGATION:
            addresses = diverted if divert else base.apex_ips
            www = diverted if divert else (base.www_ips or base.apex_ips)
            return DnsConfig(
                ns_names=self.delegation_ns_names(domain_name),
                apex_ips=addresses,
                www_ips=www,
            )
        raise ValueError(f"unhandled method {method!r}")


@dataclass(frozen=True)
class ProviderBlueprint:
    """Static description of one of the nine studied providers (Table 2)."""

    name: str
    asns: Tuple[int, ...]
    cname_slds: Tuple[str, ...]
    ns_slds: Tuple[str, ...]
    methods: Tuple[Method, ...]


#: The paper's Table 2, verbatim, as the simulation's ground truth.
PAPER_PROVIDER_BLUEPRINTS: Tuple[ProviderBlueprint, ...] = (
    ProviderBlueprint(
        name="Akamai",
        asns=(20940, 16625, 32787),
        cname_slds=(
            "akamaiedge.net", "edgekey.net", "edgesuite.net", "akamai.net",
        ),
        ns_slds=("akam.net", "akamai.net", "akamaiedge.net"),
        methods=(Method.CNAME, Method.NS_DELEGATION, Method.A_RECORD,
                 Method.BGP),
    ),
    ProviderBlueprint(
        name="CenturyLink",
        asns=(209, 3561),
        cname_slds=(),
        ns_slds=(
            "savvis.net", "savvisdirect.net", "qwest.net",
            "centurytel.net", "centurylink.net",
        ),
        methods=(Method.NS_DELEGATION, Method.A_RECORD, Method.BGP),
    ),
    ProviderBlueprint(
        name="CloudFlare",
        asns=(13335,),
        cname_slds=("cloudflare.net",),
        ns_slds=("cloudflare.com",),
        methods=(Method.CNAME, Method.NS_DELEGATION, Method.A_RECORD),
    ),
    ProviderBlueprint(
        name="DOSarrest",
        asns=(19324,),
        cname_slds=(),
        ns_slds=(),
        methods=(Method.A_RECORD, Method.BGP),
    ),
    ProviderBlueprint(
        name="F5 Networks",
        asns=(55002,),
        cname_slds=(),
        ns_slds=(),
        methods=(Method.A_RECORD, Method.BGP),
    ),
    ProviderBlueprint(
        name="Incapsula",
        asns=(19551,),
        cname_slds=("incapdns.net",),
        ns_slds=("incapsecuredns.net",),
        methods=(Method.CNAME, Method.NS_DELEGATION, Method.A_RECORD,
                 Method.BGP),
    ),
    ProviderBlueprint(
        name="Level 3",
        asns=(3549, 3356, 11213, 10753),
        cname_slds=(),
        ns_slds=("l3.net", "level3.net"),
        methods=(Method.NS_DELEGATION, Method.A_RECORD, Method.BGP),
    ),
    ProviderBlueprint(
        name="Neustar",
        asns=(7786, 12008, 19905),
        cname_slds=("ultradns.net",),
        ns_slds=("ultradns.com", "ultradns.biz", "ultradns.net"),
        methods=(Method.CNAME, Method.NS_DELEGATION, Method.A_RECORD,
                 Method.BGP),
    ),
    ProviderBlueprint(
        name="Verisign",
        asns=(26415, 30060),
        cname_slds=(),
        ns_slds=("verisigndns.com",),
        methods=(Method.NS_DELEGATION, Method.A_RECORD, Method.BGP),
    ),
)

PROVIDER_NAMES: Tuple[str, ...] = tuple(
    blueprint.name for blueprint in PAPER_PROVIDER_BLUEPRINTS
)


def build_paper_providers(
    registry: ASRegistry,
    allocator: PrefixAllocator,
) -> Dict[str, DPSProvider]:
    """Instantiate the nine providers with their Table 2 identities.

    Every AS number from the table is registered under the provider's name
    (that is the "AS-to-name data" the §3.3 bootstrap starts from) and gets
    its own /20 of address space.
    """
    providers: Dict[str, DPSProvider] = {}
    for blueprint in PAPER_PROVIDER_BLUEPRINTS:
        provider = DPSProvider(
            name=blueprint.name,
            cname_slds=blueprint.cname_slds,
            ns_slds=blueprint.ns_slds,
            methods=blueprint.methods,
        )
        for asn in blueprint.asns:
            registry.register(blueprint.name, asn)
            provider.asns.append(asn)
            prefix = allocator.allocate(20)
            provider.prefixes.append(prefix)
            provider.prefix_origins[prefix] = asn
        provider.build_shared_pool()
        providers[blueprint.name] = provider
    return providers
