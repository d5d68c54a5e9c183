"""IP prefixes mapped to values, with longest-prefix match by hashing.

Per address family the table keeps one dict per stored prefix length,
keyed by the network's leading ``prefixlen`` bits, with the lengths
themselves held longest first. A most-specific-prefix query — the core
of pfx2as enrichment — shifts the address once per stored length and
probes that length's dict, so it costs at most as many probes as the
table has distinct lengths (a Routeviews snapshot has a handful), never
more than 32/128. Nothing is cached: every query reads the dicts the
mutations write.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar, Union

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
V = TypeVar("V")
D = TypeVar("D")

_NETWORK: Dict[int, type[IPNetwork]] = {
    4: ipaddress.IPv4Network, 6: ipaddress.IPv6Network,
}
_WIDTH = {4: ipaddress.IPV4LENGTH, 6: ipaddress.IPV6LENGTH}


class PrefixTable(Generic[V]):
    """Maps IP prefixes to values; supports exact and longest-prefix match."""

    def __init__(self) -> None:
        #: version → prefixlen → {network_int >> host_bits: value}. Each
        #: family's dict iterates longest prefixlen first and holds no
        #: empty length.
        self._lengths: Dict[int, Dict[int, Dict[int, V]]] = {4: {}, 6: {}}

    @staticmethod
    def _locate(prefix: Union[str, IPNetwork]) -> Tuple[int, int, int]:
        """(version, prefixlen, key in that length's dict) of *prefix*."""
        if isinstance(prefix, str):
            prefix = ipaddress.ip_network(prefix, strict=True)
        host_bits = _WIDTH[prefix.version] - prefix.prefixlen
        key = int(prefix.network_address) >> host_bits
        return prefix.version, prefix.prefixlen, key

    # -- mutation ---------------------------------------------------------

    def insert(self, prefix: Union[str, IPNetwork], value: V) -> None:
        """Insert or replace the value at *prefix*."""
        version, prefixlen, key = self._locate(prefix)
        lengths = self._lengths[version]
        if prefixlen not in lengths:
            lengths[prefixlen] = {}
            lengths = dict(sorted(lengths.items(), reverse=True))
            self._lengths[version] = lengths
        lengths[prefixlen][key] = value

    def remove(self, prefix: Union[str, IPNetwork]) -> bool:
        """Remove the value at exactly *prefix*; True if it existed."""
        version, prefixlen, key = self._locate(prefix)
        lengths = self._lengths[version]
        slot = lengths.get(prefixlen, {})
        if key not in slot:
            return False
        del slot[key]
        if not slot:
            del lengths[prefixlen]
        return True

    # -- queries ---------------------------------------------------------------

    def get(self, prefix: Union[str, IPNetwork]) -> Optional[V]:
        """The value at exactly *prefix*, or None."""
        version, prefixlen, key = self._locate(prefix)
        return self._lengths[version].get(prefixlen, {}).get(key)

    def __contains__(self, prefix: Union[str, IPNetwork]) -> bool:
        version, prefixlen, key = self._locate(prefix)
        return key in self._lengths[version].get(prefixlen, ())

    def _find(
        self, address: Union[str, IPAddress]
    ) -> Optional[Tuple[int, int, int, V]]:
        """``(version, prefixlen, key, value)`` of the most-specific stored
        prefix containing *address*, or ``None``: one shift and one dict
        probe per stored length, longest first."""
        if isinstance(address, str):
            address = ipaddress.ip_address(address)
        version = address.version
        bits, width = int(address), _WIDTH[version]
        for prefixlen, slot in self._lengths[version].items():
            key = bits >> (width - prefixlen)
            if key in slot:
                return version, prefixlen, key, slot[key]
        return None

    def longest_value(
        self, address: Union[str, IPAddress], default: D
    ) -> Union[V, D]:
        """The value at the most-specific stored prefix containing
        *address*, or *default* when none does.

        The §3.2 lookup for callers that need only the value: no network
        object is built. A stored falsy value is a match, not a miss.
        """
        found = self._find(address)
        return default if found is None else found[3]

    def longest_match(
        self, address: Union[str, IPAddress]
    ) -> Optional[Tuple[IPNetwork, V]]:
        """The most-specific stored prefix containing *address*.

        Returns ``(prefix, value)`` or ``None``. This is the §3.2 operation:
        "the most-specific prefix in which an address was contained".
        Accepts a pre-parsed :data:`IPAddress` to skip text parsing.
        """
        found = self._find(address)
        if found is None:
            return None
        version, prefixlen, key, value = found
        host_bits = _WIDTH[version] - prefixlen
        return _NETWORK[version]((key << host_bits, prefixlen)), value

    def __len__(self) -> int:
        return sum(
            len(slot)
            for lengths in self._lengths.values()
            for slot in lengths.values()
        )

    def items(self) -> Iterator[Tuple[IPNetwork, V]]:
        """All stored (prefix, value) pairs, ordered by (version, network
        address, prefixlen): a covering prefix before what it covers."""
        for version, lengths in self._lengths.items():
            network, width = _NETWORK[version], _WIDTH[version]
            # (address, prefixlen) is unique, so values are never compared.
            for address, prefixlen, value in sorted(
                (key << (width - prefixlen), prefixlen, value)
                for prefixlen, slot in lengths.items()
                for key, value in slot.items()
            ):
                yield network((address, prefixlen)), value
