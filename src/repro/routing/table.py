"""A BGP-flavoured routing table: announcements, withdrawals, MOAS.

The table records which origin AS(es) announce each prefix on each day.
Multi-origin announcements (the same prefix announced by several ASes) are
kept as a set, matching the paper's note that "for multi-origin AS we add
all the involved AS numbers" (§3.2). A snapshot of the table exports the
Routeviews-style :class:`~repro.routing.pfx2as.Pfx2As` mapping used by the
measurement platform's enrichment stage.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Set, Union

from repro.routing.prefixtable import IPAddress, IPNetwork, PrefixTable
from repro.routing.pfx2as import Pfx2As, Pfx2AsEntry


@dataclass(frozen=True)
class RouteAnnouncement:
    """One (prefix, origin AS) pair present in the table."""

    prefix: IPNetwork
    origin: int

    def __str__(self) -> str:
        return f"{self.prefix} via AS{self.origin}"


class RoutingTable:
    """Tracks announced prefixes and their origin AS sets."""

    def __init__(self) -> None:
        self._table: PrefixTable[Set[int]] = PrefixTable()
        self.announcements_processed = 0
        self.withdrawals_processed = 0

    @staticmethod
    def _coerce(prefix: Union[str, IPNetwork]) -> IPNetwork:
        if isinstance(prefix, str):
            return ipaddress.ip_network(prefix, strict=True)
        return prefix

    def announce(self, prefix: Union[str, IPNetwork], origin: int) -> None:
        """AS *origin* announces *prefix* (idempotent per origin)."""
        network = self._coerce(prefix)
        origins = self._table.get(network)
        if origins is None:
            self._table.insert(network, {origin})
        else:
            origins.add(origin)
        self.announcements_processed += 1

    def withdraw(
        self, prefix: Union[str, IPNetwork], origin: Optional[int] = None
    ) -> bool:
        """Withdraw *prefix* (for one origin, or entirely when None)."""
        network = self._coerce(prefix)
        origins = self._table.get(network)
        if origins is None:
            return False
        if origin is None:
            origins.clear()
        else:
            origins.discard(origin)
        if not origins:
            self._table.remove(network)
        self.withdrawals_processed += 1
        return True

    def origins_for_prefix(
        self, prefix: Union[str, IPNetwork]
    ) -> FrozenSet[int]:
        """Origin set announced for exactly *prefix* (may be empty)."""
        origins = self._table.get(self._coerce(prefix))
        return frozenset(origins) if origins else frozenset()

    def origins_for_address(
        self, address: Union[str, IPAddress]
    ) -> FrozenSet[int]:
        """Origins of the most-specific prefix containing *address*."""
        return frozenset(self._table.longest_value(address, ()))

    def most_specific(
        self, address: Union[str, IPAddress]
    ) -> Optional[RouteAnnouncement]:
        """The covering route with the lowest-numbered origin, if any."""
        match = self._table.longest_match(address)
        if match is None:
            return None
        prefix, origins = match
        return RouteAnnouncement(prefix, min(origins))

    def routes(self) -> Iterator[RouteAnnouncement]:
        """All (prefix, origin) pairs currently in the table."""
        for prefix, origins in self._table.items():
            for origin in sorted(origins):
                yield RouteAnnouncement(prefix, origin)

    def __len__(self) -> int:
        return len(self._table)

    def snapshot_pfx2as(self) -> Pfx2As:
        """Export the current table as a Routeviews-style pfx2as mapping."""
        entries: List[Pfx2AsEntry] = []
        for prefix, origins in self._table.items():
            entries.append(Pfx2AsEntry(prefix, frozenset(origins)))
        return Pfx2As(entries)
