"""Routeviews-style prefix-to-AS mappings (the CAIDA *pfx2as* format).

The text format is one mapping per line: ``prefix <TAB> length <TAB> asn``,
where multi-origin prefixes render the origin set joined with ``_``
(e.g. ``3549_3356``), exactly as in the CAIDA Routeviews data set the paper
consumes. :meth:`Pfx2As.lookup` returns all origins of the most-specific
covering prefix, which is the paper's §3.2 supplementation rule.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Union

from repro.routing.prefixtable import IPAddress, IPNetwork, PrefixTable

_UNROUTED: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Pfx2AsEntry:
    """One mapping row: a prefix and its origin AS set."""

    prefix: IPNetwork
    origins: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.origins:
            raise ValueError("a pfx2as entry needs at least one origin")
        object.__setattr__(self, "origins", frozenset(self.origins))

    def is_moas(self) -> bool:
        """True when this prefix has multiple origin ASes."""
        return len(self.origins) > 1

    def to_line(self) -> str:
        asn_field = "_".join(str(a) for a in sorted(self.origins))
        return (
            f"{self.prefix.network_address}\t{self.prefix.prefixlen}"
            f"\t{asn_field}"
        )

    @classmethod
    def from_line(cls, line: str) -> "Pfx2AsEntry":
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise ValueError(f"malformed pfx2as line {line!r}")
        address, length, asn_field = fields
        prefix = ipaddress.ip_network(f"{address}/{length}", strict=True)
        origins = frozenset(int(part) for part in asn_field.split("_"))
        return cls(prefix, origins)


class Pfx2As:
    """An immutable prefix → origin-AS-set mapping with LPM lookup."""

    def __init__(self, entries: Iterable[Pfx2AsEntry] = ()):
        #: The one copy of the mapping; a repeated prefix merges origins.
        self._table: PrefixTable[FrozenSet[int]] = PrefixTable()
        for entry in entries:
            known = self._table.get(entry.prefix) or frozenset()
            self._table.insert(entry.prefix, known | entry.origins)

    def lookup(
        self, address: Union[str, IPAddress]
    ) -> FrozenSet[int]:
        """Origins of the most-specific prefix containing *address*.

        Returns the empty set for unrouted addresses. Multi-origin prefixes
        yield every origin (the paper attaches all involved AS numbers).
        """
        return self._table.longest_value(address, _UNROUTED)

    def lookup_prefix(
        self, address: Union[str, IPAddress]
    ) -> Optional[IPNetwork]:
        """The most-specific covering prefix itself, or None."""
        match = self._table.longest_match(address)
        return match[0] if match else None

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Pfx2AsEntry]:
        """Entries ordered by (version, network address, prefixlen)."""
        for prefix, origins in self._table.items():
            yield Pfx2AsEntry(prefix, origins)

    def moas_entries(self) -> List[Pfx2AsEntry]:
        """All multi-origin entries."""
        return [entry for entry in self if entry.is_moas()]

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the Routeviews text format."""
        return "\n".join(entry.to_line() for entry in self) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Pfx2As":
        entries = [
            Pfx2AsEntry.from_line(line)
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        return cls(entries)
