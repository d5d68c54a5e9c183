"""Per-domain DNS state as a piecewise-constant timeline.

A :class:`DnsConfig` captures everything the measurement platform can see
for one domain on one day: the authoritative NS names, the apex address
records, and the ``www`` records (either a CNAME chain plus its expansion
addresses, or direct address records). A :class:`DomainTimeline` is the
domain's lifetime plus an ordered list of ``(start_day, DnsConfig)``
segments; configuration lookups use bisection, and a monotonic cursor makes
day-sweep scans O(1) amortised.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class Method(enum.Enum):
    """How a domain's traffic is (or would be) diverted to a DPS (§2)."""

    A_RECORD = "a_record"
    CNAME = "cname"
    NS_DELEGATION = "ns_delegation"
    BGP = "bgp"


@dataclass(frozen=True)
class DnsConfig:
    """The externally visible DNS configuration of a domain.

    All addresses are text to keep instances small and hashable; the
    enrichment stage resolves them to ASNs via pfx2as.
    """

    ns_names: Tuple[str, ...]
    apex_ips: Tuple[str, ...]
    #: CNAME chain for ``www`` (empty when www has direct address records).
    www_cnames: Tuple[str, ...] = ()
    #: Final addresses of ``www`` after expansion (or its direct A records).
    www_ips: Tuple[str, ...] = ()
    apex_ips6: Tuple[str, ...] = ()
    www_ips6: Tuple[str, ...] = ()

    def with_www_defaulted(self) -> "DnsConfig":
        """A copy where www falls back to the apex addresses if unset."""
        if self.www_ips or self.www_cnames:
            return self
        return DnsConfig(
            ns_names=self.ns_names,
            apex_ips=self.apex_ips,
            www_ips=self.apex_ips,
            apex_ips6=self.apex_ips6,
            www_ips6=self.apex_ips6,
        )

    def all_addresses(self) -> Tuple[str, ...]:
        """Every v4/v6 address visible at apex or www."""
        return (
            self.apex_ips + self.www_ips + self.apex_ips6 + self.www_ips6
        )


#: A configuration with no records at all — what a broken or lame
#: delegation looks like to the measurement platform (e.g. the Sedo DNS
#: incident of 22 Nov 2015, §4.4.1).
DARK_CONFIG = DnsConfig(ns_names=(), apex_ips=())


_CONFIG_CACHE: Dict[DnsConfig, DnsConfig] = {}


def intern_config(config: DnsConfig) -> DnsConfig:
    """Return a canonical shared instance of *config*.

    Mass actors (Wix, parking providers) give millions of domains identical
    configurations; interning keeps world memory proportional to the number
    of *distinct* configurations.
    """
    return _CONFIG_CACHE.setdefault(config, config)


class DomainTimeline:
    """A domain's lifetime and its configuration history."""

    __slots__ = ("name", "tld", "created", "deleted", "_starts", "_configs",
                 "_cursor")

    def __init__(
        self,
        name: str,
        tld: str,
        created: int,
        base_config: DnsConfig,
        deleted: Optional[int] = None,
    ):
        self.name = name
        self.tld = tld
        self.created = created
        #: First day the domain is *no longer* in the zone (None = never).
        self.deleted = deleted
        self._starts: List[int] = [created]
        self._configs: List[DnsConfig] = [intern_config(base_config)]
        self._cursor = 0

    def __repr__(self) -> str:
        return (
            f"DomainTimeline({self.name!r}, created={self.created}, "
            f"deleted={self.deleted}, segments={len(self._starts)})"
        )

    # -- lifetime -----------------------------------------------------------

    def alive(self, day: int) -> bool:
        """True if the domain is in its zone on *day*."""
        if day < self.created:
            return False
        return self.deleted is None or day < self.deleted

    def lifespan(self, horizon: int) -> Tuple[int, int]:
        """``(first_day, last_day_exclusive)`` clipped to *horizon*."""
        end = self.deleted if self.deleted is not None else horizon
        return self.created, min(end, horizon)

    # -- configuration history ------------------------------------------------

    def set_config(self, day: int, config: DnsConfig) -> None:
        """The configuration becomes *config* from *day* onwards."""
        if day < self.created:
            raise ValueError(
                f"config change on day {day} before creation "
                f"({self.created}) of {self.name}"
            )
        config = intern_config(config)
        index = bisect.bisect_right(self._starts, day) - 1
        if self._starts[index] == day:
            self._configs[index] = config
            # Merge with the previous segment if now identical.
            if index > 0 and self._configs[index - 1] == config:
                del self._starts[index]
                del self._configs[index]
        else:
            if self._configs[index] == config:
                return
            self._starts.insert(index + 1, day)
            self._configs.insert(index + 1, config)
        self._cursor = 0

    def config_at(self, day: int) -> DnsConfig:
        """The configuration in effect on *day* (bisection lookup)."""
        if not self.alive(day):
            raise ValueError(f"{self.name} is not in the zone on day {day}")
        index = bisect.bisect_right(self._starts, day) - 1
        return self._configs[index]

    def config_at_monotonic(self, day: int) -> DnsConfig:
        """Like :meth:`config_at` for non-decreasing *day* across calls.

        Sweeping measurement loops call this once per day in order; the
        internal cursor makes the scan O(1) amortised per call.
        """
        while (
            self._cursor + 1 < len(self._starts)
            and self._starts[self._cursor + 1] <= day
        ):
            self._cursor += 1
        if self._starts[self._cursor] > day:
            # Day moved backwards: fall back to bisection and reset.
            self._cursor = bisect.bisect_right(self._starts, day) - 1
        return self._configs[self._cursor]

    def segments(self, horizon: int) -> Iterator[Tuple[int, int, DnsConfig]]:
        """Yield ``(start, end_exclusive, config)`` segments while alive."""
        first, last = self.lifespan(horizon)
        if first >= last:
            return
        for index, start in enumerate(self._starts):
            end = (
                self._starts[index + 1]
                if index + 1 < len(self._starts)
                else last
            )
            start = max(start, first)
            end = min(end, last)
            if start < end:
                yield start, end, self._configs[index]

    @property
    def change_days(self) -> List[int]:
        """The days on which the configuration changes (segment starts)."""
        return list(self._starts)
