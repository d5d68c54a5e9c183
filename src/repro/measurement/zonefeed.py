"""Stage I: zone listings, the measurement's daily input.

The platform "downloads updated zone files daily from registry operators"
(§3.1). :class:`ZoneFeed` plays the registry side: it produces the list of
names present in a TLD zone on a given day, together with simple zone-file
statistics, and can render/parse the flat zone-listing text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.world.timeline import CCTLD_START_DAY
from repro.world.world import World


def _check_window(source: str, day: int, start: int, end: int) -> None:
    if not start <= day < end:
        raise ValueError(
            f"no zone file for {source} on day {day} "
            f"(window {start}..{end})"
        )


@dataclass(frozen=True)
class ZoneListing:
    """One day's zone file for one TLD: just the SLD names."""

    tld: str
    day: int
    names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.names)

    def to_text(self) -> str:
        """The flat registry dump: one name per line, sorted."""
        header = f"; zone {self.tld} day {self.day} names {len(self.names)}\n"
        return header + "\n".join(sorted(self.names)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ZoneListing":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("; zone "):
            raise ValueError("missing zone listing header")
        fields = lines[0].split()
        tld, day = fields[2], int(fields[4])
        names = tuple(line for line in lines[1:] if line.strip())
        return cls(tld, day, names)


class ZoneFeed:
    """Produces daily zone listings from the simulated registries."""

    def __init__(self, world: World):
        self._world = world
        self.downloads = 0

    def listing(self, tld: str, day: int) -> ZoneListing:
        """Download the zone file for *tld* as of *day*."""
        start, days = self._world.tld_windows.get(tld, (0, self._world.horizon))
        _check_window(tld, day, start, start + days)
        names = tuple(self._world.zone_names(tld, day))
        self.downloads += 1
        return ZoneListing(tld=tld, day=day, names=names)

    def alexa_listing(self, day: int) -> ZoneListing:
        """The Alexa Top-1M style name list (a list, not a zone).

        Unlike TLD zones, the ranking churns daily: names enter and leave
        with popularity, so the union over the window is much larger than
        any single day's list (Table 1's 2.2M unique SLDs for a 1M list).
        The list is measured from the ccTLD start to the horizon.
        """
        _check_window("alexa", day, CCTLD_START_DAY, self._world.horizon)
        return ZoneListing(
            tld="alexa", day=day, names=tuple(self._world.alexa_list(day))
        )

    def sources(self) -> List[str]:
        """All measured sources: the TLD zones plus the Alexa list."""
        return sorted(self._world.tld_windows) + ["alexa"]
