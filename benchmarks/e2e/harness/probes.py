"""Micro-probes of single functions the traced passes cannot isolate.

Each probe times one public function over one day's distinct inputs and
reports normalised microseconds per call.
"""

from __future__ import annotations

import gc
import ipaddress
from typing import List, Tuple

from harness.calib import Calibrator

#: The day whose observations feed the probes (inside every window).
PROBE_DAY = 400


def day_observations(world: object, day: int) -> List[object]:
    """The gTLD observations of *day*, unenriched."""
    from repro.core.pipeline import GTLDS
    from repro.measurement.prober import FastProber
    from repro.measurement.zonefeed import ZoneFeed

    feed = ZoneFeed(world)
    prober = FastProber(world)
    observations: List[object] = []
    for source in GTLDS:
        observations.extend(
            prober.observe_day(feed.listing(source, day).names, day)
        )
    return observations


def lpm_lookup_us(
    calibrator: Calibrator, world: object, day: int
) -> Tuple[float, float]:
    """``Pfx2As.lookup`` over the day's distinct addresses: first pass
    (cold longest-match cache) and second pass, us per lookup.

    The second pass is faster only when the day's distinct addresses fit
    the trie's LRU; a sweep over more of them than that evicts each
    entry before it is asked for again.
    """
    from repro.routing.pfx2as import Pfx2As

    addresses = list(dict.fromkeys(
        address
        for observation in day_observations(world, day)
        for address in observation.all_addresses()
    ))
    parsed = [ipaddress.ip_address(address) for address in addresses]
    # A fresh table: the world's cached one has a warm LPM cache.
    table = Pfx2As(iter(world.pfx2as_at(day)))

    def sweep() -> int:
        lookup = table.lookup
        return sum(len(lookup(address)) for address in parsed)

    # Collect first: a full collection of the pass's heap inside a
    # sweep costs as much as the sweep.
    gc.collect()
    cold = calibrator.measure(sweep).timing.norm
    gc.collect()
    warm = calibrator.measure(sweep).timing.norm
    count = max(1, len(parsed))
    return (cold / count * 1e6, warm / count * 1e6)


def name_parse_us(
    calibrator: Calibrator, world: object, day: int
) -> float:
    """``DomainName.from_text`` over the day's distinct NS and CNAME
    texts, us per name."""
    from repro.dnscore.name import DomainName

    texts = list(dict.fromkeys(
        text
        for observation in day_observations(world, day)
        for text in observation.ns_names + observation.www_cnames
    ))

    def sweep() -> int:
        parse = DomainName.from_text
        return sum(len(parse(text)) for text in texts)

    gc.collect()
    return calibrator.measure(sweep).timing.norm / max(1, len(texts)) * 1e6
