"""BGP-flavoured routing substrate.

The paper supplements every measured IP address with an origin AS using
Routeviews *pfx2as* data: "The origin AS of the most-specific prefix in
which an address was contained at measurement time" (§3.2), attaching all
origins for multi-origin (MOAS) prefixes. This package provides the pieces
needed to simulate and to consume that data: an AS registry with names, a
per-length hash table with longest-prefix match, a routing table with
announce/withdraw semantics and MOAS tracking, and pfx2as snapshots in the
Routeviews text format.
"""

from repro.routing.asn import ASRegistry, AutonomousSystem
from repro.routing.prefixtable import PrefixTable
from repro.routing.table import RouteAnnouncement, RoutingTable
from repro.routing.pfx2as import Pfx2As, Pfx2AsEntry

__all__ = [
    "ASRegistry",
    "AutonomousSystem",
    "Pfx2As",
    "Pfx2AsEntry",
    "PrefixTable",
    "RouteAnnouncement",
    "RoutingTable",
]
