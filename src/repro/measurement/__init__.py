"""The active DNS measurement platform (the paper's Figure 1, in-process).

Stage I  — :mod:`repro.measurement.zonefeed`: daily zone listings per TLD.
Stage II — :mod:`repro.measurement.scheduler` + :mod:`repro.measurement.prober`:
           a partition feed shards the name list over measurement workers,
           each of which queries A/AAAA/NS for the apex and ``www`` label of
           every domain and stores full answer sections including CNAME
           expansions.
Stage III — :mod:`repro.measurement.enrich` supplements every address
           with origin ASNs from the day's pfx2as snapshot, and the results
           land in the columnar :class:`repro.store.SegmentStore`.

Two probers implement the same observation contract: a fast prober that
reads world state directly (used for 550-day sweeps) and a wire prober that
performs real iterative resolution over the simulated network (used for
fidelity checks and spot measurements). Tests assert they agree.
"""

from repro.measurement.snapshot import (
    DomainObservation,
    MEASUREMENTS_PER_DOMAIN_DAY,
    ObservationSegment,
)
from repro.measurement.zonefeed import ZoneFeed, ZoneListing
from repro.measurement.prober import FastProber, WireProber
from repro.measurement.scheduler import PartitionFeed
from repro.measurement.enrich import AsnEnricher
from repro.measurement.quality import (
    CoverageReport,
    IncidentDetector,
    coverage_of,
    ns_sld_census,
)

__all__ = [
    "AsnEnricher",
    "CoverageReport",
    "DomainObservation",
    "FastProber",
    "IncidentDetector",
    "MEASUREMENTS_PER_DOMAIN_DAY",
    "ObservationSegment",
    "PartitionFeed",
    "WireProber",
    "ZoneFeed",
    "ZoneListing",
    "coverage_of",
    "ns_sld_census",
]
