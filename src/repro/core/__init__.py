"""The paper's methodology: detecting and characterising DPS use.

Given active-DNS observations (with ASN enrichment), this package

* matches per-domain, per-day **references** to DPS providers via CNAME
  SLDs, NS SLDs, and ASNs (§3.3) — :mod:`repro.core.references`,
  :mod:`repro.core.detection`;
* *derives* the provider reference catalog itself from measurement data by
  the seed-ASN bootstrap (§3.3) — :mod:`repro.core.fingerprint`;
* separates always-on from on-demand use (§3.4) —
  :mod:`repro.core.classification`;
* computes adoption growth with median smoothing and anomaly cleaning
  (§4.2) — :mod:`repro.core.growth`;
* analyses flux (first-seen/last-seen deltas, §4.4.2) and on-demand peak
  durations (§4.4.3) — :mod:`repro.core.flux`, :mod:`repro.core.peaks`;
* attributes mass anomalies to third parties (§4.4.1) —
  :mod:`repro.core.attribution`;
* orchestrates the full study — :mod:`repro.core.pipeline`.
"""

from repro.core.references import (
    ProviderSignature,
    RefType,
    SignatureCatalog,
)
from repro.core.detection import (
    DetectionResult,
    ProviderSeries,
    SegmentDetector,
    UseInterval,
)
from repro.core.classification import UsageClass, UsageClassifier
from repro.core.diversion import (
    DiversionClassifier,
    DiversionEdge,
    DiversionMechanism,
)
from repro.core.exposure import (
    ExposureReport,
    analyze_exposure,
    render_exposure,
)
from repro.core.growth import GrowthAnalysis, GrowthSeries, median_smooth
from repro.core.flux import FluxAnalysis, FluxSeries
from repro.core.peaks import PeakAnalysis, PeakStats
from repro.core.fingerprint import FingerprintBootstrap, FingerprintResult
from repro.core.attribution import AnomalyAttributor, AnomalyEvent
from repro.core.pipeline import AdoptionStudy, StudyResults

__all__ = [
    "AdoptionStudy",
    "AnomalyAttributor",
    "AnomalyEvent",
    "DetectionResult",
    "DiversionClassifier",
    "DiversionEdge",
    "DiversionMechanism",
    "ExposureReport",
    "FingerprintBootstrap",
    "FingerprintResult",
    "FluxAnalysis",
    "FluxSeries",
    "GrowthAnalysis",
    "GrowthSeries",
    "PeakAnalysis",
    "PeakStats",
    "ProviderSeries",
    "ProviderSignature",
    "RefType",
    "SegmentDetector",
    "SignatureCatalog",
    "StudyResults",
    "UsageClass",
    "UsageClassifier",
    "UseInterval",
    "analyze_exposure",
    "median_smooth",
    "render_exposure",
]
