"""Full-study orchestration: world → measurement → analysis artifacts.

:class:`AdoptionStudy` wires the measurement platform and every analysis
stage together and produces a :class:`StudyResults` carrying the inputs of
every table and figure in the paper's evaluation:

* Table 1 — data set statistics (via sampled columnar measurement);
* Table 2 — the fingerprint bootstrap's derived catalog;
* Fig. 2  — daily DPS use per TLD and combined;
* Fig. 3  — per-provider daily use with AS/CNAME/NS breakdown;
* Fig. 4  — namespace vs DPS-use distribution over the gTLDs;
* Fig. 5  — growth of DPS use vs zone expansion (gTLDs);
* Fig. 6  — growth in .nl and the Alexa list;
* Fig. 7  — per-provider flux (first/last seen deltas);
* Fig. 8  — on-demand peak-duration CDFs;
* §4.4.1  — anomaly attribution to third parties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.parallel.backend import BackendSpec

from repro.batch.batch import ObservationBatch
from repro.core.attribution import AnomalyAttributor, Attribution
from repro.core.classification import DomainUsage, UsageClassifier
from repro.core.detection import DetectionResult, SegmentDetector
from repro.core.fingerprint import FingerprintBootstrap, FingerprintResult
from repro.core.flux import FluxAnalysis, FluxSeries
from repro.core.growth import GrowthAnalysis, GrowthSeries
from repro.core.peaks import PeakAnalysis, PeakStats
from repro.core.references import SignatureCatalog
from repro.faults.errors import PersistentFault
from repro.faults.inject import FaultyProber
from repro.faults.plan import FaultInjector, FaultLog, FaultPlan
from repro.faults.report import SCOPE_EXPORT_KEYS
from repro.measurement.enrich import AsnEnricher
from repro.measurement.prober import FastProber
from repro.measurement.scheduler import GTLD_SOURCES as GTLDS, PartitionFeed
from repro.measurement.snapshot import (
    MEASUREMENTS_PER_DOMAIN_DAY,
    ObservationSegment,
)
from repro.store.segment import encode_partition, layout_segment
from repro.store.store import SegmentStore, batch_pages
from repro.world.timeline import CCTLD_START_DAY
from repro.world.world import World


@dataclass
class DatasetRow:
    """One Table 1 row."""

    source: str
    start_day: int
    days: int
    slds: int
    data_points: int
    estimated_bytes: int


@dataclass
class StudyResults:
    """Everything the study produces, keyed by paper artifact."""

    horizon: int
    #: Fig. 2 / Fig. 3 inputs.
    detection_gtld: DetectionResult
    detection_nl: DetectionResult
    detection_alexa: DetectionResult
    #: Daily zone sizes per TLD.
    zone_sizes: Dict[str, List[int]]
    #: Fig. 5 series.
    growth_gtld: Dict[str, GrowthSeries]
    #: Fig. 6 series.
    growth_cc: Dict[str, GrowthSeries]
    #: Fig. 7.
    flux: Dict[str, FluxSeries]
    #: Fig. 8.
    peaks: Dict[str, PeakStats]
    #: §3.4 classification.
    usages: List[DomainUsage]
    #: Fig. 4 distributions: tld → share.
    namespace_distribution: Dict[str, float]
    dps_distribution: Dict[str, float]
    #: Table 1.
    dataset_table: List[DatasetRow]
    #: §4.4.1.
    attributions: List[Attribution]
    #: Per-domain enriched segments (kept for follow-up analyses).
    segments: Dict[str, List[ObservationSegment]] = field(
        default_factory=dict, repr=False
    )
    #: Fault accounting for runs under a fault plan (None on clean runs).
    fault_log: Optional[FaultLog] = None
    #: scope → reason for scopes quarantined during this run.
    quarantined_scopes: Dict[str, str] = field(default_factory=dict)

    def provider_growth_factor(self) -> float:
        """The headline number: DPS adoption growth over the gTLD window."""
        return self.growth_gtld["DPS adoption"].growth_factor

    def expansion_factor(self) -> float:
        return self.growth_gtld["Overall expansion"].growth_factor


@dataclass
class StudyMeasurement:
    """Everything the measurement phase produces, whole-world or per shard."""

    segments: Dict[str, List[ObservationSegment]]
    detection_gtld: DetectionResult
    detection_nl: DetectionResult
    detection_alexa: DetectionResult
    flux: Dict[str, FluxSeries]
    peaks: Dict[str, PeakStats]
    #: The measuring study's fault accounting (empty on clean runs).
    fault_log: FaultLog = field(default_factory=FaultLog)
    #: scope → reason quarantined while measuring.
    quarantined: Dict[str, str] = field(default_factory=dict)


class AdoptionStudy:
    """Runs the full methodology over a world."""

    def __init__(
        self,
        world: World,
        catalog: Optional[SignatureCatalog] = None,
        growth: Optional[GrowthAnalysis] = None,
        sample_days_for_storage: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.world = world
        self.catalog = catalog or SignatureCatalog.paper_table2()
        self.growth = growth or GrowthAnalysis()
        self._sample_days = sample_days_for_storage
        self.prober = FastProber(world)
        self.enricher = AsnEnricher(world)
        #: Fault-injection state. With a plan, the prober is wrapped in a
        #: retrying :class:`FaultyProber` and every fault/retry/quarantine
        #: is accounted to :attr:`fault_log`.
        self.fault_plan = fault_plan
        self.fault_log = FaultLog()
        self.quarantined_scopes: Dict[str, str] = {}
        self._injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self._injector = fault_plan.injector(self.fault_log)
            self.prober = FaultyProber(  # type: ignore[assignment]
                self.prober, world, self._injector
            )

    def quarantine_scope(self, scope: str, reason: str) -> None:
        """Contain a poisoned *scope*: its artifacts are zeroed, not trusted."""
        if scope not in SCOPE_EXPORT_KEYS:
            raise ValueError(f"unknown scope {scope!r}")
        if scope not in self.quarantined_scopes:
            self.quarantined_scopes[scope] = reason
            self.fault_log.record_quarantine(scope, reason)

    # -- measurement -----------------------------------------------------------

    def collect_segments(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, List[ObservationSegment]]:
        """Enriched observation segments for *names* (default: all domains)."""
        if names is None:
            names = list(self.world.domains)
        segments: Dict[str, List[ObservationSegment]] = {}
        for name in names:
            try:
                raw = self.prober.observe_segments(name)
            except PersistentFault as exc:
                # Retries are exhausted: the domain's history is gone for
                # this run. Contain the damage — quarantine every scope
                # the domain feeds and keep measuring the rest.
                for scope in exc.scopes:
                    self.quarantine_scope(scope, str(exc))
                self.fault_log.record_drop("prober.observe")
                segments[name] = []
                continue
            segments[name] = self.enricher.enrich_segments(raw)
        return segments

    def detect(
        self,
        segments: Mapping[str, List[ObservationSegment]],
        names: Sequence[str],
    ) -> DetectionResult:
        """Detection over *names*' segments, one run per segment."""
        return self._detect_runs(segments, names)

    def detect_alexa(
        self,
        segments: Mapping[str, List[ObservationSegment]],
        names: Optional[Sequence[str]] = None,
    ) -> DetectionResult:
        """Detection over the ranking, honouring membership windows.

        A domain only counts on days it is actually on the list, so each
        segment is clipped to the name's membership windows before
        detection.
        """
        if names is None:
            names = self.world.alexa_names
        return self._detect_runs(
            segments, names, self.world.alexa_membership
        )

    def _detect_runs(
        self,
        segments: Mapping[str, List[ObservationSegment]],
        names: Sequence[str],
        windows: Optional[Callable[[str], Sequence[Tuple[int, int]]]] = None,
    ) -> DetectionResult:
        """Fold *names*' segments as one run batch through
        :meth:`SegmentDetector.process_runs` — the ``(batch, ends)``
        shape a compacted store fragment decodes to.

        Each segment's observation is interned once and appended as the
        run ``[start, end)``; with *windows*, once per window of the
        name it overlaps, clipped to that window. Domain and TLD are
        the row's own.
        """
        batch = ObservationBatch()
        ends: List[int] = []
        for name in names:
            spans = windows(name) if windows is not None else None
            for segment in segments.get(name, ()):
                ids = batch.intern_row(segment.observation)
                if spans is None:
                    batch.append_ids(segment.start, *ids)
                    ends.append(segment.end)
                    continue
                for window_start, window_end in spans:
                    lo = max(segment.start, window_start)
                    hi = min(segment.end, window_end)
                    if lo < hi:
                        batch.append_ids(lo, *ids)
                        ends.append(hi)
        detector = SegmentDetector(self.catalog, self.world.horizon)
        detector.process_runs(batch, ends)
        return detector.result()

    def measure(
        self,
        domain_names: Optional[Sequence[str]] = None,
        alexa_names: Optional[Sequence[str]] = None,
    ) -> StudyMeasurement:
        """The measurement + detection phase over *domain_names*.

        Probe → enrich → detect (gTLD, .nl, Alexa) → flux/peaks. The
        defaults cover the whole world — the serial study; a sharded run
        (:mod:`repro.parallel.study`) calls this once per shard with
        that shard's names and merges the parts exactly.
        """
        if domain_names is None:
            domain_names = list(self.world.domains)
        domains = self.world.domains
        horizon = self.world.horizon
        segments = self.collect_segments(domain_names)
        gtld_names = [
            name for name in domain_names if domains[name].tld in GTLDS
        ]
        nl_names = [
            name for name in domain_names if domains[name].tld == "nl"
        ]
        detection_gtld = self.detect(segments, gtld_names)
        return StudyMeasurement(
            segments=segments,
            detection_gtld=detection_gtld,
            detection_nl=self.detect(segments, nl_names),
            detection_alexa=self.detect_alexa(segments, alexa_names),
            flux=FluxAnalysis(horizon).analyze(detection_gtld),
            peaks=PeakAnalysis(horizon).analyze(detection_gtld),
            fault_log=self.fault_log,
            quarantined=dict(self.quarantined_scopes),
        )

    def detect_from_store(
        self,
        store: SegmentStore,
        sources: Sequence[str],
        backend: Optional["BackendSpec"] = None,
    ) -> DetectionResult:
        """Columnar detection over the landed partitions of *sources*.

        The pass is :func:`repro.parallel.detect.detect_from_slices`:
        the store hands each shard a manifest slice (all partitions,
        one domain hash shard) whose partitions decode one at a time to
        a ``(batch, ends)`` run batch — one row per day for a daily
        partition, one per run for a compacted fragment — folded
        through :meth:`SegmentDetector.process_runs`; per-shard results
        merge exactly. Without a *backend* (a
        :class:`repro.parallel.backend.Backend` instance or spec) it is
        one slice, in process. The accumulator takes a domain's days in
        any order and any grouping, so the result is value-identical
        for every backend and shard count, to streaming the same
        partitions through a :class:`repro.stream.engine.StreamEngine`,
        and to :meth:`detect` over the equivalent segments.
        """
        # Imported lazily: repro.parallel imports from this module.
        from repro.parallel.detect import detect_from_slices

        return detect_from_slices(
            store, sources, self.catalog, self.world.horizon, backend=backend
        )

    # -- the full study -----------------------------------------------------------

    def run(self, backend: Optional["BackendSpec"] = None) -> StudyResults:
        """Run the full methodology.

        With a *backend* (a :class:`repro.parallel.backend.Backend`
        instance or the name ``serial`` or ``local``; worker and shard
        counts are set on the backend) the measurement + detection phase is
        hash-sharded over it; the merged result — and hence the
        returned :class:`StudyResults` — is byte-identical to the
        in-process run ``backend=None`` gives, for any backend, worker
        count, and shard count.
        """
        world = self.world
        horizon = world.horizon
        window_start = CCTLD_START_DAY

        if backend is not None:
            # Imported lazily: repro.parallel imports from this module.
            from repro.parallel.study import run_sharded_measurement

            measured = run_sharded_measurement(self, backend=backend)
        else:
            measured = self.measure()
        segments = measured.segments
        detection_gtld = measured.detection_gtld
        detection_nl = measured.detection_nl
        detection_alexa = measured.detection_alexa
        flux = measured.flux
        peaks = measured.peaks

        # The study.detect fault site: an injected poison here models a
        # detection stage blowing up on one scope's data.
        if self._injector is not None:
            for scope in sorted(SCOPE_EXPORT_KEYS):
                event = self._injector.fire("study.detect", key=scope)
                if event is not None:
                    self.quarantine_scope(
                        scope, f"injected detection poison ({scope})"
                    )

        # Quarantined scopes contribute empty artifacts — their export
        # keys are untrusted and stripped by scope-aware comparison; the
        # remaining scopes are byte-identical to a clean run.
        quarantined = set(self.quarantined_scopes)
        if "gtld" in quarantined:
            detection_gtld = DetectionResult.empty(horizon)
            flux = {}
            peaks = {}
        if "nl" in quarantined:
            detection_nl = DetectionResult.empty(horizon)
        if "alexa" in quarantined:
            detection_alexa = DetectionResult.empty(horizon)

        zone_sizes = {
            tld: world.zone_size_series(tld)
            for tld in list(GTLDS) + ["nl"]
        }

        # Fig. 5: gTLD adoption vs expansion, relative to the window start.
        # Growth labels of a quarantined scope are skipped outright:
        # an all-zero adoption series has no meaningful growth factor.
        expansion = [
            sum(zone_sizes[tld][day] for tld in GTLDS)
            for day in range(horizon)
        ]
        gtld_growth_inputs: Dict[str, Sequence[float]] = {}
        if "gtld" not in quarantined:
            gtld_growth_inputs["DPS adoption"] = (
                detection_gtld.any_use_combined
            )
            gtld_growth_inputs["Overall expansion"] = expansion
        growth_gtld = self.growth.compare(gtld_growth_inputs)

        # Fig. 6: .nl and Alexa over the six-month window.
        cc_growth_inputs: Dict[str, Sequence[float]] = {}
        if "nl" not in quarantined:
            cc_growth_inputs["DPS adoption (.nl)"] = (
                detection_nl.any_use_combined[window_start:]
            )
            cc_growth_inputs["Overall expansion (.nl)"] = (
                zone_sizes["nl"][window_start:]
            )
        if "alexa" not in quarantined:
            cc_growth_inputs["DPS adoption (Alexa)"] = (
                detection_alexa.any_use_combined[window_start:]
            )
        growth_cc = self.growth.compare(cc_growth_inputs)

        lifetimes = {
            name: timeline.lifespan(horizon)
            for name, timeline in world.domains.items()
        }
        classifier = UsageClassifier(horizon)
        usages = classifier.classify_result(detection_gtld, lifetimes)

        namespace_distribution = self._namespace_distribution(zone_sizes)
        dps_distribution = self._dps_distribution(detection_gtld)

        dataset_table = self.build_dataset_table()

        attributor = AnomalyAttributor(
            detection_gtld, segments, self.catalog
        )
        attributions = attributor.attribute_all()

        return StudyResults(
            horizon=horizon,
            detection_gtld=detection_gtld,
            detection_nl=detection_nl,
            detection_alexa=detection_alexa,
            zone_sizes=zone_sizes,
            growth_gtld=growth_gtld,
            growth_cc=growth_cc,
            flux=flux,
            peaks=peaks,
            usages=usages,
            namespace_distribution=namespace_distribution,
            dps_distribution=dps_distribution,
            dataset_table=dataset_table,
            attributions=attributions,
            segments=segments,
            fault_log=(
                self.fault_log if self.fault_plan is not None else None
            ),
            quarantined_scopes=dict(self.quarantined_scopes),
        )

    # -- Fig. 4 -----------------------------------------------------------------

    def _namespace_distribution(
        self, zone_sizes: Mapping[str, List[int]]
    ) -> Dict[str, float]:
        averages = {
            tld: sum(zone_sizes[tld]) / max(1, len(zone_sizes[tld]))
            for tld in GTLDS
        }
        total = sum(averages.values())
        return {
            tld: value / total
            for tld, value in sorted(averages.items())
        }

    def _dps_distribution(
        self, detection: DetectionResult
    ) -> Dict[str, float]:
        averages = {}
        for tld in GTLDS:
            series = detection.any_use_by_tld.get(tld, [0])
            averages[tld] = sum(series) / max(1, len(series))
        total = sum(averages.values()) or 1.0
        return {
            tld: value / total
            for tld, value in sorted(averages.items())
        }

    # -- Table 1 --------------------------------------------------------------------

    def build_dataset_table(self) -> List[DatasetRow]:
        """Table 1: per-source SLD counts, data points, and storage.

        Data-point totals come from the zone-size series (four measurements
        per domain-day); byte sizes are measured on sampled days as the
        day's full one-day segment — the paper's daily snapshot, not
        the delta a store may land for a day that repeats its source's
        base — and extrapolated; the honest
        equivalent of reporting cluster storage you cannot rerun in
        full. The sampled
        rounds share the study's enricher (address timelines a run has
        already filled) but probe through a prober of their own, outside
        any fault plan.
        """
        world = self.world
        feed = PartitionFeed(world, enrich=self.enricher)
        rows: List[DatasetRow] = []
        for source in list(GTLDS) + ["nl", "alexa"]:
            if source == "alexa":
                start, days = CCTLD_START_DAY, world.horizon - CCTLD_START_DAY
                slds = len(world.alexa_names)
                domain_days = world.alexa_member_days(start, days)
            else:
                start, days = world.tld_windows[source]
                slds = world.unique_slds(source)
                sizes = world.zone_size_series(source)
                domain_days = sum(sizes[start : start + days])
            data_points = domain_days * MEASUREMENTS_PER_DOMAIN_DAY
            sample_days = [
                start + offset * max(1, days // (self._sample_days + 1))
                for offset in range(1, self._sample_days + 1)
            ]
            sampled_bytes = 0
            sampled_points = 0
            for day in sample_days:
                batch = feed.partition(source, day).batch
                # The partition's bytes as one standalone full segment,
                # the daily snapshot (a store may land a delta instead).
                sampled_bytes += len(layout_segment(
                    [encode_partition(source, day, batch_pages(batch))]
                ))
                sampled_points += len(batch) * MEASUREMENTS_PER_DOMAIN_DAY
            bytes_per_point = (
                sampled_bytes / sampled_points if sampled_points else 0.0
            )
            rows.append(
                DatasetRow(
                    source=source,
                    start_day=start,
                    days=days,
                    slds=slds,
                    data_points=data_points,
                    estimated_bytes=int(data_points * bytes_per_point),
                )
            )
        return rows

    # -- Table 2 ---------------------------------------------------------------------

    def derive_table2(
        self, day: int = 30, min_support: int = 3, purity: float = 0.5
    ) -> Dict[str, FingerprintResult]:
        """Run the §3.3 bootstrap on one day's full measurement.

        The bootstrap additionally gets an NS-host lookup — the platform
        measures name-server addresses too — so it can decide who
        *operates* a candidate NS SLD (rejecting e.g. a parking provider
        whose parked domains all sit in a DPS's address space, and
        accepting a managed-DNS SLD whose customers mostly don't divert).
        """
        feed = PartitionFeed(self.world, enrich=self.enricher)
        observations = []
        for source in GTLDS:
            observations.extend(feed.partition(source, day).observations)
        pfx2as = self.world.pfx2as_at(day)

        def ns_host_lookup(hostname: str):
            address = self.world.ns_host_address(hostname)
            if address is None:
                return frozenset()
            return pfx2as.lookup(address)

        bootstrap = FingerprintBootstrap(
            observations,
            self.world.as_registry,
            min_support=min_support,
            purity=purity,
            ns_host_lookup=ns_host_lookup,
        )
        return {
            name: bootstrap.derive(name)
            for name in self.catalog.provider_names
        }
