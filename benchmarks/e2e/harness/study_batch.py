"""``study_batch`` — the researcher's path.

A fresh serial ``AdoptionStudy(world).run()`` plus ``study_to_dict`` plus
canonical JSON per repetition: the run-length-compressed segment route
(``observe_segments`` -> ``enrich_segments`` -> per-domain ``detect`` ->
flux/peaks -> growth/classify/attribution -> ``build_dataset_table``).
Nothing in ``store``/``stream``/``sketch``/``serve`` runs.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

from harness import probes
from harness.calib import Calibrator
from harness.common import (
    SETUP_REPS,
    Outcome,
    build_world,
    finish_trace,
    measure_traced,
    median_setup,
    peak_rss_mib,
    sha256_text,
    timed_reps,
)
from harness.stats import median
from harness.trace import Tracer

NAME = "study_batch"

#: Paper counts divided by this: ~10.9k domains x 550 days.
SCALE = 16000
MIN_REPS = 5

#: Span names that are layers of the program (the rest is harness glue).
LAYER_SPANS = (
    "measurement.init",
    "measurement.probe_segments",
    "measurement.enrich_segments",
    "core.detect",
    "core.flux_peaks",
    "world.zone_series",
    "core.growth_classify",
    "measurement.dataset_table",
    "core.attribution",
    "reporting.export",
)


def one_call(world: object) -> Tuple[object, str]:
    """The untraced repetition: the one-call path a researcher uses."""
    from repro.core.pipeline import AdoptionStudy
    from repro.reporting.export import study_to_dict
    from repro.serve.protocol import canonical_json

    results = AdoptionStudy(world).run()
    return results, canonical_json(study_to_dict(results))


def traced_call(world: object, tracer: Tracer) -> Tuple[object, str, object]:
    """``AdoptionStudy.run()`` taken apart into its public stages, in the
    order ``run()`` calls them, one span per call. Must reproduce
    :func:`one_call`'s bytes — the digest check catches drift."""
    from repro.core.attribution import AnomalyAttributor
    from repro.core.classification import UsageClassifier
    from repro.core.flux import FluxAnalysis
    from repro.core.peaks import PeakAnalysis
    from repro.core.pipeline import GTLDS, AdoptionStudy, StudyResults
    from repro.reporting.export import study_to_dict
    from repro.serve.protocol import canonical_json
    from repro.world.timeline import CCTLD_START_DAY

    span = tracer.span
    with span("harness.rep"):
        with span("measurement.init"):
            study = AdoptionStudy(world)
        horizon = world.horizon
        prober, enricher = study.prober, study.enricher
        segments: Dict[str, List[object]] = {}
        for name in list(world.domains):
            with span("measurement.probe_segments"):
                raw = prober.observe_segments(name)
            with span("measurement.enrich_segments"):
                segments[name] = enricher.enrich_segments(raw)
        gtld_names = [
            name for name, timeline in world.domains.items()
            if timeline.tld in GTLDS
        ]
        nl_names = [
            name for name, timeline in world.domains.items()
            if timeline.tld == "nl"
        ]
        with span("core.detect"):
            detection_gtld = study.detect(segments, gtld_names)
        with span("core.detect"):
            detection_nl = study.detect(segments, nl_names)
        with span("core.detect"):
            detection_alexa = study.detect_alexa(segments)
        with span("core.flux_peaks"):
            flux = FluxAnalysis(horizon).analyze(detection_gtld)
            peaks = PeakAnalysis(horizon).analyze(detection_gtld)
        with span("world.zone_series"):
            zone_sizes = {
                tld: world.zone_size_series(tld)
                for tld in list(GTLDS) + ["nl"]
            }
            expansion = [
                sum(zone_sizes[tld][day] for tld in GTLDS)
                for day in range(horizon)
            ]
            lifetimes = {
                name: timeline.lifespan(horizon)
                for name, timeline in world.domains.items()
            }
        with span("core.growth_classify"):
            growth_gtld = study.growth.compare({
                "DPS adoption": detection_gtld.any_use_combined,
                "Overall expansion": expansion,
            })
            window = CCTLD_START_DAY
            growth_cc = study.growth.compare({
                "DPS adoption (.nl)": detection_nl.any_use_combined[window:],
                "Overall expansion (.nl)": zone_sizes["nl"][window:],
                "DPS adoption (Alexa)": (
                    detection_alexa.any_use_combined[window:]
                ),
            })
            usages = UsageClassifier(horizon).classify_result(
                detection_gtld, lifetimes
            )
            # The Fig. 4 shares have no public entry point besides
            # run(); these two helpers are the only private calls here.
            namespace = study._namespace_distribution(zone_sizes)
            dps = study._dps_distribution(detection_gtld)
        with span("measurement.dataset_table"):
            dataset_table = study.build_dataset_table()
        with span("core.attribution"):
            attributions = AnomalyAttributor(
                detection_gtld, segments, study.catalog
            ).attribute_all()
        results = StudyResults(
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
            namespace_distribution=namespace,
            dps_distribution=dps,
            dataset_table=dataset_table,
            attributions=attributions,
            segments=segments,
        )
        with span("reporting.export"):
            text = canonical_json(study_to_dict(results))
    return results, text, study


def _check_growth(outcome: Outcome, results: object) -> None:
    adoption = results.provider_growth_factor()
    expansion = results.expansion_factor()
    outcome.check(
        "DPS adoption outgrows zone expansion (paper: 1.24x vs 1.09x)",
        adoption > expansion > 1.0,
        f"{adoption:.4f}x vs {expansion:.4f}x",
    )


def run(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    min_reps: int = MIN_REPS,
    setup_reps: int = SETUP_REPS,
) -> Outcome:
    """The untraced pass: every end-to-end metric."""
    outcome = Outcome(NAME)
    with Calibrator() as calibrator:
        setup = median_setup(
            calibrator,
            lambda: build_world(scale, seed),
            lambda world: None,
            reps=setup_reps,
        )
        world = setup.product
        results, text = one_call(world)  # warm-up: caches fill
        digest = sha256_text(text)
        timings = []
        for measured in timed_reps(
            calibrator, lambda: one_call(world)[1], seconds, min_reps
        ):
            outcome.attempted += 1
            if sha256_text(measured.value) != digest:
                outcome.failed += 1
            timings.append(measured.timing)
    _check_growth(outcome, results)
    outcome.check(
        "export digest identical across repetitions",
        outcome.failed == 0,
    )
    outcome.digests["export_sha256"] = digest
    wall = median([t.norm for t in timings])
    domain_days = len(world.domains) * world.horizon
    outcome.metrics.update({
        "setup_s": setup.seconds,
        "peak_rss_mib": peak_rss_mib(),
        "op_latency_p50_ms": wall * 1e3,
        "throughput_per_s": domain_days / wall,
    })
    outcome.notes.update({
        "reps": len(timings),
        "domains": len(world.domains),
        "days": world.horizon,
        "setup_reps": setup.reps,
        "raw_setup_s": setup.raw_seconds,
        "raw_op_latency_p50_ms": median([t.raw for t in timings]) * 1e3,
    })
    return outcome


def run_traced(
    seed: int, seconds: float, scale: int = SCALE
) -> Outcome:
    """The traced pass: every per-layer metric of this workload."""
    del seconds  # one untraced and one traced repetition, whatever it is
    outcome = Outcome(NAME, attempted=2)
    tracer = Tracer(NAME)
    with Calibrator() as calibrator:
        build = calibrator.measure(lambda: build_world(scale, seed))
        world = build.value
        one_call(world)  # warm-up
        gc.collect()
        untraced = calibrator.measure(lambda: one_call(world))
        traced = measure_traced(
            calibrator, tracer, lambda: traced_call(world, tracer)
        )
        lpm = probes.lpm_lookup_us(calibrator, world, probes.PROBE_DAY)
        name_parse = probes.name_parse_us(
            calibrator, world, probes.PROBE_DAY
        )
    results, text, study = traced.value
    digest = sha256_text(text)
    outcome.digests["export_sha256"] = digest
    if not outcome.check(
        "traced decomposition reproduces run()'s export digest",
        digest == sha256_text(untraced.value[1]),
    ):
        outcome.failed += 1
    _check_growth(outcome, results)

    ledger = finish_trace(
        outcome,
        [(tracer, traced.timing)],
        untraced.timing,
        LAYER_SPANS,
        seed,
    )

    def layer(*names: str) -> float:
        return sum(ledger[name] for name in names)

    enriched = sum(
        1
        for domain_segments in results.segments.values()
        for segment in domain_segments
        if segment.observation.all_addresses()
    )
    outcome.metrics.update({
        "world.build_s": build.timing.norm,
        "measurement.probe_segments_s": layer("measurement.probe_segments"),
        "measurement.enrich_segments_s": layer(
            "measurement.init", "measurement.enrich_segments"
        ),
        "measurement.dataset_table_s": layer("measurement.dataset_table"),
        "measurement.intern_hit_share": (
            study.enricher.intern_hits / enriched if enriched else 0.0
        ),
        "measurement.enrich_lookups": study.enricher.lookups,
        "core.detect_s": layer("core.detect"),
        "core.flux_peaks_s": layer("core.flux_peaks"),
        "core.growth_classify_s": layer(
            "world.zone_series", "core.growth_classify"
        ),
        "core.attribution_s": layer("core.attribution"),
        "reporting.export_s": layer("reporting.export"),
        "routing.lpm_lookup_cold_us": lpm[0],
        "routing.lpm_lookup_warm_us": lpm[1],
        "dnscore.name_parse_us": name_parse,
    })
    return outcome
