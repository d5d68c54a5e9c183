"""Sharded execution of the full-study measurement + detection phase.

The expensive phase of :meth:`repro.core.pipeline.AdoptionStudy.run` —
probe → enrich → detect over every domain — is embarrassingly parallel
per domain. Each worker holds its own :class:`AdoptionStudy` over the
same world (forked, so the world ships once) and runs the serial body
itself — :meth:`AdoptionStudy.measure` — over its shard's domains; the
parent then merges the per-shard aggregates through the exact merge hooks
(:meth:`DetectionResult.merge`, :meth:`FluxAnalysis.merge`,
:meth:`PeakAnalysis.merge`). Because every merge is an integer sum or a
disjoint keyed union, the merged measurement is byte-identical to a
serial run — for any worker count and any shard count. Growth, being a
nonlinear analysis (median smoothing), is not merged per shard: it runs
in the parent over the merged daily series, which `DetectionResult.merge`
has already aggregated exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detection import DetectionResult
from repro.core.flux import FluxAnalysis
from repro.core.peaks import PeakAnalysis
from repro.core.pipeline import AdoptionStudy, StudyMeasurement
from repro.core.references import SignatureCatalog
from repro.faults.errors import WorkerCrash
from repro.faults.plan import FaultLog, FaultPlan
from repro.measurement.snapshot import ObservationSegment
from repro.parallel.backend import BackendSpec, resolve_backend
from repro.parallel.sharding import partition_names
from repro.world.world import World

#: Per-worker-process study instance (set by the pool initializer).
_WORKER_STUDY: Optional[AdoptionStudy] = None


def _init_study_worker(
    world: World,
    catalog: SignatureCatalog,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Build this worker's study once; shards reuse its caches."""
    global _WORKER_STUDY
    _WORKER_STUDY = AdoptionStudy(world, catalog, fault_plan=fault_plan)


def _study_shard(
    shard_index: int, payload: Tuple[Sequence[str], Sequence[str]]
) -> StudyMeasurement:
    """Measure + detect one shard with the serial code path."""
    study = _WORKER_STUDY
    assert study is not None, "worker initializer did not run"
    domain_names, alexa_names = payload

    # Per-shard accounting: a worker process handles many shards with
    # one study, so reset the log/quarantine surfaces between shards —
    # otherwise each returned part would snapshot the cumulative log
    # and the parent merge would double-count.
    study.fault_log = FaultLog()
    study.quarantined_scopes = {}
    injector = study._injector
    if injector is not None:
        injector.log = study.fault_log
        event = injector.fire("parallel.executor", key=str(shard_index))
        if event is not None:
            # Models this worker dying mid-shard; the backend
            # re-executes the shard in the parent under suppression.
            raise WorkerCrash(event.site, event.kind, event.key)

    return study.measure(domain_names, alexa_names)


def run_sharded_measurement(
    study: AdoptionStudy,
    backend: Optional[BackendSpec] = None,
) -> StudyMeasurement:
    """The parallel equivalent of the serial measurement phase.

    Execution goes through a :class:`repro.parallel.backend.Backend`
    (*backend* spec/instance > ``REPRO_BACKEND`` > the local pool).
    Shards are merged in shard-index order; the result is
    byte-identical to the serial path for any backend and any worker
    and shard count it carries.
    """
    executor = resolve_backend(backend)
    retried_before = executor.shards_retried
    domain_shards = partition_names(
        study.world.domains, executor.shard_count
    )
    alexa_shards = partition_names(
        study.world.alexa_names, executor.shard_count
    )
    parts = executor.map_shards(
        _study_shard,
        list(zip(domain_shards, alexa_shards)),
        initializer=_init_study_worker,
        initargs=(study.world, study.catalog, study.fault_plan),
    )

    # Fold worker-side fault accounting and quarantines back into the
    # parent study (shard-index order keeps the merge deterministic).
    for part in parts:
        for scope, reason in sorted(part.quarantined.items()):
            study.quarantine_scope(scope, reason)
        study.fault_log.absorb(part.fault_log)
    for _ in range(executor.shards_retried - retried_before):
        study.fault_log.record_shard_retry()

    merged_segments: Dict[str, List[ObservationSegment]] = {}
    for part in parts:
        merged_segments.update(part.segments)
    horizon = study.world.horizon
    return StudyMeasurement(
        # Re-keyed to world order, matching the serial collection loop.
        segments={
            name: merged_segments[name] for name in study.world.domains
        },
        detection_gtld=DetectionResult.merge(
            [part.detection_gtld for part in parts]
        ),
        detection_nl=DetectionResult.merge(
            [part.detection_nl for part in parts]
        ),
        detection_alexa=DetectionResult.merge(
            [part.detection_alexa for part in parts]
        ),
        flux=FluxAnalysis(horizon).merge([part.flux for part in parts]),
        peaks=PeakAnalysis(horizon).merge(
            [part.peaks for part in parts]
        ),
    )
