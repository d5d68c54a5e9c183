"""The benchmark's declared metrics — the single list ``BENCHMARK.json``,
``run.py``, ``compare.py`` and the README all follow.

Every run prints every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``), so end-to-end metrics are named for
what all four workloads have: a set-up, a memory peak, an operation a
user waits for, and a rate of work. :data:`ALIASES` maps them to the
workload-specific names the issue and the README talk about; a per-layer
metric of a layer a workload never enters reads 0 there.

``op_latency_p50_ms`` and ``throughput_per_s`` carry one bound: on
``study_batch`` and ``store_replay`` the rate is a constant over the
latency, one measurement in two units, and two bounds would leave the
wider one dead. On ``daily_ingest`` the rate also holds the compaction,
on ``serve_mixed`` it is the other request class.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "study_batch": (
        "researcher path: one serial AdoptionStudy.run() over run-length "
        "segments; all time in measurement/core/dnscore/routing, none in "
        "store/stream/sketch/serve; scale 16000, >=5 reps"
    ),
    "daily_ingest": (
        "operator path: land each day's five partitions uncompressed; "
        "write side of store, sketch fold in stream apply, build side of "
        "serve.index, LPM per (day, address); scale 16000, 27 days"
    ),
    "store_replay": (
        "analyst path: re-read a landed store; read side of the store "
        "codecs, columnar process_batch instead of per-domain detect, "
        "engine without sketch fold; scale 32000, 8 days, >=5 reps"
    ),
    "serve_mixed": (
        "query path: closed-loop client, 1 connection, interleaved point "
        "and sketch requests, each class gated by its own round trips; "
        "read side of serve.index, sketch; scale 32000, >=30 blocks of 1500"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: Workloads that measure it (it reads 0 on the others).
    workloads: Tuple[str, ...]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.05),
    EndToEnd("op_latency_p50_ms", "ms", "lower", 0.15),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.15),
)

#: workload -> issue name -> (end-to-end metric, factor, unit).
ALIASES: Dict[str, Dict[str, Tuple[str, float, str]]] = {
    "study_batch": {
        "study_wall_s": ("op_latency_p50_ms", 1e-3, "s"),
        "study_domain_days_per_s": ("throughput_per_s", 1.0, "1/s"),
    },
    "daily_ingest": {
        "day_latency_p50_ms": ("op_latency_p50_ms", 1.0, "ms"),
        "ingest_rows_per_s": ("throughput_per_s", 1.0, "1/s"),
    },
    "store_replay": {
        "replay_wall_s": ("op_latency_p50_ms", 1e-3, "s"),
        "replay_rows_per_s": ("throughput_per_s", 1.0, "1/s"),
    },
    "serve_mixed": {
        "point_latency_p50_us": ("op_latency_p50_ms", 1e3, "us"),
        "sketch_requests_per_s": ("throughput_per_s", 1.0, "1/s"),
    },
}

_ALL = tuple(WORKLOADS)
_STUDY = ("study_batch",)
_INGEST = ("daily_ingest",)
_REPLAY = ("store_replay",)
_SERVE = ("serve_mixed",)
_STUDY_INGEST = ("study_batch", "daily_ingest")
_LANDING = ("daily_ingest", "store_replay")

#: Which end-to-end metric each of these should move, and on which
#: workload, is written down in the README ("Per-layer metrics").
PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("world.build_s", "s", "lower", _ALL),
    # study_batch: the segment route.
    PerLayer("measurement.probe_segments_s", "s", "lower", _STUDY),
    PerLayer("measurement.enrich_segments_s", "s", "lower", _STUDY),
    PerLayer("measurement.dataset_table_s", "s", "lower", _STUDY),
    PerLayer("measurement.intern_hit_share", "share", "higher", _STUDY),
    PerLayer("core.detect_s", "s", "lower", _STUDY),
    PerLayer("core.flux_peaks_s", "s", "lower", _STUDY),
    PerLayer("core.growth_classify_s", "s", "lower", _STUDY),
    PerLayer("core.attribution_s", "s", "lower", _STUDY),
    PerLayer("reporting.export_s", "s", "lower", _STUDY),
    # Shared by the two measuring workloads.
    PerLayer("measurement.enrich_lookups", "count", "lower", _STUDY_INGEST),
    PerLayer("routing.lpm_lookup_cold_us", "us", "lower", _STUDY_INGEST),
    PerLayer("routing.lpm_lookup_warm_us", "us", "lower", _STUDY_INGEST),
    PerLayer("dnscore.name_parse_us", "us", "lower", _STUDY_INGEST),
    # daily_ingest: the day-by-day route (also store_replay's set-up).
    PerLayer("measurement.listing_s", "s", "lower", _LANDING),
    PerLayer("measurement.probe_day_s", "s", "lower", _LANDING),
    PerLayer("batch.build_s", "s", "lower", _LANDING),
    PerLayer("measurement.enrich_batch_s", "s", "lower", _LANDING),
    PerLayer("store.append_s", "s", "lower", _LANDING),
    PerLayer("stream.apply_s", "s", "lower", _INGEST),
    PerLayer("serve.index_build_s", "s", "lower", _INGEST),
    PerLayer("store.compact_s", "s", "lower", _LANDING),
    PerLayer("store.segments_after_compact", "count", "lower", _LANDING),
    PerLayer("store.bytes_per_row", "B/row", "lower", _LANDING),
    PerLayer("stream.checkpoint_s", "s", "lower", _INGEST),
    PerLayer("stream.state_bytes", "B", "lower", _INGEST),
    PerLayer("sketch.plane_bytes", "B", "lower", _INGEST),
    # store_replay: the read side.
    PerLayer("store.open_s", "s", "lower", _REPLAY),
    PerLayer("store.scan_s", "s", "lower", _REPLAY),
    PerLayer("batch.concat_s", "s", "lower", _REPLAY),
    PerLayer("core.detect_batch_s", "s", "lower", _REPLAY),
    PerLayer("sketch.rebuild_s", "s", "lower", _REPLAY),
    PerLayer("stream.replay_s", "s", "lower", _REPLAY),
    PerLayer("store.day_read_ms", "ms", "lower", _REPLAY),
    # serve_mixed: the query plane.
    PerLayer("serve.dispatch_point_us", "us", "lower", _SERVE),
    PerLayer("serve.codec_us", "us", "lower", _SERVE),
    PerLayer("serve.guard_admit_us", "us", "lower", _SERVE),
    PerLayer("serve.transport_us", "us", "lower", _SERVE),
    PerLayer("serve.server_cpu_us_per_req", "us", "lower", _SERVE),
    PerLayer("sketch.answer_us", "us", "lower", _SERVE),
    PerLayer("sketch.request_latency_p50_us", "us", "lower", _SERVE),
    PerLayer("sketch.request_rate_per_s", "1/s", "higher", _SERVE),
    PerLayer("serve.point_rate_per_s", "1/s", "higher", _SERVE),
    PerLayer("serve.mixed_rate_per_s", "1/s", "higher", _SERVE),
    PerLayer("serve.point_latency_p99_us", "us", "lower", _SERVE),
    PerLayer("serve.error_share", "share", "lower", _SERVE),
    # The tracer itself.
    PerLayer("trace.overhead_share", "share", "lower", _ALL),
    PerLayer("trace.coverage_share", "share", "higher", _ALL),
)

END_TO_END_NAMES: List[str] = [metric.name for metric in END_TO_END]
PER_LAYER_NAMES: List[str] = [metric.name for metric in PER_LAYER]
UNITS: Dict[str, str] = {
    metric.name: metric.unit for metric in END_TO_END + PER_LAYER
}


def benchmark_document(run_seconds: int) -> Dict[str, object]:
    """What ``BENCHMARK.json`` must say (a test compares them)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why}
            for name, why in WORKLOADS.items()
        ],
        "end_to_end": [metric._asdict() for metric in END_TO_END],
        "per_layer": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
            }
            for metric in PER_LAYER
        ],
    }


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``{name: value}`` -> the contract's ``{name: {value, unit}}``."""
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name in sorted(values)
    }
