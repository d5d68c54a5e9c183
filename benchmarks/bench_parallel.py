"""repro.parallel — sharded-study speedup.

The sharded measurement phase (``run_sharded_measurement``) against the
serial equivalent, asserting byte-identical output and recording the
speedup in ``extra_info`` (the ≥2× bar is only asserted on machines with
≥4 cores — a single-core runner cannot speed anything up, it can only
prove identity).
"""

from __future__ import annotations

import os
import time

from repro.core.detection import DetectionResult
from repro.parallel.backend import resolve_backend
from repro.parallel.study import run_sharded_measurement

_MIN_CORES_FOR_SPEEDUP = 4
_PARALLEL_WORKERS = 4


def _measure_serial(study):
    segments = study.collect_segments()
    gtld_names = [
        name
        for name, timeline in study.world.domains.items()
        if timeline.tld in ("com", "net", "org")
    ]
    return segments, study.detect(segments, gtld_names)


def test_parallel_study_speedup(benchmark, bench_study):
    started = time.perf_counter()
    serial_segments, serial_detection = _measure_serial(bench_study)
    serial_seconds = time.perf_counter() - started

    measured = benchmark.pedantic(
        lambda: run_sharded_measurement(
            bench_study,
            backend=resolve_backend(workers=_PARALLEL_WORKERS),
        ),
        rounds=1,
        iterations=1,
    )

    # Identity first: the speedup is worthless if the bytes differ.
    assert measured.segments == serial_segments
    assert list(measured.segments) == list(serial_segments)
    merged = DetectionResult.merge([serial_detection])
    gtld = measured.detection_gtld
    assert gtld.any_use_combined == merged.any_use_combined
    assert gtld.intervals == merged.intervals
    assert gtld.domains_seen == merged.domains_seen

    parallel_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["workers"] = _PARALLEL_WORKERS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    if (os.cpu_count() or 1) >= _MIN_CORES_FOR_SPEEDUP:
        assert speedup >= 2.0, (
            f"expected >=2x on {os.cpu_count()} cores, got {speedup:.2f}x"
        )
