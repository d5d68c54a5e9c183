"""repro.parallel — sharded-study speedup and LPM-cache ablation.

Two measurements:

* the sharded measurement phase (``run_sharded_measurement``) against
  the serial equivalent, asserting byte-identical output and recording
  the speedup in ``extra_info`` (the ≥2× bar is only asserted on
  machines with ≥4 cores — a single-core runner cannot speed anything
  up, it can only prove identity);
* ``PrefixTrie.longest_match`` with the LRU cache on vs off, over an
  enrichment-shaped address workload (few distinct addresses, looked up
  day after day), recording the cache speedup in ``extra_info``.
"""

from __future__ import annotations

import ipaddress
import os
import time

from repro.core.detection import DetectionResult
from repro.parallel.backend import resolve_backend
from repro.parallel.study import run_sharded_measurement
from repro.routing.prefixtrie import PrefixTrie

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


def _enrichment_workload(world, repeats: int = 10):
    """The addresses an enrichment sweep resolves, pre-parsed, repeated.

    Enrichment's locality comes from a bounded set of hot addresses
    (provider and name-server hosts) queried day after day, so the
    distinct working set is kept below the default cache bound — a
    working set larger than the cache would just thrash the LRU.
    """
    addresses = []
    for hoster in world.hosters:
        for name in list(world.domains)[:100]:
            addresses.append(
                ipaddress.ip_address(hoster.host_address(name))
            )
    return addresses * repeats


def test_lpm_cache_ablation(benchmark, bench_world):
    pfx2as = bench_world.pfx2as_at(0)
    entries = list(pfx2as)
    probes = _enrichment_workload(bench_world)

    def build(cache_size):
        trie = PrefixTrie(lpm_cache_size=cache_size)
        for entry in entries:
            trie.insert(entry.prefix, entry.origins)
        return trie

    def sweep(trie):
        return sum(
            1 for probe in probes if trie.longest_match(probe) is not None
        )

    uncached_trie = build(0)
    started = time.perf_counter()
    uncached_hits = sweep(uncached_trie)
    uncached_seconds = time.perf_counter() - started

    cached_trie = build(4096)
    cached_hits = benchmark.pedantic(
        lambda: sweep(cached_trie), rounds=3, iterations=1
    )

    assert cached_hits == uncached_hits
    assert cached_trie.lpm_cache_hits > 0
    cached_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["probes"] = len(probes)
    benchmark.extra_info["uncached_seconds"] = round(uncached_seconds, 4)
    benchmark.extra_info["lpm_cache_speedup"] = round(
        uncached_seconds / cached_seconds, 3
    )
    # The cache must actually pay for itself on this workload.
    assert cached_seconds < uncached_seconds
