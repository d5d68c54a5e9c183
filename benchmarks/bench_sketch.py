"""repro.sketch — the constant-memory aggregate plane, measured.

Two gates over the same 10× landed history as ``bench_scale.py``
(one gTLD source, a 60-day window, ``REPRO_BENCH_SCALE10`` world —
default 4000 → ~34k domains, ~1.7M observation rows):

* aggregate answer latency — a full provider-level question battery
  (per-provider adoption + distinct counts, top-K by adoption and by
  churn, distinct-domain cardinality) answered from the maintained
  sketch plane must run ≥10× faster than the exact whole-history pass
  (:meth:`AdoptionStudy.detect_from_store`). The plane answers from
  state the engine already holds; the exact path re-reads history.
* constant read memory — fresh child processes load a serialized plane
  built from the 60-day history and one built from a 12-day prefix and
  answer the same aggregate. Sketch widths are fixed up front, so the
  long-history plane's resident set must stay within 1.25× of the
  short one (an exact index grows with every domain-day it has seen).

The fixture also lands the same history one day per segment and
compacts it, so it reads back as multi-day run fragments, and rebuilds
the plane from that store: the rebuild must land on the same
``state_digest()`` as the one from the daily store, so the run fold is
checked at 10× scale. (The long store holds its 60 days in one segment,
which compaction leaves as it is.) Both rebuild times ride the first
gate's ``extra_info``; the gates themselves read the uncompacted store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.core.pipeline import AdoptionStudy
from repro.sketch.build import sketch_from_store
from repro.store import SegmentStore
from repro.stream.feed import SegmentReplayFeed
from repro.world.scenario import ScenarioConfig, build_paper_world

import pytest

SCALE10 = int(os.environ.get("REPRO_BENCH_SCALE10", "4000"))
SCALE10_SEED = 2016
SOURCE = "com"
SCOPE = "gtld"
DAYS = 60
#: Short-history prefix for the constant-memory comparison.
SHORT_DAYS = 12


@pytest.fixture(scope="module")
def sketch_bench(tmp_path_factory):
    """(study, landed store, plane, long/short plane JSON paths,
    rebuild seconds from the daily and the compacted store)."""
    world = build_paper_world(
        ScenarioConfig(scale=SCALE10, seed=SCALE10_SEED)
    )
    study = AdoptionStudy(world)
    segments = study.collect_segments()

    root = tmp_path_factory.mktemp("sketch10")
    feed = SegmentReplayFeed(world, segments, sources=(SOURCE,))
    parts = [
        (part.source, part.day, part.observations)
        for part in feed.days(end=DAYS)
    ]
    landed = SegmentStore(str(root / "long"), create=True)
    landed.append_partitions(parts)
    started = time.perf_counter()
    plane = sketch_from_store(landed)
    rebuild = {"rebuild_seconds": time.perf_counter() - started}
    with SegmentStore(str(root / "compacted"), create=True) as compacted:
        for part in parts:
            compacted.append_partitions([part])
        compacted.compact()
        assert [
            meta.generation for meta in compacted.manifest.segments
        ] == [1], "the day-by-day landing did not compact to runs"
        started = time.perf_counter()
        runs_plane = sketch_from_store(compacted)
        rebuild["compacted_rebuild_seconds"] = time.perf_counter() - started
    assert runs_plane.state_digest() == plane.state_digest(), (
        "the compacted store's rebuild differs from the daily store's"
    )
    with SegmentStore(str(root / "short"), create=True) as short:
        short.append_partitions(
            part for part in parts if part[1] < SHORT_DAYS
        )
        short_plane = sketch_from_store(short)

    long_path = str(root / "plane-long.json")
    short_path = str(root / "plane-short.json")
    with open(long_path, "w", encoding="utf-8") as handle:
        json.dump(plane.to_dict(), handle)
    with open(short_path, "w", encoding="utf-8") as handle:
        json.dump(short_plane.to_dict(), handle)
    yield study, landed, plane, long_path, short_path, rebuild
    landed.close()


def _aggregate_battery(plane):
    """Every provider-level question the serve plane answers."""
    scope = plane.scope(SCOPE)
    answers = {
        "top_providers": scope.top_providers(10),
        "top_churn": scope.top_churn(10),
        "top_third_parties": scope.top_third_parties(10),
        "distinct_domains": scope.distinct_domains(),
    }
    for provider in scope.provider_names():
        day = max(scope.active_days(provider), default=0)
        answers[provider] = (
            scope.adoption_estimate(provider, day),
            scope.provider_distinct(provider),
        )
    return answers


def test_sketch_aggregates_vs_exact_pass_at_10x(benchmark, sketch_bench):
    study, landed, plane, _, _, rebuild = sketch_bench
    total_rows = sum(
        landed.row_count(source, day)
        for source, day in landed.partitions()
    )

    started = time.perf_counter()
    exact = study.detect_from_store(landed, (SOURCE,))
    exact_seconds = time.perf_counter() - started

    answers = benchmark.pedantic(
        lambda: _aggregate_battery(plane), rounds=5, iterations=1
    )

    # Integrity first: the plane saw every row the exact pass read.
    scope = plane.scope(SCOPE)
    assert scope.rows_observed == total_rows
    assert answers["top_providers"], "plane has no provider ranking"
    assert exact is not None

    sketch_seconds = benchmark.stats.stats.mean
    speedup = exact_seconds / sketch_seconds
    benchmark.extra_info["rows"] = total_rows
    benchmark.extra_info["exact_seconds"] = round(exact_seconds, 4)
    benchmark.extra_info["sketch_seconds"] = round(sketch_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    for name, seconds in rebuild.items():
        benchmark.extra_info[name] = round(seconds, 4)
    assert speedup >= 10.0, (
        f"sketch aggregates only {speedup:.1f}x over the exact pass"
    )


_RSS_PROBE = """
import json
import os
import sys

from repro.sketch.plane import SketchPlane

with open(sys.argv[1], encoding="utf-8") as handle:
    plane = SketchPlane.from_dict(json.load(handle))
scope = plane.scope(sys.argv[2])
ranking = scope.top_providers(10)
estimate = scope.distinct_domains()
# Current VmRSS, not ru_maxrss: a vfork'd child's peak high-water
# mark records the parent's footprint during the fork window.
with open("/proc/self/statm") as handle:
    rss_pages = int(handle.read().split()[1])
print(len(ranking), rss_pages * os.sysconf("SC_PAGE_SIZE") // 1024)
"""


def _probe_rss(plane_path):
    """Resident set (KiB) of a fresh process answering an aggregate."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    output = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, plane_path, SCOPE],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.split()
    return int(output[0]), int(output[1])


def test_aggregate_rss_constant_in_history(benchmark, sketch_bench):
    """5× more history must not grow the plane's resident set."""
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("requires /proc for resident-set measurement")
    _, _, _, long_path, short_path, _ = sketch_bench

    short_rank, short_rss = _probe_rss(short_path)
    long_rank, long_rss = benchmark.pedantic(
        lambda: _probe_rss(long_path), rounds=2, iterations=1
    )
    assert short_rank > 0 and long_rank > 0

    ratio = long_rss / short_rss
    benchmark.extra_info["short_rss_kib"] = short_rss
    benchmark.extra_info["long_rss_kib"] = long_rss
    benchmark.extra_info["ratio"] = round(ratio, 3)
    assert ratio <= 1.25, (
        f"aggregate read RSS grew {ratio:.2f}x with 5x longer history"
    )
