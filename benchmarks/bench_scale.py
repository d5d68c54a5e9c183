"""repro.store — the 10× world-scale gates, measured.

Two gates over the same landed history (one gTLD source, a 60-day
window, ``REPRO_BENCH_SCALE10`` world — default 4000 → ~34k domains,
~1.7M observation rows, roughly 10× the columnar-plane bench world of
``bench_batches.py``):

* whole-history detect from disk — :class:`SegmentStore` mmap open plus
  :meth:`AdoptionStudy.detect_from_store`, timed, and its result must
  be identical to folding the partitions the history was landed from
  straight into a detector. (The former "≥3× over the v1 zlib-JSON layout" gate
  went with the v1 writer; its last measurement, 3.57× at 1.74 M rows,
  is the recorded baseline in ``docs/PERFORMANCE.md``.)
* sublinear read memory — fresh child processes open a 60-day and a
  12-day segment store and read one day's batch; manifest pruning plus
  mmap paging must keep the peak RSS of the long-history read within
  1.6× of the short one (a format that decodes whole files grows
  linearly in history length instead).

The landed days repeat their base, so each store is one full day and a
chain of delta fragments; the fixture reads the first, second and last
day of the long chain back against the batches they were landed from.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.core.detection import SegmentDetector
from repro.core.pipeline import AdoptionStudy
from repro.store import SegmentReader, SegmentStore
from repro.stream.feed import SegmentReplayFeed
from repro.world.scenario import ScenarioConfig, build_paper_world

import pytest

SCALE10 = int(os.environ.get("REPRO_BENCH_SCALE10", "4000"))
SCALE10_SEED = 2016
SOURCE = "com"
DAYS = 60
#: Short-history store length for the sublinear-RSS comparison.
SHORT_DAYS = 12
PROBE_DAY = 5


@pytest.fixture(scope="module")
def scale_bench(tmp_path_factory):
    """(study, landed rows, expected detection, store dir, short store
    dir) at 10× scale. Both stores hold one segment per partition."""
    world = build_paper_world(
        ScenarioConfig(scale=SCALE10, seed=SCALE10_SEED)
    )
    study = AdoptionStudy(world)
    segments = study.collect_segments()

    root = tmp_path_factory.mktemp("scale10")
    full_dir = str(root / "full")
    short_dir = str(root / "short")
    detector = SegmentDetector(study.catalog, world.horizon)
    rows = 0
    landed = {}
    feed = SegmentReplayFeed(world, segments, sources=(SOURCE,))
    with SegmentStore(full_dir, create=True) as full, SegmentStore(
        short_dir, create=True
    ) as short:
        for part in feed.days(end=DAYS):
            full.append_batch(part.source, part.day, part.batch)
            if part.day < SHORT_DAYS:
                short.append_batch(part.source, part.day, part.batch)
            detector.process_batch(part.batch)
            rows += len(part)
            landed[part.day] = part.batch
    # The 60 days land as one base and a chain of deltas against it;
    # the first, second and last day must read back exactly as landed.
    days = sorted(landed)
    with SegmentStore(full_dir) as full:
        bases = []
        for meta in full.manifest.segments:
            path = os.path.join(full_dir, meta.file)
            with SegmentReader(path) as reader:
                bases.extend(ref.base for ref in reader.partitions)
        assert bases == [None] + [days[0]] * (len(days) - 1)
        for day in (days[0], days[1], days[-1]):
            assert full.batch(SOURCE, day).rows() == landed[day].rows()
    return study, rows, detector.result(), full_dir, short_dir


def _detect_from_disk(study, directory):
    with SegmentStore(directory) as store:
        return study.detect_from_store(store, (SOURCE,))


def test_detect_from_store_at_10x(benchmark, scale_bench):
    study, rows, expected, full_dir, _ = scale_bench
    disk_result = benchmark.pedantic(
        lambda: _detect_from_disk(study, full_dir), rounds=2, iterations=1
    )
    # Identity: disk bytes and the batches they were written from must
    # detect the same.
    assert disk_result == expected
    benchmark.extra_info["rows"] = rows


_RSS_PROBE = """
import os
import sys

from repro.store import SegmentReader, SegmentStore

with SegmentStore(sys.argv[1]) as store:
    batch = store.batch("com", int(sys.argv[2]))
    rows = len(batch)
    # Current VmRSS, not ru_maxrss: a vfork'd child's peak high-water
    # mark records the parent's footprint during the fork window.
    with open("/proc/self/statm") as handle:
        rss_pages = int(handle.read().split()[1])
print(rows, rss_pages * os.sysconf("SC_PAGE_SIZE") // 1024)
"""


def _probe_rss(directory, day):
    """Resident set (KiB) of a fresh process holding one day's batch."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    output = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, directory, str(day)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.split()
    return int(output[0]), int(output[1])


def test_single_day_read_rss_sublinear_in_history(benchmark, scale_bench):
    """A pruned single-day read must not pay for the rest of history."""
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("requires /proc for resident-set measurement")
    _, _, _, full_dir, short_dir = scale_bench

    short_rows, short_rss = _probe_rss(short_dir, PROBE_DAY)
    long_rows, long_rss = benchmark.pedantic(
        lambda: _probe_rss(full_dir, PROBE_DAY), rounds=2, iterations=1
    )
    assert long_rows == short_rows > 0

    ratio = long_rss / short_rss
    benchmark.extra_info["short_rss_kib"] = short_rss
    benchmark.extra_info["long_rss_kib"] = long_rss
    benchmark.extra_info["ratio"] = round(ratio, 3)
    assert ratio <= 1.6, (
        f"single-day read RSS grew {ratio:.2f}x with 5x longer history"
    )
