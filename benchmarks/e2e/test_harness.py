"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os

import pytest

import compare
import run as run_module
from harness import calib, metrics, mix, stats
from harness.common import ROOT, require_program
from harness.trace import Tracer

require_program()

from harness import (  # noqa: E402  (needs src/ on the path)
    daily_ingest,
    serve_mixed,
    store_replay,
    study_batch,
)

#: Paper counts divided by this: a world of a few hundred domains.
TINY = 400000


# -- stats -----------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_highest_supported_percentile(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_spread_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread_share(values) == pytest.approx((q3 - q1) / q2)


# -- trace -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer("w", clock=clock)
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 4.0
            with tracer.span("b"):
                clock.now = 6.0
            clock.now = 7.0
        with tracer.span("a"):
            clock.now = 8.0
        clock.now = 10.0
    own = tracer.self_times()
    assert own == {"root": 10.0 - 6.0 - 1.0, "a": 4.0 + 1.0, "b": 2.0}
    assert sum(own.values()) == pytest.approx(tracer.root_duration())
    assert tracer.call_counts() == {"root": 1, "a": 2, "b": 1}
    assert [span.parent for span in tracer.spans] == [-1, 0, 1, 0]


def test_stolen_kernel_time_leaves_every_open_span():
    clock = FakeClock()
    tracer = Tracer("w", clock=clock)
    with tracer.span("root"):
        with tracer.span("layer"):
            clock.now = 5.0
            tracer.steal(2.0)  # a 2 s kernel run inside both spans
        clock.now = 6.0
    assert tracer.self_times() == {"root": 1.0, "layer": 3.0}


def test_spans_are_written_as_json_lines(tmp_path):
    clock = FakeClock()
    tracer = Tracer("w", rep=3, clock=clock)
    with tracer.span("root"):
        with tracer.span("layer"):
            clock.now = 2.0
    path = tmp_path / "spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        assert tracer.write_jsonl(handle) == 2
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[1] == {
        "workload": "w", "rep": 3, "id": 1, "parent": 0,
        "name": "layer", "start": 0.0, "end": 2.0, "stolen": 0.0,
    }


# -- calibration -------------------------------------------------------------


def test_normalise_subtracts_kernel_time_and_scales_to_reference():
    timing = calib.normalise(
        gross_raw=10.0,
        kernel_time_inside=1.0,
        kernel_samples=[0.004, 0.008],  # mean 0.006: half reference speed
        ref=0.003,
    )
    assert timing.raw == pytest.approx(9.0)
    assert timing.norm == pytest.approx(4.5)
    assert timing.kernel_runs == 2
    same = calib.normalise(2.0, 0.0, [calib.CALIB_REF_S])
    assert same.norm == pytest.approx(same.raw)


def test_measure_brackets_the_sample_and_subtracts_firings_inside():
    clock = FakeClock()

    def kernel():
        clock.now += 0.006
        return 0

    calibrator = calib.Calibrator(clock=clock, kernel=kernel)

    def work():
        clock.now += 1.0
        calibrator.fire()  # what the timer does mid-sample
        clock.now += 1.0
        return "done"

    measured = calibrator.measure(work)
    assert measured.value == "done"
    assert measured.timing.kernel_runs == 3  # before, inside, after
    assert measured.timing.raw == pytest.approx(2.0)
    assert measured.timing.norm == pytest.approx(2.0 * 0.003 / 0.006)
    assert calibrator.runs == 3
    assert calibrator.seconds == pytest.approx(0.018)


def test_a_short_setup_is_repeated_up_to_three_times_as_often():
    from harness.common import median_setup

    made = []
    result = median_setup(
        calib.Calibrator(kernel=lambda: 0),
        lambda: made.append(len(made)) or len(made),
        lambda product: None,
        reps=2,
    )
    assert result.reps == len(made) == 6 and result.product == 6


# -- the request mix ------------------------------------------------------------


NAMES = [f"d{index}.com" for index in range(100)]


def _mix_bytes(seed):
    return b"".join(
        request.frame for request in mix.build_mix(seed, NAMES, 400)
    )


def test_mix_bytes_depend_on_the_seed_only():
    assert _mix_bytes(7) == _mix_bytes(7)
    assert _mix_bytes(7) != _mix_bytes(8)


def test_every_stratum_of_the_mix_has_the_exact_shares():
    requests = mix.build_mix(7, NAMES, 400)
    for start in range(0, 400, mix.STRATUM):
        kinds = [r.kind for r in requests[start:start + mix.STRATUM]]
        assert [kinds.count(kind) for kind in mix.KINDS] == [70, 15, 10, 5]
    first = requests[0]
    assert json.loads(first.frame)["id"] == first.id == 0
    assert first.ok_prefix == b'{"id":0,"ok":true,'


def test_universe_is_a_seeded_sample_of_the_worlds_names(monkeypatch):
    import random

    assert sorted(mix.universe(random.Random(1), NAMES)) == sorted(NAMES)
    monkeypatch.setattr(mix, "UNIVERSE", 30)
    names = mix.universe(random.Random(1), NAMES)
    assert len(set(names)) == 30 and set(names) <= set(NAMES)
    assert names == mix.universe(random.Random(1), NAMES[::-1])
    assert names != mix.universe(random.Random(2), NAMES)


def test_probe_set_is_200_lookups_of_both_kinds():
    protected = [f"p{index}.com" for index in range(150)]
    unprotected = [f"u{index}.net" for index in range(150)]
    probes = mix.probe_set(protected, unprotected)
    assert len(probes) == 200
    assert sum(domain in protected for domain, _ in probes) == 100
    assert json.loads(probes[0][1]) == {
        "v": 1, "id": -1, "op": "lookup",
        "params": {"domain": probes[0][0]},
    }


def _block(points, sketches, factor=1.0):
    block = serve_mixed.Block()
    block.latencies[mix.LOOKUP] = list(points)
    block.latencies[mix.SKETCH] = list(sketches)
    block.requests = len(points) + len(sketches)
    block.wall = sum(points) + sum(sketches)
    block.factor = factor
    return block


def test_class_rates_do_not_move_with_the_mix_shares():
    few = serve_mixed.Summary([_block([1e-4] * 95, [4e-3] * 5)])
    many = serve_mixed.Summary([_block([1e-4] * 50, [4e-3] * 50)])
    assert few.sketch_rate == pytest.approx(250.0)
    assert many.sketch_rate == pytest.approx(few.sketch_rate)
    assert many.point_rate == pytest.approx(few.point_rate)
    assert many.point_p50 == few.point_p50 == 1e-4
    assert many.mixed_rate < few.mixed_rate / 5  # this one does
    slow_box = serve_mixed.Summary([_block([1e-4] * 95, [4e-3] * 5, 0.5)])
    assert slow_box.sketch_rate == pytest.approx(500.0)
    assert slow_box.point_p50 == pytest.approx(5e-5)


# -- compare ------------------------------------------------------------------------


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "within-bound"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
    # Wide but disjoint: every change run beats every base run.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.1) == "better"


def test_compare_reads_result_files(tmp_path):
    for side, factor in (("base", 1.0), ("change", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(4):
            document = {
                "workload": "study_batch", "trace": 0, "seed": seed,
                "metrics": metrics.with_units({
                    "setup_s": 0.2 + seed * 1e-3,
                    "peak_rss_mib": 100.0 + seed * 0.1,
                    "op_latency_p50_ms": (1900.0 + seed) * factor,
                    "throughput_per_s": (3e6 + seed) / factor,
                }),
            }
            (directory / f"r{seed}.json").write_text(json.dumps(document))
    lines = compare.report(
        compare.load(str(tmp_path / "base")),
        compare.load(str(tmp_path / "change")),
    )
    assert len(lines) == 4
    verdicts = {line.split()[1]: line.split()[-1] for line in lines}
    assert verdicts == {
        "setup_s": "within-bound", "peak_rss_mib": "within-bound",
        "op_latency_p50_ms": "worse", "throughput_per_s": "worse",
    }


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_is_what_the_harness_declares():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document == metrics.benchmark_document(run_module.RUN_SECONDS)
    assert 2 <= len(document["workloads"]) <= 8
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in document["end_to_end"])}
    ]
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert len(document["per_layer"]) <= 128


# -- a miniature pass of every workload -------------------------------------------------


def _assert_reports(outcome, trace):
    document = run_module.result_document(outcome, 5, 0.0, trace)
    declared = (
        metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    )
    assert sorted(document["metrics"]) == sorted(declared)
    for name, entry in document["metrics"].items():
        assert entry["unit"] == metrics.UNITS[name]
        assert isinstance(entry["value"], (int, float))
    measured = {
        metric.name for metric in metrics.PER_LAYER
        if outcome.workload in metric.workloads
    }
    if trace:
        # Every layer metric attributed to this workload was measured.
        assert measured <= set(outcome.metrics)
    else:
        assert all(document["metrics"][n]["value"] > 0 for n in declared)
    assert document["attempted"] >= 1
    json.dumps(document, sort_keys=True)  # everything is serialisable
    return document


def test_study_batch_miniature():
    outcome = study_batch.run(5, 0.0, scale=TINY, min_reps=2, setup_reps=2)
    assert outcome.attempted == 2 and outcome.failed == 0
    _assert_reports(outcome, 0)
    traced = study_batch.run_traced(5, 0.0, scale=TINY)
    document = _assert_reports(traced, 1)
    assert traced.digests["export_sha256"] == outcome.digests["export_sha256"]
    assert document["metrics"]["trace.coverage_share"]["value"] > 0.5


def test_daily_ingest_miniature():
    outcome = daily_ingest.run(5, 0.0, scale=TINY, days=3, setup_reps=2)
    assert outcome.attempted == 15 and outcome.failed == 0
    assert outcome.correct
    _assert_reports(outcome, 0)
    traced = daily_ingest.run_traced(5, 0.0, scale=TINY, days=2)
    assert traced.correct or all(
        check.ok for check in traced.checks if "5 %" not in check.name
    )
    _assert_reports(traced, 1)


def test_store_replay_miniature():
    outcome = store_replay.run(
        5, 0.0, scale=TINY, days=2, min_reps=2, setup_reps=2
    )
    assert outcome.attempted == 2 and outcome.correct
    _assert_reports(outcome, 0)
    traced = store_replay.run_traced(5, 0.0, scale=TINY, days=2)
    _assert_reports(traced, 1)
    assert (
        traced.digests["sketch_plane_sha256"]
        == outcome.digests["sketch_plane_sha256"]
    )


def test_serve_mixed_miniature():
    outcome = serve_mixed.run(
        5, 0.0, scale=TINY, days=2, min_blocks=2, block_requests=100,
        warmup_requests=10, setup_reps=1,
    )
    assert outcome.attempted == 200 and outcome.failed == 0
    _assert_reports(outcome, 0)
    traced = serve_mixed.run_traced(
        5, 0.0, scale=TINY, days=2, blocks=2, block_requests=100,
        warmup_requests=10,
    )
    assert traced.failed == 0
    _assert_reports(traced, 1)
