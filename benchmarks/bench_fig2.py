"""Figure 2 — DPS use over time, per TLD and combined.

Benchmarks the streaming detection pass over all gTLD domains' enriched
segments and prints the daily series with its anomalous peaks.
"""

from repro.core.pipeline import AdoptionStudy
from repro.reporting.figures import render_figure2


def test_fig2_daily_dps_use(
    benchmark, bench_world, bench_segments, bench_results
):
    study = AdoptionStudy(bench_world)
    gtld_names = [
        name
        for name, timeline in bench_world.domains.items()
        if timeline.tld in ("com", "net", "org")
    ]

    def detect():
        return study.detect(bench_segments, gtld_names)

    result = benchmark.pedantic(detect, rounds=3, iterations=1)
    benchmark.extra_info["gtld_domains"] = len(gtld_names)
    benchmark.extra_info["horizon_days"] = result.horizon
    benchmark.extra_info["peak_any_use"] = max(result.any_use_combined)
    assert result.any_use_combined[0] > 0
    # The zones' anomalies are transversal (§4.1): the combined peak shows
    # in .com as well.
    peak_day = max(
        range(result.horizon), key=result.any_use_combined.__getitem__
    )
    com = result.any_use_by_tld["com"]
    assert com[peak_day] > com[max(0, peak_day - 30)]
    print()
    print(render_figure2(bench_results))
