"""One renderer per paper artifact, driven by :class:`StudyResults`."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.fingerprint import FingerprintResult
from repro.core.peaks import PeakStats
from repro.core.pipeline import StudyResults
from repro.core.references import RefType, SignatureCatalog
from repro.reporting.tables import (
    format_bytes,
    format_count,
    render_dict_table,
    render_table,
)
from repro.reporting.textplot import cdf_chart, line_chart, sparkline
from repro.world.timeline import CCTLD_START_DAY, month_label


def _axis(start_day: int, end_day: int):
    return (month_label(start_day), month_label(end_day))


# -- Table 1 -----------------------------------------------------------------


def render_table1(results: StudyResults) -> str:
    """Data set statistics (source, start, days, #SLDs, #DPs, size)."""
    rows = []
    total_slds = 0
    total_dps = 0
    total_bytes = 0
    for row in results.dataset_table:
        rows.append(
            [
                f".{row.source}" if row.source != "alexa" else "Alexa",
                month_label(row.start_day),
                str(row.days),
                format_count(row.slds),
                format_count(row.data_points),
                format_bytes(row.estimated_bytes),
            ]
        )
        total_slds += row.slds
        total_dps += row.data_points
        total_bytes += row.estimated_bytes
    rows.append(
        [
            "Total",
            "",
            "",
            format_count(total_slds),
            format_count(total_dps),
            format_bytes(total_bytes),
        ]
    )
    return render_table(
        ["Source", "start", "days", "#SLDs", "#DPs", "size"],
        rows,
        title="Table 1: Data set",
    )


# -- Table 2 --------------------------------------------------------------------


def render_table2(
    fingerprints: Mapping[str, FingerprintResult],
    reference: Optional[SignatureCatalog] = None,
) -> str:
    """The derived provider references, optionally vs the ground truth."""
    rows = []
    for name in sorted(fingerprints):
        result = fingerprints[name]
        row = {
            "Provider": name,
            "AS number(s)": ", ".join(str(a) for a in sorted(result.asns)),
            "CNAME SLD(s)": ", ".join(sorted(result.cname_slds)) or "—",
            "NS SLD(s)": ", ".join(sorted(result.ns_slds)) or "—",
        }
        if reference is not None:
            truth = reference.get(name)
            exact = (
                truth is not None
                and truth.asns == result.asns
                and truth.cname_slds == result.cname_slds
                and truth.ns_slds == result.ns_slds
            )
            row["matches Table 2"] = "yes" if exact else "no"
        rows.append(row)
    return render_dict_table(
        rows, title="Table 2: derived DPS provider references"
    )


# -- Figure 2 -----------------------------------------------------------------------


def render_figure2(results: StudyResults) -> str:
    """DPS use over time, per TLD and combined."""
    detection = results.detection_gtld
    series: Dict[str, Sequence[float]] = {
        tld: detection.any_use_by_tld.get(tld, [])
        for tld in ("com", "net", "org")
    }
    series["Combined"] = detection.any_use_combined
    chart = line_chart(
        series,
        x_labels=_axis(0, results.horizon - 1),
    )
    peak_day = max(
        range(results.horizon),
        key=detection.any_use_combined.__getitem__,
    )
    note = (
        f"peak: {format_count(detection.any_use_combined[peak_day])} "
        f"SLDs on day {peak_day} ({month_label(peak_day)})"
    )
    return f"Figure 2: DPS use and zone breakdown\n{chart}\n{note}"


# -- Figure 3 --------------------------------------------------------------------------


def render_figure3(results: StudyResults) -> str:
    """Per-provider use with AS/CNAME/NS method breakdown."""
    detection = results.detection_gtld
    blocks: List[str] = ["Figure 3: DPS use per provider and method"]
    header = ["Provider", "start", "end", "max", "trend"]
    rows = []
    for name, series in sorted(detection.providers.items()):
        rows.append(
            [
                name,
                format_count(series.total[0]),
                format_count(series.total[-1]),
                format_count(max(series.total)),
                sparkline(series.total[:: max(1, len(series.total) // 60)]),
            ]
        )
    blocks.append(render_table(header, rows))
    blocks.append("")
    blocks.append("Method breakdown (mean share of domains per reference):")
    method_rows = []
    for name, series in sorted(detection.providers.items()):
        total_days = sum(series.total) or 1
        shares = {}
        for ref in RefType:
            ref_series = series.by_ref.get(ref)
            shares[ref.value] = (
                sum(ref_series) / total_days if ref_series else 0.0
            )
        method_rows.append(
            [name]
            + [f"{shares[ref.value] * 100:.1f}%" for ref in RefType]
        )
    blocks.append(
        render_table(
            ["Provider", "AS", "CNAME", "NS"],
            method_rows,
        )
    )
    return "\n".join(blocks)


# -- Figure 4 -------------------------------------------------------------------------


def render_figure4(results: StudyResults) -> str:
    """Namespace distribution vs DPS-use distribution."""
    rows = []
    for tld in ("com", "net", "org"):
        rows.append(
            [
                f".{tld}",
                f"{results.namespace_distribution.get(tld, 0) * 100:.2f}%",
                f"{results.dps_distribution.get(tld, 0) * 100:.2f}%",
            ]
        )
    return render_table(
        ["Zone", "Namespace share", "DPS-use share"],
        rows,
        title="Figure 4: DPS use and gTLD distribution over namespace",
    )


# -- Figures 5 and 6 ----------------------------------------------------------------------


def render_figure5(results: StudyResults) -> str:
    """Growth of DPS use vs overall zone expansion (gTLDs)."""
    adoption = results.growth_gtld["DPS adoption"]
    expansion = results.growth_gtld["Overall expansion"]
    chart = line_chart(
        {
            "DPS adoption": [v * 100 for v in adoption.relative()],
            "Overall expansion": [v * 100 for v in expansion.relative()],
        },
        x_labels=_axis(0, results.horizon - 1),
        y_format="{:.0f}%",
    )
    note = (
        f"DPS adoption grew {adoption.growth_factor:.2f}x vs overall "
        f"expansion {expansion.growth_factor:.2f}x "
        f"({len(adoption.anomalous_days)} anomalous days cleaned)"
    )
    return f"Figure 5: Growth of DPS use in ~50% of the DNS\n{chart}\n{note}"


def render_figure6(results: StudyResults) -> str:
    """Growth of DPS use in .nl and the Alexa list."""
    series = {
        label: [v * 100 for v in growth.relative()]
        for label, growth in results.growth_cc.items()
    }
    chart = line_chart(
        series,
        x_labels=_axis(CCTLD_START_DAY, results.horizon - 1),
        y_format="{:.0f}%",
    )
    notes = ", ".join(
        f"{label}: {growth.growth_factor:.3f}x"
        for label, growth in results.growth_cc.items()
    )
    return f"Figure 6: Growth of DPS use in .nl and Alexa\n{chart}\n{notes}"


# -- Figure 7 ----------------------------------------------------------------------------


def render_figure7(results: StudyResults) -> str:
    """Flux of DPS use per provider (two-week first/last-seen deltas)."""
    blocks = ["Figure 7: Flux of DPS use per provider"]
    rows = []
    for name, flux in sorted(results.flux.items()):
        delta = flux.delta
        rows.append(
            [
                name,
                format_count(sum(flux.influx)),
                format_count(sum(flux.outflux)),
                f"{flux.spread():.2f}",
                sparkline(delta),
            ]
        )
    blocks.append(
        render_table(
            ["Provider", "influx", "outflux", "spread", "delta/2wk"],
            rows,
        )
    )
    return "\n".join(blocks)


# -- Figure 8 -----------------------------------------------------------------------------


def render_figure8(results: StudyResults) -> str:
    """On-demand peak-duration CDFs with P80 markers."""
    blocks = ["Figure 8: On-demand peak duration occurrences"]
    rows = []
    for name, stats in sorted(results.peaks.items()):
        if not stats.durations:
            rows.append([name, "0", "—", "—", ""])
            continue
        rows.append(
            [
                name,
                str(stats.domain_count),
                str(len(stats.durations)),
                f"{stats.p80}d",
                sparkline(
                    [p for _, p in stats.cdf(max_days=105)][::3]
                ),
            ]
        )
    blocks.append(
        render_table(
            ["Provider", "domains", "peaks", "P80", "CDF 0..15w"],
            rows,
        )
    )
    return "\n".join(blocks)


def render_provider_detail(results: StudyResults, provider: str) -> str:
    """One provider's Fig. 3 panel: total plus per-reference lines."""
    detection = results.detection_gtld
    series = detection.providers.get(provider)
    if series is None:
        return f"(no data for {provider})"
    lines: Dict[str, Sequence[float]] = {"total": series.total}
    for ref, values in series.by_ref.items():
        lines[ref.value] = values
    chart = line_chart(
        lines,
        x_labels=_axis(0, results.horizon - 1),
    )
    return f"{provider}: DPS use and protection-method breakdown\n{chart}"


def render_peak_cdf(stats: PeakStats) -> str:
    """A full CDF plot for one provider (used by examples)."""
    points = stats.cdf(max_days=105)
    return cdf_chart(
        [(float(d), p) for d, p in points],
        marker=float(stats.p80),
        marker_label=f"P80={stats.p80}d",
    )


# -- §4.4.1 anomalies -------------------------------------------------------------------------


def render_attributions(results: StudyResults, limit: int = 20) -> str:
    """The third-party anomaly walk-through."""
    rows = []
    for attribution in results.attributions[:limit]:
        event = attribution.event
        top = attribution.groups[0] if attribution.groups else ("?", 0)
        rows.append(
            [
                month_label(event.day),
                str(event.day),
                event.provider,
                f"{event.delta:+d}",
                format_count(attribution.domains_involved),
                f"{top[0]} ({top[1]})",
            ]
        )
    return render_table(
        ["When", "day", "Provider", "delta", "domains", "traced to"],
        rows,
        title="Third-party anomalies (§4.4.1)",
    )


# -- live streaming counters ---------------------------------------------------


def render_stream_counters(
    snapshot, any_series: Optional[Sequence[float]] = None
) -> str:
    """Live adoption counters from streamed aggregates.

    *snapshot* is a :class:`repro.serve.index.LiveSnapshot` (duck-typed:
    ``scope``, ``day``, ``domains_seen``, ``any_use``, ``providers``).
    Pass the scope's combined daily series (``ScopeIndex.any_series``)
    to get a trend sparkline alongside the table.
    """
    if snapshot.day is None:
        return f"[{snapshot.scope}] no complete day ingested yet"
    rows = [
        [provider, format_count(snapshot.providers[provider])]
        for provider in sorted(
            snapshot.providers,
            key=lambda p: (-snapshot.providers[p], p),
        )
    ]
    rows.append(["any provider", format_count(snapshot.any_use)])
    table = render_table(
        ["Provider", "SLDs"],
        rows,
        title=(
            f"[{snapshot.scope}] day {snapshot.day} "
            f"({month_label(snapshot.day)}) — "
            f"{format_count(snapshot.domains_seen)} SLDs seen"
        ),
    )
    if any_series:
        trend = sparkline(list(any_series[: snapshot.day + 1]))
        table += f"\nany-use trend {trend}"
    return table
