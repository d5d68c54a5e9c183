"""Command-line interface: ``python -m repro <command>``.

Commands::

    study        run the full study and print selected artifacts
    resolve      dig-style resolution against the simulated world on a day
    zonefile     print a day's zone listing for a TLD (or the Alexa list)
    pfx2as       dump or query a day's Routeviews-style pfx2as snapshot
    fingerprint  run the §3.3 bootstrap for one provider
    measure      run one day's measurement and land it in a segment store
    stream       tail the world day-by-day with the incremental engine
    serve        run the live adoption query service (docs/SERVING.md)
    analyze      run the determinism & invariant linter over source trees
    store        compact/inspect on-disk observation stores
    sketch       constant-memory streaming summaries (docs/SKETCHES.md)
    faults       list fault-injection sites / print an example fault plan

Every command accepts ``--scale`` and ``--seed``; the world is rebuilt
deterministically from those, so output is reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.core.exposure import analyze_exposure, render_exposure
from repro.core.pipeline import STUDY_FAULT_SITES, AdoptionStudy
from repro.core.references import SignatureCatalog
from repro.dnscore.name import DomainName
from repro.dnscore.resolver import IterativeResolver, ResolutionError
from repro.dnscore.rrtypes import RRType
from repro.measurement.zonefeed import ZoneFeed
from repro.world.scenario import ScenarioConfig, build_paper_world

DEFAULT_SCALE = 12000

ARTIFACTS = (
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "anomalies", "exposure",
)

#: artifact → detection scopes it renders from. An artifact is skipped
#: when any of its scopes is quarantined by a fault plan (its numbers
#: would be the zeroed placeholders, not measurements).
ARTIFACT_SCOPES = {
    "fig2": ("gtld",),
    "fig3": ("gtld",),
    "fig4": ("gtld",),
    "fig5": ("gtld",),
    "fig6": ("nl", "alexa"),
    "fig7": ("gtld",),
    "fig8": ("gtld",),
    "anomalies": ("gtld",),
    "exposure": ("gtld",),
}


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=_count(1), default=DEFAULT_SCALE,
        help="divide the paper's absolute counts by this "
             f"(default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--seed", type=int, default=2016, help="scenario seed",
    )


def _count(
    minimum: int, maximum: Optional[int] = None
) -> Callable[[str], int]:
    """An argparse type: an integer in ``[minimum, maximum]``, so a bad
    count, size or port is a usage error (exit 2) before any work
    starts."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}: {value}"
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be at most {maximum}: {value}"
            )
        return value

    return count


def _add_days_option(parser: argparse.ArgumentParser, verb: str) -> None:
    # The feed's end day is exclusive: --days N covers days 0..N-1.
    parser.add_argument(
        "--days", type=_count(0), default=None, metavar="N",
        help=f"{verb} days 0..N-1 (default: the full horizon)",
    )


def _build_world(args: argparse.Namespace):
    """The paper world of ``--scale``/``--seed``; a scale too coarse to
    hold the scenario's third parties exits 1 with one ``error:`` line."""
    try:
        return build_paper_world(
            ScenarioConfig(scale=args.scale, seed=args.seed)
        )
    except ValueError as error:
        print(
            f"error: --scale {args.scale} is too coarse for the paper "
            f"world: {error}",
            file=sys.stderr,
        )
        raise SystemExit(1) from None


def _parse_sources(text: str) -> Optional[Tuple[str, ...]]:
    """The ``--sources`` list, or None after one ``error:`` line when it
    names an unknown source or none at all."""
    from repro.measurement.scheduler import ALL_SOURCES

    sources = tuple(s for s in text.split(",") if s)
    unknown = set(sources) - set(ALL_SOURCES)
    if unknown:
        print(f"error: unknown sources {sorted(unknown)}", file=sys.stderr)
        return None
    if not sources:
        print("error: --sources names no source", file=sys.stderr)
        return None
    return sources


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Measuring the Adoption of DDoS Protection "
            "Services' (IMC 2016)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser(
        "study", help="run the full study and print artifacts"
    )
    _add_world_options(study)
    study.add_argument(
        "--artifact", action="append", choices=ARTIFACTS + ("all",),
        help="artifact(s) to print (default: all)",
    )
    study.add_argument(
        "--output", help="also write artifacts + series.json to this dir",
    )
    study.add_argument(
        "--fault-plan", metavar="PLAN.JSON",
        help=(
            "run under this fault plan (see 'repro faults'); injected "
            "faults are retried/contained and accounted in the output"
        ),
    )

    resolve = commands.add_parser(
        "resolve", help="resolve a name against the world on a given day"
    )
    _add_world_options(resolve)
    resolve.add_argument("name", help="domain name to resolve")
    resolve.add_argument("--day", type=int, default=0)
    resolve.add_argument(
        "--type", dest="rrtype", default="A",
        choices=["A", "AAAA", "NS", "CNAME"],
    )

    zonefile = commands.add_parser(
        "zonefile", help="print a day's zone listing"
    )
    _add_world_options(zonefile)
    zonefile.add_argument("tld", help="com/net/org/nl or 'alexa'")
    zonefile.add_argument("--day", type=int, default=0)
    zonefile.add_argument("--limit", type=_count(0), default=20)

    pfx2as = commands.add_parser(
        "pfx2as", help="dump or query a day's pfx2as snapshot"
    )
    _add_world_options(pfx2as)
    pfx2as.add_argument("--day", type=int, default=0)
    pfx2as.add_argument(
        "--lookup", help="address to look up instead of dumping",
    )
    pfx2as.add_argument("--limit", type=_count(0), default=30)

    fingerprint = commands.add_parser(
        "fingerprint", help="derive one provider's Table 2 row (§3.3)"
    )
    _add_world_options(fingerprint)
    fingerprint.add_argument("provider")
    fingerprint.add_argument("--day", type=int, default=30)

    measure = commands.add_parser(
        "measure",
        help="run a day's measurement and land it in a segment store",
    )
    _add_world_options(measure)
    measure.add_argument("source", help="com/net/org/nl or 'alexa'")
    measure.add_argument("--day", type=int, default=0)
    measure.add_argument("--output", required=True,
                         help="segment store directory (created if "
                              "missing; earlier partitions are kept)")

    stream = commands.add_parser(
        "stream",
        help="tail the world day-by-day with the incremental ingest engine",
    )
    _add_world_options(stream)
    _add_days_option(stream, "tail")
    stream.add_argument(
        "--sources", default="com,net,org,nl,alexa",
        help="comma-separated sources to tail",
    )
    stream.add_argument(
        "--interval", type=_count(0), default=50,
        help="print live counters every N days (default 50; 0: only "
             "at the end)",
    )
    stream.add_argument(
        "--checkpoint", help="checkpoint file to write (and resume from)",
    )
    stream.add_argument(
        "--checkpoint-every", type=_count(0), default=0,
        help="also checkpoint every N days (0: only at the end)",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists",
    )
    stream.add_argument(
        "--json", action="store_true",
        help=(
            "print snapshots as canonical JSON lines (the serve "
            "protocol encoding) instead of the counter tables"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help="ingest the world and serve adoption queries over TCP",
    )
    _add_world_options(serve)
    _add_days_option(serve, "ingest")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_count(0, 65535), default=0,
        help="listen port (default 0: ephemeral)",
    )
    serve.add_argument(
        "--strategy", choices=["sliding", "none"],
        default="sliding",
        help="per-client rate-limit strategy (default sliding)",
    )
    serve.add_argument(
        "--limit", type=_count(1), default=60,
        help="requests admitted per client per window (default 60)",
    )
    serve.add_argument(
        "--window", type=_count(1), default=1000,
        help=(
            "rate-limit window in ticks; live serving ticks are "
            "milliseconds, --self-test ticks are requests "
            "(default 1000)"
        ),
    )
    serve.add_argument(
        "--self-test", action="store_true",
        help=(
            "serve on an ephemeral port, run a concurrent client mix "
            "and a deterministic limiter demonstration, then exit"
        ),
    )

    analyze = commands.add_parser(
        "analyze",
        help="run the determinism & invariant linter (docs/ANALYSIS.md)",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument(
        "--format", dest="output_format",
        choices=["text", "json"],
        default="text", help="report format (default text)",
    )
    analyze.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE_ID",
        help="run only this rule (repeatable)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="list available rules and exit",
    )

    store = commands.add_parser(
        "store",
        help="manage on-disk observation stores (docs/STORAGE.md)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_compact = store_commands.add_parser(
        "compact",
        help="merge day segments into multi-day runs (tiered compaction)",
    )
    store_compact.add_argument("directory", help="segment store directory")
    store_compact.add_argument(
        "--fanout", type=_count(2), default=8,
        help="segments per tier before merging into the next (default 8)",
    )

    store_stats = store_commands.add_parser(
        "stats",
        help="print per-partition and total on-disk statistics",
    )
    store_stats.add_argument("directory", help="segment store directory")
    store_stats.add_argument(
        "--source", help="restrict the listing to one source",
    )

    sketch = commands.add_parser(
        "sketch",
        help="constant-memory streaming summaries (docs/SKETCHES.md)",
    )
    sketch_commands = sketch.add_subparsers(
        dest="sketch_command", required=True
    )

    sketch_stats = sketch_commands.add_parser(
        "stats",
        help="ingest the world and print per-scope sketch statistics",
    )
    _add_world_options(sketch_stats)
    _add_days_option(sketch_stats, "ingest")
    sketch_stats.add_argument(
        "--sources", default="com,net,org,nl,alexa",
        help="comma-separated sources to ingest",
    )

    sketch_topk = sketch_commands.add_parser(
        "topk",
        help="ingest the world and print a heavy-hitter ranking",
    )
    _add_world_options(sketch_topk)
    _add_days_option(sketch_topk, "ingest")
    sketch_topk.add_argument(
        "--sources", default="com,net,org,nl,alexa",
        help="comma-separated sources to ingest",
    )
    sketch_topk.add_argument(
        "--stream", choices=["providers", "churn", "third-party"],
        default="providers",
        help="which ranking to print (default providers)",
    )
    sketch_topk.add_argument(
        "--k", type=_count(1), default=10,
        help="number of entries to print (default 10)",
    )
    sketch_topk.add_argument(
        "--scope", default=None,
        help="restrict to one scope (default: every ingested scope)",
    )

    faults = commands.add_parser(
        "faults",
        help="inspect the fault-injection harness (docs/ROBUSTNESS.md)",
    )
    faults.add_argument(
        "--list-sites", action="store_true",
        help="list injection sites and their kinds (the default)",
    )
    faults.add_argument(
        "--example-plan", action="store_true",
        help="print an example fault plan JSON for --fault-plan",
    )

    return parser


# -- command implementations ---------------------------------------------------


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.reporting import figures as fig

    wanted = set(args.artifact or ["all"])
    if "all" in wanted:
        wanted = set(ARTIFACTS)
    fault_plan = None
    if getattr(args, "fault_plan", None):
        from repro.faults.plan import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as error:
            print(
                f"error: cannot load fault plan {args.fault_plan}: {error}",
                file=sys.stderr,
            )
            return 2
        unfired = sorted(
            {spec.site for spec in fault_plan.specs}
            - set(STUDY_FAULT_SITES)
        )
        if unfired:
            print(
                f"error: fault plan {args.fault_plan} names "
                f"{', '.join(unfired)}, which a study never fires "
                f"(it fires {', '.join(STUDY_FAULT_SITES)})",
                file=sys.stderr,
            )
            return 2
    world = _build_world(args)
    study = AdoptionStudy(world, fault_plan=fault_plan)
    results = study.run()
    quarantined = results.quarantined_scopes
    renderers = {
        "table1": lambda: fig.render_table1(results),
        "table2": lambda: fig.render_table2(
            study.derive_table2(), reference=SignatureCatalog.paper_table2()
        ),
        "fig2": lambda: fig.render_figure2(results),
        "fig3": lambda: fig.render_figure3(results),
        "fig4": lambda: fig.render_figure4(results),
        "fig5": lambda: fig.render_figure5(results),
        "fig6": lambda: fig.render_figure6(results),
        "fig7": lambda: fig.render_figure7(results),
        "fig8": lambda: fig.render_figure8(results),
        "anomalies": lambda: fig.render_attributions(results, limit=30),
        "exposure": lambda: render_exposure(
            analyze_exposure(results.detection_gtld)
        ),
    }
    skipped = []
    for name in ARTIFACTS:
        if name not in wanted:
            continue
        if any(
            scope in quarantined
            for scope in ARTIFACT_SCOPES.get(name, ())
        ):
            skipped.append(name)
            continue
        print(renderers[name]())
        print()
    for name in skipped:
        scopes = ", ".join(
            scope for scope in ARTIFACT_SCOPES[name] if scope in quarantined
        )
        print(f";; {name}: skipped (scope {scopes} quarantined)")
    if args.output:
        from repro.reporting.export import export_study

        exportable = [
            name for name in wanted
            if name != "table2" and name not in skipped
        ]
        written = export_study(results, args.output, artifacts=exportable)
        print(f";; wrote {len(written)} files to {args.output}")
    if results.fault_log is not None:
        log = results.fault_log.to_dict()
        print(
            ";; faults: "
            f"{results.fault_log.injections()} injected, "
            f"retries {sum(log['retries'].values())} "
            f"({log['backoff_ticks']} backoff ticks), "
            f"dropped {sum(log['dropped'].values())}"
        )
        for scope, reason in sorted(quarantined.items()):
            print(f";; quarantined {scope}: {reason}")
    return 0


def _is_study_day(world, day: int) -> bool:
    """False, after one ``error:`` line, for a day the world lacks."""
    if 0 <= day < world.horizon:
        return True
    print(
        f"error: no day {day} in the study (window 0..{world.horizon})",
        file=sys.stderr,
    )
    return False


def _cmd_resolve(args: argparse.Namespace) -> int:
    world = _build_world(args)
    if not _is_study_day(world, args.day):
        return 1
    qname = DomainName.from_text(args.name)
    apex = qname.sld()
    target = apex.to_text() if apex is not None else args.name
    network, roots = world.materialize_dns(args.day, [target])
    resolver = IterativeResolver(network, roots)
    try:
        result = resolver.resolve(qname, RRType.from_text(args.rrtype))
    except ResolutionError as error:
        print(f";; resolution failed: {error}")
        return 1
    print(f";; day {args.day}, status {result.rcode.name}, "
          f"{result.queries_sent} queries")
    print(";; ANSWER SECTION:")
    for record in result.answers:
        print(record.to_text())
    if result.authority:
        print(";; AUTHORITY SECTION:")
        for record in result.authority:
            print(record.to_text())
    return 0 if result.answers else 1


def _cmd_zonefile(args: argparse.Namespace) -> int:
    world = _build_world(args)
    feed = ZoneFeed(world)
    try:
        if args.tld == "alexa":
            listing = feed.alexa_listing(args.day)
        else:
            listing = feed.listing(args.tld, args.day)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"; zone {listing.tld} day {listing.day}: "
          f"{len(listing)} names")
    for name in sorted(listing.names)[: args.limit]:
        print(name)
    if len(listing) > args.limit:
        print(f"; ... {len(listing) - args.limit} more")
    return 0


def _cmd_pfx2as(args: argparse.Namespace) -> int:
    world = _build_world(args)
    if not _is_study_day(world, args.day):
        return 1
    snapshot = world.pfx2as_at(args.day)
    if args.lookup:
        origins = snapshot.lookup(args.lookup)
        prefix = snapshot.lookup_prefix(args.lookup)
        if not origins:
            print(f"{args.lookup}: unrouted")
            return 1
        names = ", ".join(
            f"AS{asn} ({world.as_registry.name_of(asn)})"
            for asn in sorted(origins)
        )
        print(f"{args.lookup}: {prefix} → {names}")
        return 0
    lines = snapshot.to_text().splitlines()
    for line in lines[: args.limit]:
        print(line)
    if len(lines) > args.limit:
        print(f"# ... {len(lines) - args.limit} more entries")
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    world = _build_world(args)
    study = AdoptionStudy(world)
    try:
        fingerprints = study.derive_table2(day=args.day)
        result = fingerprints[args.provider]
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{result.provider} (after {result.iterations} iterations)")
    print(f"  ASNs       : {sorted(result.asns)}")
    print(f"  CNAME SLDs : {sorted(result.cname_slds) or '—'}")
    print(f"  NS SLDs    : {sorted(result.ns_slds) or '—'}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.measurement.scheduler import PartitionFeed
    from repro.store import SegmentStore, StorageError

    try:
        with SegmentStore(args.output, create=True) as store:
            if (args.source, args.day) in store.partitions():
                # A second fragment would count the day twice.
                print(
                    f"error: {args.output} already holds "
                    f"{args.source}/{args.day}",
                    file=sys.stderr,
                )
                return 1
            partition = PartitionFeed(_build_world(args)).partition(
                args.source, args.day
            )
            store.append_batch(args.source, args.day, partition.batch)
            stats = store.partition_stats(args.source, args.day)
    except (ValueError, StorageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"measured {len(partition)} domains "
        f"({stats.data_points} data points, "
        f"{stats.encoded_bytes} encoded bytes); "
        f"landed {args.source}/{args.day} in {args.output}"
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.measurement.scheduler import PartitionFeed
    from repro.stream import StreamEngine, load_checkpoint, save_checkpoint
    from repro.stream.checkpoint import CheckpointError

    sources = _parse_sources(args.sources)
    if sources is None:
        return 1

    world = _build_world(args)
    feed = PartitionFeed(world, sources)
    if args.resume and args.checkpoint and os.path.exists(args.checkpoint):
        try:
            engine = load_checkpoint(args.checkpoint)
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not set(sources) <= set(engine.sources):
            print(
                f"error: --sources {','.join(sources)} names sources "
                f"that checkpoint {args.checkpoint} lacks (it holds "
                f"{','.join(engine.sources)})",
                file=sys.stderr,
            )
            return 1
        resumed_from = [
            (source, engine.resume_day(source)) for source in sources
        ]
        print(
            ";; resumed from "
            + ", ".join(f"{source}@{day}" for source, day in resumed_from)
        )
        start = min(
            day for _, day in resumed_from if day is not None
        )
    else:
        engine = StreamEngine(
            world.horizon, sources=sources, windows=feed.windows()
        )
        start = min(window[0] for window in feed.windows().values())

    end = world.horizon if args.days is None else min(args.days, world.horizon)
    last_day = None
    for partition in feed.days(start=start, end=end):
        if partition.day != last_day:
            if last_day is not None:
                days_done = last_day + 1
                if args.interval and days_done % args.interval == 0:
                    _print_stream_snapshots(engine, args.json)
                if (
                    args.checkpoint
                    and args.checkpoint_every
                    and days_done % args.checkpoint_every == 0
                ):
                    save_checkpoint(engine, args.checkpoint)
            last_day = partition.day
        engine.ingest(partition, on_duplicate="skip")

    if last_day is None:
        print(
            f";; nothing tailed: the run starts at day {start} "
            f"and stops before day {end}"
        )
    else:
        print(
            f";; tailed through day {last_day} "
            f"({engine.partitions_applied} partitions applied)"
        )
    _print_stream_snapshots(engine, args.json)
    for scope in engine.scope_names:
        try:
            growth = engine.growth(scope)
        except ValueError:
            continue
        for label, series in growth.items():
            try:
                factor = series.growth_factor
            except ValueError:
                continue
            print(f";; {label}: {factor:.2f}x over the ingested window")
    if args.checkpoint:
        written = save_checkpoint(engine, args.checkpoint)
        print(f";; checkpoint: {args.checkpoint} ({written} bytes)")
    return 0


def _print_stream_snapshots(engine, as_json: bool = False) -> None:
    from repro.reporting.figures import render_stream_counters
    from repro.serve.index import ServeIndex
    from repro.serve.protocol import canonical_json

    index = ServeIndex.build(engine)
    # Engine order, not the index's sorted one: the output is pinned.
    for scope in engine.scope_names:
        snapshot = index.live_snapshot(scope)
        if snapshot.day is None:
            continue
        if as_json:
            print(canonical_json(snapshot.to_dict()))
            continue
        print(
            render_stream_counters(snapshot, index.scope(scope).any_series)
        )
        print()


def _sketch_engine(args: argparse.Namespace):
    """Build the world and ingest it with the sketch plane enabled."""
    from repro.measurement.scheduler import PartitionFeed
    from repro.sketch import SketchConfig
    from repro.stream import StreamEngine

    sources = _parse_sources(args.sources)
    if sources is None:
        return None

    world = _build_world(args)
    feed = PartitionFeed(world, sources)
    engine = StreamEngine(
        world.horizon,
        sources=sources,
        windows=feed.windows(),
        sketches=SketchConfig(),
    )
    end = world.horizon if args.days is None else min(args.days, world.horizon)
    engine.ingest_feed(feed.days(end=end), on_duplicate="skip")
    return engine


def _sketch_scopes(engine, wanted: Optional[str]):
    plane = engine.sketches
    assert plane is not None
    names = [wanted] if wanted else sorted(plane.scopes)
    for name in names:
        yield name, plane.scope(name)


def _cmd_sketch(args: argparse.Namespace) -> int:
    from repro.serve.protocol import canonical_json

    engine = _sketch_engine(args)
    if engine is None:
        return 1
    plane = engine.sketches
    wanted = getattr(args, "scope", None)
    if wanted and wanted not in plane.scopes:
        print(
            f"error: unknown scope {wanted!r}; "
            f"expected one of {sorted(plane.scopes)}",
            file=sys.stderr,
        )
        return 1
    if args.sketch_command == "stats":
        for name, scope in _sketch_scopes(engine, None):
            if not scope.rows_observed:
                continue
            print(canonical_json({
                "scope": name,
                "rows_observed": scope.rows_observed,
                "matched_rows": scope.matched_rows,
                "providers": scope.provider_names(),
                "distinct_domains_estimate": round(
                    scope.distinct_domains(), 1
                ),
                "distinct_relative_error": round(
                    scope.domains.relative_error, 4
                ),
                "adoption_error_bound": round(
                    scope.adoption_error_bound(), 1
                ),
                "topk_exact": scope.provider_topk.exact,
            }))
        print(canonical_json({
            "plane_digest": plane.state_digest(),
        }))
        return 0
    for name, scope in _sketch_scopes(engine, wanted):
        if not scope.rows_observed:
            continue
        if args.stream == "churn":
            entries = [
                {"key": key, "estimate": joins}
                for key, joins in scope.top_churn(args.k)
            ]
        else:
            ranking = (
                scope.top_providers(args.k)
                if args.stream == "providers"
                else scope.top_third_parties(args.k)
            )
            entries = [
                {"key": key, "estimate": count, "error": error}
                for key, count, error in ranking
            ]
        print(canonical_json({
            "scope": name,
            "stream": args.stream,
            "k": args.k,
            "ranking": entries,
        }))
    return 0


def _build_serve_guard(args: argparse.Namespace):
    from repro.serve import AdmissionGuard, SlidingWindowLimiter

    if args.strategy == "none":
        return None
    return AdmissionGuard(
        SlidingWindowLimiter(limit=args.limit, window=args.window)
    )


def _serve_self_test(args: argparse.Namespace, swapper) -> int:
    """Deterministic serve demo: client mix + limiter behaviour."""
    from repro.serve import (
        AdmissionGuard,
        ServeDispatcher,
        SlidingWindowLimiter,
        ThreadedServer,
        request_mix,
    )
    from repro.serve.protocol import Request

    # Round-trip phase runs unguarded (all local connections share one
    # peer key, so any real limit would throttle the test itself); the
    # limiter phase below exercises --limit on its own dispatcher.
    index = swapper.current_index()
    dispatcher = ServeDispatcher(swapper.current_index)
    requests = [("health", {})] + [
        ("aggregate", {"scope": scope}) for scope in index.scope_names
    ] * 3 + [("snapshot", {})]
    with ThreadedServer(dispatcher) as (host, port):
        responses = request_mix(host, port, requests, connections=4)
    succeeded = sum(1 for response in responses if response.get("ok"))
    print(
        f";; self-test: {succeeded}/{len(responses)} responses ok "
        f"over 4 connections"
    )
    if succeeded != len(responses):
        return 1

    # Limiter demonstration at the dispatcher level: logical ticks, one
    # per request, so the outcome is exact and replayable.
    limit = max(1, min(args.limit, 10))
    demo = ServeDispatcher(
        swapper.current_index,
        guard=AdmissionGuard(
            SlidingWindowLimiter(limit=limit, window=10 * limit)
        ),
    )
    burst_total = 3 * limit
    burst_ok = sum(
        1
        for _ in range(burst_total)
        if demo.handle_request(
            Request(op="snapshot", params={}, id=None), "burster"
        ).get("ok")
    )
    steady_ok = demo.handle_request(
        Request(op="snapshot", params={}, id=None), "steady"
    ).get("ok")
    print(
        f";; limiter: burst client {burst_ok}/{burst_total} admitted, "
        f"compliant client {'admitted' if steady_ok else 'denied'}"
    )
    if burst_ok != limit or not steady_ok:
        return 1
    print(";; serve self-test ok")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.measurement.scheduler import ALL_SOURCES, PartitionFeed
    from repro.serve import (
        ServeDispatcher,
        SnapshotSwapper,
        ThreadedServer,
    )
    from repro.sketch import SketchConfig
    from repro.stream import StreamEngine

    world = _build_world(args)
    feed = PartitionFeed(world, tuple(ALL_SOURCES))
    engine = StreamEngine(
        world.horizon, windows=feed.windows(), sketches=SketchConfig()
    )
    swapper = SnapshotSwapper(engine)
    swapper.attach()

    end = (
        world.horizon
        if args.days is None
        else min(args.days, world.horizon)
    )
    engine.ingest_feed(feed.days(end=end), on_duplicate="skip")
    index = swapper.current_index()
    days = ", ".join(
        f"{name}@{index.scope(name).day}" for name in index.scope_names
    )
    print(
        f";; ingested {engine.partitions_applied} partitions "
        f"({days}); index version {index.version}"
    )

    if args.self_test:
        return _serve_self_test(args, swapper)

    # Live serving uses millisecond ticks injected at this edge; the
    # decision path below it stays clock-free (see docs/SERVING.md).
    dispatcher = ServeDispatcher(
        swapper.current_index,
        guard=_build_serve_guard(args),
        tick_source=lambda: time.monotonic_ns() // 1_000_000,
    )
    server = ThreadedServer(dispatcher, host=args.host, port=args.port)
    host, port = server.start()
    print(f";; serving on {host}:{port} (Ctrl-C to drain and stop)")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(
        f";; drained: {dispatcher.requests_handled} requests handled"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import render_json, render_text
    from repro.analysis.project import (
        ProjectAnalyzer,
        all_rule_descriptions,
    )

    descriptions = all_rule_descriptions()
    if args.list_rules:
        for rule_id, summary in descriptions:
            if rule_id != "parse-error":
                print(f"{rule_id}: {summary}")
        return 0
    rule_filter = None
    if args.rules:
        known = {rule_id for rule_id, _ in descriptions}
        unknown = [rule_id for rule_id in args.rules if rule_id not in known]
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(sorted(unknown))}; "
                f"see --list-rules",
                file=sys.stderr,
            )
            return 2
        rule_filter = set(args.rules)
    try:
        result = ProjectAnalyzer().analyze_paths(
            args.paths, rule_filter=rule_filter
        )
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import SegmentStore, StorageError

    try:
        if args.store_command == "compact":
            with SegmentStore(args.directory) as store:
                written = store.compact(fanout=args.fanout)
                stats = store.total_stats()
            if not written:
                print("nothing to compact")
                return 0
            print(f"compacted into {len(written)} segment(s):")
            for path in written:
                print(f"  {path}")
            print(f"store now {stats.encoded_bytes} bytes on disk")
            return 0
        with SegmentStore(args.directory) as store:
            keys = [
                key for key in store.partitions()
                if args.source is None or key[0] == args.source
            ]
            if args.source is not None and not keys:
                print(
                    f"error: no partitions for source {args.source!r}",
                    file=sys.stderr,
                )
                return 1
            print(f"{'SOURCE':<8} {'DAY':>5} {'ROWS':>8} "
                  f"{'POINTS':>9} {'BYTES':>10}")
            for source, day in keys:
                stats = store.partition_stats(source, day)
                print(
                    f"{source:<8} {day:>5} {stats.rows:>8} "
                    f"{stats.data_points:>9} {stats.encoded_bytes:>10}"
                )
            total = store.total_stats(args.source)
            generations = sorted(
                {meta.generation for meta in store.manifest.segments}
            )
            for source in sorted({source for source, _ in keys}):
                rows = store.total_stats(source).rows
                runs = store.stored_rows(source)
                print(f"{source}: {rows} rows in {runs} runs "
                      f"(x{rows / max(runs, 1):.2f})")
        print(
            f"total: {total.rows} rows, {total.data_points} data points, "
            f"{total.encoded_bytes} bytes "
            f"(generations {', '.join(map(str, generations))})"
        )
        return 0
    except StorageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.plan import FAULT_SITES, FaultPlan, FaultSpec

    if args.example_plan:
        plan = FaultPlan(
            seed=2016,
            specs=(
                FaultSpec("prober.observe", "transient", rate=0.01),
                FaultSpec(
                    "study.detect", "poison", keys=("nl",), times=1
                ),
            ),
        )
        print(plan.to_json())
        return 0
    width = max(len(site) for site in FAULT_SITES)
    print(f"{'SITE':<{width}}  KINDS")
    for site in sorted(FAULT_SITES):
        description, kinds = FAULT_SITES[site]
        print(f"{site:<{width}}  {', '.join(kinds)}")
        print(f"{'':<{width}}    {description}")
    return 0


_COMMANDS = {
    "study": _cmd_study,
    "resolve": _cmd_resolve,
    "zonefile": _cmd_zonefile,
    "pfx2as": _cmd_pfx2as,
    "fingerprint": _cmd_fingerprint,
    "measure": _cmd_measure,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "analyze": _cmd_analyze,
    "store": _cmd_store,
    "sketch": _cmd_sketch,
    "faults": _cmd_faults,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
