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
    store        migrate/compact/inspect on-disk observation stores
    sketch       constant-memory streaming summaries (docs/SKETCHES.md)
    faults       list fault-injection sites / print an example fault plan

Every command accepts ``--scale`` and ``--seed``; the world is rebuilt
deterministically from those, so output is reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.core.exposure import analyze_exposure, render_exposure
from repro.core.pipeline import AdoptionStudy
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
        "--scale", type=int, default=DEFAULT_SCALE,
        help="divide the paper's absolute counts by this "
             f"(default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--seed", type=int, default=2016, help="scenario seed",
    )


def _build_world(args: argparse.Namespace):
    return build_paper_world(
        ScenarioConfig(scale=args.scale, seed=args.seed)
    )


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
        "--workers", type=int, default=None, metavar="N",
        help=(
            "run the measurement phase sharded over N worker processes "
            "(results are byte-identical to a serial run; default: serial)"
        ),
    )
    study.add_argument(
        "--shard-count", type=int, default=None, metavar="M",
        help=(
            "number of hash shards for the sharded measurement phase "
            "(default: 4 per worker)"
        ),
    )
    study.add_argument(
        "--backend", default=None, metavar="NAME",
        help=(
            "execution backend for the sharded measurement phase "
            "(serial or local; default: $REPRO_BACKEND, else local, "
            "when --workers or --shard-count is set)"
        ),
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
    zonefile.add_argument("--limit", type=int, default=20)

    pfx2as = commands.add_parser(
        "pfx2as", help="dump or query a day's pfx2as snapshot"
    )
    _add_world_options(pfx2as)
    pfx2as.add_argument("--day", type=int, default=0)
    pfx2as.add_argument(
        "--lookup", help="address to look up instead of dumping",
    )
    pfx2as.add_argument("--limit", type=int, default=30)

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
    stream.add_argument(
        "--days", type=int, default=None,
        help="stop after this calendar day (default: the full horizon)",
    )
    stream.add_argument(
        "--sources", default="com,net,org,nl,alexa",
        help="comma-separated sources to tail",
    )
    stream.add_argument(
        "--interval", type=int, default=50,
        help="print live counters every N days (default 50)",
    )
    stream.add_argument(
        "--checkpoint", help="checkpoint file to write (and resume from)",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=0,
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
    serve.add_argument(
        "--days", type=int, default=None,
        help="ingest through this calendar day (default: full horizon)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0: ephemeral)",
    )
    serve.add_argument(
        "--strategy", choices=["sliding", "token", "none"],
        default="sliding",
        help="per-client rate-limit strategy (default sliding)",
    )
    serve.add_argument(
        "--limit", type=int, default=60,
        help="requests admitted per client per window (default 60)",
    )
    serve.add_argument(
        "--window", type=int, default=1000,
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
        choices=["text", "json", "sarif"],
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
    analyze.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    analyze.add_argument(
        "--baseline", metavar="FILE",
        help=(
            "suppression baseline to apply (default: "
            "analysis-baseline.json when present)"
        ),
    )
    analyze.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    analyze.add_argument(
        "--write-baseline", metavar="FILE",
        help=(
            "write current findings to FILE as a baseline (entries "
            "need justifications filled in) and exit clean"
        ),
    )

    store = commands.add_parser(
        "store",
        help="manage on-disk observation stores (docs/STORAGE.md)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_migrate = store_commands.add_parser(
        "migrate",
        help="convert a legacy v1 zlib-JSON store to the v2 segment format",
    )
    store_migrate.add_argument("source", help="v1 store directory")
    store_migrate.add_argument("target", help="directory for the v2 store")
    store_migrate.add_argument(
        "--on-error", choices=["raise", "skip"], default="raise",
        help="skip unreadable v1 partitions instead of failing (default raise)",
    )
    store_migrate.add_argument(
        "--compact", type=int, default=None, metavar="FANOUT",
        help="also compact the migrated store with this tier fanout",
    )

    store_compact = store_commands.add_parser(
        "compact",
        help="merge day segments into multi-day runs (tiered compaction)",
    )
    store_compact.add_argument("directory", help="v2 store directory")
    store_compact.add_argument(
        "--fanout", type=int, default=8,
        help="segments per tier before merging into the next (default 8)",
    )

    store_stats = store_commands.add_parser(
        "stats",
        help="print per-partition and total on-disk statistics",
    )
    store_stats.add_argument("directory", help="v2 store directory")
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
    sketch_stats.add_argument(
        "--days", type=int, default=None,
        help="ingest through this calendar day (default: full horizon)",
    )
    sketch_stats.add_argument(
        "--sources", default="com,net,org,nl,alexa",
        help="comma-separated sources to ingest",
    )

    sketch_topk = sketch_commands.add_parser(
        "topk",
        help="ingest the world and print a heavy-hitter ranking",
    )
    _add_world_options(sketch_topk)
    sketch_topk.add_argument(
        "--days", type=int, default=None,
        help="ingest through this calendar day (default: full horizon)",
    )
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
        "--k", type=int, default=10,
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
    # Any of the three execution flags shards the measurement phase;
    # one backend carries all of them into run().
    backend = None
    if (
        args.backend
        or args.workers is not None
        or args.shard_count is not None
    ):
        from repro.parallel.backend import BackendError, resolve_backend

        try:
            backend = resolve_backend(
                args.backend or None,
                workers=args.workers,
                shard_count=args.shard_count,
            )
        except BackendError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    world = _build_world(args)
    study = AdoptionStudy(world, fault_plan=fault_plan)
    results = study.run(backend=backend)
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
            f"dropped {sum(log['dropped'].values())}, "
            f"shards retried {log['shards_retried']}"
        )
        for scope, reason in sorted(quarantined.items()):
            print(f";; quarantined {scope}: {reason}")
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    world = _build_world(args)
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
    if args.tld == "alexa":
        listing = feed.alexa_listing(args.day)
    else:
        try:
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
    import os

    from repro.measurement.scheduler import ALL_SOURCES, PartitionFeed
    from repro.stream import (
        QueryAPI,
        StreamEngine,
        load_checkpoint,
        save_checkpoint,
    )

    sources = tuple(s for s in args.sources.split(",") if s)
    unknown = set(sources) - set(ALL_SOURCES)
    if unknown:
        print(f"error: unknown sources {sorted(unknown)}", file=sys.stderr)
        return 1

    world = _build_world(args)
    feed = PartitionFeed(world, sources)
    if args.resume and args.checkpoint and os.path.exists(args.checkpoint):
        engine = load_checkpoint(args.checkpoint)
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
    api = QueryAPI(engine)
    last_day = None
    for partition in feed.days(start=start, end=end):
        if partition.day != last_day:
            if last_day is not None:
                days_done = last_day + 1
                if args.interval and days_done % args.interval == 0:
                    _print_stream_snapshots(api, engine, args.json)
                if (
                    args.checkpoint
                    and args.checkpoint_every
                    and days_done % args.checkpoint_every == 0
                ):
                    save_checkpoint(engine, args.checkpoint)
            last_day = partition.day
        engine.ingest(partition, on_duplicate="skip")

    print(
        f";; tailed through day {last_day} "
        f"({engine.partitions_applied} partitions applied)"
    )
    _print_stream_snapshots(api, engine, args.json)
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


def _print_stream_snapshots(api, engine, as_json: bool = False) -> None:
    from repro.reporting.figures import render_stream_counters
    from repro.serve.protocol import canonical_json

    for scope in engine.scope_names:
        snapshot = api.snapshot(scope)
        if snapshot.day is None:
            continue
        if as_json:
            print(canonical_json(snapshot.to_dict()))
            continue
        print(
            render_stream_counters(
                snapshot, engine.scope(scope).any_series()
            )
        )
        print()


def _sketch_engine(args: argparse.Namespace):
    """Build the world and ingest it with the sketch plane enabled."""
    from repro.measurement.scheduler import ALL_SOURCES, PartitionFeed
    from repro.sketch import SketchConfig
    from repro.stream import StreamEngine

    sources = tuple(s for s in args.sources.split(",") if s)
    unknown = set(sources) - set(ALL_SOURCES)
    if unknown:
        print(f"error: unknown sources {sorted(unknown)}", file=sys.stderr)
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
    from repro.serve import (
        AdmissionGuard,
        SlidingWindowLimiter,
        TokenBucketLimiter,
    )

    if args.strategy == "none":
        return None
    if args.strategy == "token":
        strategy = TokenBucketLimiter(
            capacity=args.limit,
            ticks_per_token=max(1, args.window // max(1, args.limit)),
        )
    else:
        strategy = SlidingWindowLimiter(
            limit=args.limit, window=args.window
        )
    return AdmissionGuard(strategy)


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
    from repro.analysis.baseline import (
        BaselineError,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.project import (
        ProjectAnalyzer,
        all_rule_descriptions,
    )
    from repro.analysis.sarif import render_sarif

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
    if args.write_baseline:
        write_baseline(result.findings, args.write_baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}; fill in the justifications"
        )
        return 0
    stale = []
    if not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None and os.path.exists(
            "analysis-baseline.json"
        ):
            baseline_path = "analysis-baseline.json"
        if baseline_path is not None:
            try:
                baseline = load_baseline(baseline_path)
            except (BaselineError, OSError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            match = baseline.apply(result.findings)
            result.findings = match.new_findings
            stale = match.stale_entries
    if args.output_format == "json":
        report = render_json(result)
    elif args.output_format == "sarif":
        report = render_sarif(result, descriptions)
    else:
        report = render_text(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    for entry in stale:
        print(
            f"warning: stale baseline entry: {entry.rule} at "
            f"{entry.path} no longer matches any finding",
            file=sys.stderr,
        )
    return 0 if result.clean else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import SegmentStore, StorageError
    from repro.store.migrate import migrate_store

    try:
        if args.store_command == "migrate":
            report = migrate_store(
                args.source,
                args.target,
                on_error=args.on_error,
                compact_fanout=args.compact,
            )
            print(
                f"migrated {report.partitions} partitions "
                f"({report.rows} rows) into {report.segments} segment(s): "
                f"{report.source_bytes} -> {report.target_bytes} bytes"
            )
            for source, day, reason in report.skipped:
                print(f";; skipped {source}/{day}: {reason}")
            return 0
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
                FaultSpec("feed.partition", "transient", rate=0.05),
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
