"""One round-trip law per checkpoint codec class, over driven states.

Every state here is reached the way the program reaches it — by
``observe``, ``update``, ``add``, ``fold_runs``, ``merge``, ``commit``
and ``record_*`` calls — never built from a hand-made payload. Each law
holds both clauses of :mod:`tests.property.laws`: the restored copy
re-encodes to the original's canonical bytes, and after the same next
operation the two still agree, byte for byte and read for read. The
stream engine's law is
``tests/property/test_roundtrip_properties.py::TestCheckpointRoundtrip``.

Runs only where ``hypothesis`` is installed, like the rest of
``tests/property``. The examples are derandomized, so a law that fails
on a tree fails on every run.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.batch.batch import ObservationBatch  # noqa: E402
from repro.core.detection import ScopeState  # noqa: E402
from repro.core.references import RefType  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    FAULT_SITES,
    FaultEvent,
    FaultLog,
    FaultPlan,
    FaultSpec,
)
from repro.sketch import SketchConfig, SketchPlane  # noqa: E402
from repro.sketch.cms import CountMinSketch  # noqa: E402
from repro.sketch.hll import HyperLogLog  # noqa: E402
from repro.sketch.plane import ScopeSketches  # noqa: E402
from repro.sketch.topk import SpaceSaving  # noqa: E402
from repro.store.manifest import SegmentMeta, StoreManifest  # noqa: E402

from tests.property.laws import (  # noqa: E402
    assert_same_text,
    encoded,
    plain,
    through_json,
)

#: Each law's budget: 40 derandomized examples, the whole module about
#: 4 s on a 2-core box.
LAW = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

KEYS = ("a", "b", "c", "d", "e", "f")
DAYS = 6
PROVIDERS = ("Alpha", "Beta", "Gamma")
SCOPES = ("gtld", "nl")
NS_HOSTS = ("ns1.hostco.net.", "ns1.webhost.org.", "ns1.alpha-dns.net.")
PROVIDER_SLDS = ("alpha-dns.net",)


def assert_law(original, restored, step, reads):
    """Clause (a) on *restored*, then clause (b) after *step* on both."""
    assert_same_text(encoded(original), encoded(restored))
    assert reads(restored) == reads(original)
    step(original)
    step(restored)
    assert_same_text(encoded(original), encoded(restored))
    assert reads(restored) == reads(original)


# -- core.detection.ScopeState ------------------------------------------------

matches = st.dictionaries(
    st.sampled_from(PROVIDERS),
    st.frozensets(st.sampled_from(list(RefType)), min_size=1),
    max_size=2,
)
#: ``(domain, tld, day, matches)`` facts, at most one per domain
#: and day (a day stated twice for one domain is an error).
facts = st.dictionaries(
    st.tuples(
        st.sampled_from(
            (("a.com", "com"), ("b.com", "com"), ("c.nl", "nl"))
        ),
        st.integers(min_value=0, max_value=DAYS - 1),
    ),
    matches,
    max_size=14,
).map(
    lambda table: [
        (domain, tld, day, found)
        for ((domain, tld), day), found in sorted(table.items())
    ]
).flatmap(st.permutations)


def scope_state_reads(state):
    return plain(
        {
            "result": state.result(),
            "intervals": state.intervals(),
            "domain": state.domain_intervals("a.com"),
            "seen": state.domains_seen,
            "providers": state.provider_names,
            "adoption": [
                state.adoption(provider, day)
                for provider in PROVIDERS
                for day in range(DAYS)
            ],
            "any": [state.any_adoption(day) for day in range(DAYS)],
            "series": state.any_series(),
            "tlds": [state.tld_series(tld) for tld in ("com", "nl")],
        }
    )


@LAW
@given(facts=facts, data=st.data())
def test_scope_state_law(facts, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(facts)))
    state = ScopeState(DAYS)
    for domain, tld, day, found in facts[:cut]:
        state.observe(domain, tld, day, found)
    restored = ScopeState.from_dict(through_json(state))

    def step(each):
        for domain, tld, day, found in facts[cut:]:
            each.observe(domain, tld, day, found)

    assert_law(state, restored, step, scope_state_reads)


# -- sketch.topk.SpaceSaving --------------------------------------------------

updates = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(min_value=0, max_value=5)),
    max_size=20,
)


def space_saving(capacity, fed):
    summary = SpaceSaving(capacity)
    for key, count in fed:
        summary.update(key, count)
    return summary


def space_saving_reads(summary):
    return plain(
        {
            "top": summary.top(len(KEYS)),
            "estimates": [summary.estimate(key) for key in KEYS],
            "guaranteed": [summary.guaranteed(key) for key in KEYS],
            "exact": summary.exact,
            "totals": (summary.capacity, summary.evictions, summary.total),
        }
    )


@LAW
@given(
    capacity=st.integers(min_value=1, max_value=4),
    fed=updates,
    then=updates,
)
def test_space_saving_law(capacity, fed, then):
    summary = space_saving(capacity, fed)
    restored = SpaceSaving.from_dict(through_json(summary))

    def step(each):
        for key, count in then:
            each.update(key, count)

    assert_law(summary, restored, step, space_saving_reads)


# -- sketch.cms.CountMinSketch ------------------------------------------------

cms_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
    st.booleans(),
)


def count_min(shape, fed):
    depth, width, seed, conservative = shape
    sketch = CountMinSketch(depth, width, seed, conservative)
    for key, count in fed:
        sketch.update(key, count)
    return sketch


def count_min_reads(sketch):
    return plain(
        {
            "estimates": [sketch.estimate(key) for key in KEYS],
            "bound": sketch.error_bound(),
            "shape": (sketch.epsilon, sketch.delta, sketch.conservative),
        }
    )


@LAW
@given(shape=cms_shapes, fed=updates, then=updates)
def test_count_min_law(shape, fed, then):
    sketch = count_min(shape, fed)
    restored = CountMinSketch.from_dict(through_json(sketch))

    def step(each):
        for key, count in then:
            each.update(key, count)

    assert_law(sketch, restored, step, count_min_reads)


# -- sketch.hll.HyperLogLog ---------------------------------------------------

#: Enough distinct keys to carry a precision-4 or -5 counter past its
#: sparse limit (4 or 8 touched registers) into the dense regime.
hll_keys = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=3), max_size=24
)


def hyperloglog(precision, seed, added):
    counter = HyperLogLog(precision, seed)
    for key in added:
        counter.add(key)
    return counter


def hyperloglog_reads(counter):
    return plain(
        {
            "estimate": counter.estimate(),
            "dense": counter.dense is not None,
            "slots": [counter.slot(key) for key in KEYS],
            "limits": (counter.sparse_limit, counter.relative_error),
        }
    )


@LAW
@given(
    precision=st.integers(min_value=4, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
    added=hll_keys,
    then=hll_keys,
    other=hll_keys,
)
def test_hyperloglog_law(precision, seed, added, then, other):
    counter = hyperloglog(precision, seed, added)
    restored = HyperLogLog.from_dict(through_json(counter))

    def step(each):
        for key in then:
            each.add(key)
        each.merge(hyperloglog(precision, seed, other))

    assert_law(counter, restored, step, hyperloglog_reads)


# -- sketch.plane.ScopeSketches / SketchPlane ---------------------------------

#: A config small enough that both space-saving summaries evict (so
#: ``fold_runs`` takes its day-ordered path) and the per-day
#: HyperLogLogs go dense.
sketch_configs = st.builds(
    SketchConfig,
    seed=st.integers(min_value=0, max_value=2**32),
    cms_depth=st.integers(min_value=1, max_value=2),
    cms_width=st.integers(min_value=4, max_value=16),
    topk_capacity=st.integers(min_value=1, max_value=3),
    third_party_capacity=st.integers(min_value=1, max_value=2),
    hll_precision=st.just(4),
    day_hll_precision=st.just(4),
)
#: ``(domain, start day, span, providers, NS host)`` runs.
runs = st.lists(
    st.tuples(
        st.sampled_from(("a.com", "b.com", "c.com", "d.com", "e.com")),
        st.integers(min_value=0, max_value=DAYS - 1),
        st.integers(min_value=1, max_value=3),
        st.lists(st.sampled_from(PROVIDERS), unique=True, max_size=2),
        st.sampled_from(NS_HOSTS),
    ),
    max_size=8,
)
#: Batches folded one after the other into drawn scopes.
folds = st.lists(st.tuples(st.sampled_from(SCOPES), runs), max_size=4)


def fold(plane, scope, folded):
    batch = ObservationBatch()
    for domain, start, _, _, ns_host in folded:
        batch.append_fields(start, domain, "com", (ns_host,), ())
    plane.fold_runs(
        scope,
        batch,
        [start + span for _, start, span, _, _ in folded],
        [
            {provider: frozenset({RefType.NS}) for provider in providers}
            for _, _, _, providers, _ in folded
        ],
    )


def sketch_plane(config, folded):
    plane = SketchPlane(config, SCOPES, PROVIDER_SLDS)
    for scope, batch in folded:
        fold(plane, scope, batch)
    return plane


def scope_sketches_reads(sketches):
    return plain(
        {
            "rows": (sketches.rows_observed, sketches.matched_rows),
            "adoption": [
                sketches.adoption_estimate(provider, day)
                for provider in PROVIDERS
                for day in range(DAYS + 2)
            ],
            "bound": sketches.adoption_error_bound(),
            "distinct": sketches.distinct_domains(),
            "provider_distinct": [
                sketches.provider_distinct(provider)
                for provider in PROVIDERS
            ],
            "top": sketches.top_providers(len(PROVIDERS)),
            "third": sketches.top_third_parties(len(NS_HOSTS)),
            "names": sketches.provider_names(),
            "joins": [
                sketches.joins_series(provider) for provider in PROVIDERS
            ],
            "churn": sketches.top_churn(len(PROVIDERS)),
            "anomalies": [
                sketches.migration_anomalies(provider, factor=1.0, floor=0)
                for provider in PROVIDERS
            ],
        }
    )


def sketch_plane_reads(plane):
    return plain(
        {
            "config": plane.config,
            "provider_slds": sorted(plane.provider_slds),
            "third_party": plane.third_party_keys(NS_HOSTS, ()),
            "scopes": {
                name: scope_sketches_reads(plane.scope(name))
                for name in sorted(plane.scopes)
            },
            "digest": plane.state_digest(),
        }
    )


@LAW
@given(config=sketch_configs, folded=folds, then=runs)
def test_scope_sketches_law(config, folded, then):
    plane = sketch_plane(config, folded)
    sketches = plane.scope("gtld")
    twin = SketchPlane(config, SCOPES, PROVIDER_SLDS)
    twin.scopes["gtld"] = ScopeSketches.from_dict(
        through_json(sketches), config
    )

    def step(each):
        fold(plane if each is sketches else twin, "gtld", then)

    assert_law(sketches, twin.scope("gtld"), step, scope_sketches_reads)


@LAW
@given(config=sketch_configs, folded=folds, then=folds)
def test_sketch_plane_law(config, folded, then):
    plane = sketch_plane(config, folded)
    restored = SketchPlane.from_dict(through_json(plane))

    def step(each):
        for scope, batch in then:
            fold(each, scope, batch)

    assert_law(plane, restored, step, sketch_plane_reads)


# -- faults.plan.FaultLog -----------------------------------------------------

fault_events = st.sampled_from(
    [
        FaultEvent(site, kind)
        for site, (_, kinds) in sorted(FAULT_SITES.items())
        for kind in kinds
    ]
)
log_sites = st.sampled_from(sorted(FAULT_SITES))
log_scopes = st.sampled_from(("gtld", "nl", "alexa"))
counts = st.integers(min_value=1, max_value=3)
log_steps = st.one_of(
    st.tuples(st.just("injection"), fault_events),
    st.tuples(st.just("retry"), log_sites, counts),
    st.tuples(st.just("recovery"), log_sites),
    st.tuples(st.just("drop"), log_sites, counts),
    st.tuples(st.just("quarantine"), log_scopes, st.sampled_from("xyz")),
    st.tuples(st.just("release"), log_scopes),
)


def record(log, step):
    """Apply one ``record_*`` call of :data:`log_steps` to *log*."""
    getattr(log, "record_" + step[0])(*step[1:])


def fault_log(steps):
    log = FaultLog()
    for step in steps:
        record(log, step)
    return log


def fault_log_reads(log):
    return plain(
        {
            "quarantined": log.quarantined_scopes,
            "ticks": log.backoff_ticks,
            "injections": log.injections(),
            "clean": log.is_clean(),
        }
    )


@LAW
@given(
    steps=st.lists(log_steps, max_size=12),
    then=st.lists(log_steps, max_size=4),
)
def test_fault_log_law(steps, then):
    log = fault_log(steps)
    restored = FaultLog.from_dict(through_json(log))

    def step(each):
        for each_step in then:
            record(each, each_step)

    assert_law(log, restored, step, fault_log_reads)


# -- the dataclass codecs -----------------------------------------------------

fault_keys = st.text(alphabet="abc0123", max_size=6)
fault_specs = st.builds(
    lambda event, **fields: FaultSpec(event.site, event.kind, **fields),
    fault_events,
    rate=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    keys=st.none() | st.lists(fault_keys, max_size=3).map(tuple),
    times=st.none() | st.integers(min_value=1, max_value=100),
)
fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**63),
    specs=st.lists(fault_specs, max_size=4).map(tuple),
)
#: ``(source, day, rows)`` partitions of one segment.
segment_partitions = st.lists(
    st.tuples(
        st.sampled_from(("com", "net", "nl", "alexa")),
        st.integers(min_value=0, max_value=549),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=5,
)


def segment_meta(sequence, generation, size, partitions):
    return SegmentMeta.describe(
        f"segments/g{generation}-{sequence:06d}.rseg",
        generation,
        size,
        partitions,
    )


segment_metas = st.builds(
    segment_meta,
    sequence=st.integers(min_value=0, max_value=999_999),
    generation=st.integers(min_value=0, max_value=4),
    size=st.integers(min_value=0, max_value=2**40),
    partitions=segment_partitions,
)
#: One commit: ``(generation, size, partitions, share replaced)``.
commits = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**20),
    segment_partitions,
    st.sets(st.integers(min_value=0, max_value=7), max_size=3),
)


def commit(manifest, step):
    """Enter one segment, replacing the drawn ones as a compaction
    does."""
    generation, size, partitions, replaced = step
    files = [meta.file for meta in manifest.segments]
    manifest.commit(
        segment_meta(
            manifest.next_sequence(), generation, size, partitions
        ),
        replacing={files[index] for index in replaced if index < len(files)},
    )


def store_manifest(steps):
    manifest = StoreManifest()
    for step in steps:
        commit(manifest, step)
    return manifest


store_manifests = st.lists(commits, max_size=6).map(store_manifest)

DATACLASS_CODECS = {
    "SketchConfig": (SketchConfig, sketch_configs),
    "SegmentMeta": (SegmentMeta, segment_metas),
    "StoreManifest": (StoreManifest, store_manifests),
    "FaultSpec": (FaultSpec, fault_specs),
    "FaultPlan": (FaultPlan, fault_plans),
}


@pytest.mark.parametrize("name", sorted(DATACLASS_CODECS))
@LAW
@given(data=st.data())
def test_dataclass_codec_law(name, data):
    """Clause (a) for the value codecs: the restored value re-encodes
    to the same bytes and compares equal."""
    codec, values = DATACLASS_CODECS[name]
    value = data.draw(values)
    restored = codec.from_dict(through_json(value))
    assert_same_text(encoded(value), encoded(restored))
    assert restored == value


WINDOWS = (
    (None, None, None),
    (("com",), None, None),
    (("net", "nl"), 100, 400),
    (None, 0, 0),
    (("alexa",), 300, None),
)


def store_manifest_reads(manifest):
    partitions = manifest.partitions()
    return plain(
        {
            "json": manifest.to_json(),
            "next": manifest.next_sequence(),
            "windows": [
                (
                    manifest.partitions(window[0]),
                    [meta.file for meta in manifest.select(*window)],
                )
                for window in WINDOWS
            ],
            "holding": [
                [meta.file for meta in manifest.holding(source, day)]
                for source, day in partitions
            ],
            "rows": [
                manifest.row_count(source, day)
                for source, day in partitions
            ],
        }
    )


@LAW
@given(steps=st.lists(commits, max_size=6), then=commits)
def test_store_manifest_law(steps, then):
    """Clause (b) for the manifest: the restored manifest lists, prunes
    and numbers segments as the original does, before and after the
    next commit."""
    manifest = store_manifest(steps)
    restored = StoreManifest.from_dict(through_json(manifest))
    assert_law(
        manifest,
        restored,
        lambda each: commit(each, then),
        store_manifest_reads,
    )
