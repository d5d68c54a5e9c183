"""``SketchPlane.fold_runs`` against the row-by-row reference fold.

The production fold takes runs — row *i* holds on the days ``[day,
end)`` — hashes each distinct domain once per HyperLogLog role, and
counts each count-min key over the call before one update with that
count; :mod:`tests.sketch.reference_fold` updates every stream once per
daily row. Count-min is additive and HyperLogLog a register max, so
both must serialize to the same bytes — on one-day runs (the engine's
partition) and on multi-day runs against their expanded days, on
batches that repeat a provider or a third-party key many times, and
under a config whose space-saving capacities are small enough to evict
(the order-sensitive regime, which takes the daily rows' order on both
sides: day by day, each day's rows in batch order). ``derandomize=True``
as in the rest of ``tests/sketch``.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.batch.batch import BatchBuilder  # noqa: E402
from repro.core.references import RefType  # noqa: E402
from repro.sketch import SketchConfig, SketchPlane  # noqa: E402
from tests.sketch import reference_fold  # noqa: E402

DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True)

PROVIDERS = ("Alpha", "Beta", "Gamma", "Delta")
DOMAINS = tuple(f"d{index}.com" for index in range(8))
#: Provider-owned SLDs plus five third-party hosters (NS and CNAME).
NS_NAMES = (
    "ns1.hostco.net.",
    "ns2.otherhost.org.",
    "ns1.alpha-dns.net.",
    "dns.thirdco.com.",
)
CNAMES = ("edge.alpha-edge.net.", "cdn.fastcdn.org.", "www.webfarm.net.")
PROVIDER_SLDS = ("alpha-dns.net", "alpha-edge.net")
#: Space-saving capacities below both key universes (4 providers, 5
#: third-party keys), so the summaries evict; tiny count-min and HLLs
#: so cells and registers collide.
EVICTING = SketchConfig(
    cms_depth=2,
    cms_width=16,
    topk_capacity=2,
    third_party_capacity=3,
    hll_precision=4,
    day_hll_precision=4,
)

rows = st.tuples(
    st.sampled_from(DOMAINS),
    st.lists(st.sampled_from(NS_NAMES), max_size=3, unique=True),
    st.lists(st.sampled_from(CNAMES), max_size=2, unique=True),
    st.dictionaries(
        st.sampled_from(PROVIDERS),
        st.frozensets(st.sampled_from(list(RefType)), min_size=1),
        max_size=3,
    ),
)
partitions = st.lists(
    st.tuples(
        st.sampled_from(("gtld", "nl")),
        st.integers(0, 5),
        st.lists(rows, max_size=30),
    ),
    min_size=1,
    max_size=6,
)


def _plane(config):
    return SketchPlane(
        config, scope_names=("gtld", "nl"), provider_slds=PROVIDER_SLDS
    )


def _dump(plane):
    return json.dumps(plane.to_dict(), sort_keys=True)


def _fold_both(config, feed, shared_pools=True):
    """(production plane, reference plane) after folding *feed*."""
    folded, reference = _plane(config), _plane(config)
    shared = BatchBuilder()
    for scope, day, partition in feed:
        batch = (shared if shared_pools else BatchBuilder()).new_batch()
        for domain, ns_names, cnames, _ in partition:
            batch.append_fields(day, domain, "com", ns_names, (), cnames)
        row_matches = [matches for *_, matches in partition]
        folded.fold_runs(scope, batch, [day + 1] * len(batch), row_matches)
        reference_fold.fold_batch(reference, scope, day, batch, row_matches)
    return folded, reference


@DETERMINISTIC
@given(
    st.sampled_from((SketchConfig(), EVICTING)), partitions, st.booleans()
)
def test_fold_batch_serializes_like_the_row_by_row_fold(
    config, feed, shared_pools
):
    folded, reference = _fold_both(config, feed, shared_pools)
    assert _dump(folded) == _dump(reference)
    assert folded.state_digest() == reference.state_digest()


runs = st.lists(
    st.tuples(rows, st.integers(0, 5), st.integers(1, 4)), max_size=20
)


@DETERMINISTIC
@given(
    st.sampled_from((SketchConfig(), EVICTING)),
    st.lists(
        st.tuples(st.sampled_from(("gtld", "nl")), runs),
        min_size=1,
        max_size=4,
    ),
)
def test_fold_runs_serializes_like_the_expanded_days(config, feed):
    """Runs of one to four days, folded once, against the reference
    fold of each covered day's rows, days ascending."""
    folded, reference = _plane(config), _plane(config)
    shared = BatchBuilder()
    for scope, batch_runs in feed:
        batch = shared.new_batch()
        for (domain, ns_names, cnames, _), start, _ in batch_runs:
            batch.append_fields(start, domain, "com", ns_names, (), cnames)
        ends = [start + length for _, start, length in batch_runs]
        row_matches = [row[3] for row, _, _ in batch_runs]
        folded.fold_runs(scope, batch, ends, row_matches)
        for day in sorted({
            day for start, end in zip(batch.days, ends)
            for day in range(start, end)
        }):
            covering = [
                index for index, end in enumerate(ends)
                if batch.days[index] <= day < end
            ]
            reference_fold.fold_batch(
                reference, scope, day, batch.take(covering),
                [row_matches[index] for index in covering],
            )
    assert _dump(folded) == _dump(reference)


def test_repeated_keys_and_evictions_in_one_batch():
    """The two hazards, pinned on one hand-built partition: every
    provider and hoster recurs within the batch, and both space-saving
    summaries evict."""
    partition = []
    for index in range(24):
        provider = PROVIDERS[index % len(PROVIDERS)]
        matches = {} if index % 3 == 0 else {provider: frozenset()}
        partition.append((
            DOMAINS[index % len(DOMAINS)],
            [NS_NAMES[index % len(NS_NAMES)]],
            [CNAMES[index // 3 % len(CNAMES)]],
            matches,
        ))
    folded, reference = _fold_both(EVICTING, [("gtld", 2, partition)])
    scope = folded.scope("gtld")
    assert not scope.provider_topk.exact
    assert not scope.third_party.exact
    assert scope.provider_days.total == 16
    assert _dump(folded) == _dump(reference)
