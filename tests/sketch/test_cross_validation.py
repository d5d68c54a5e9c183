"""Sketch estimates against exact columnar answers, three seeds.

Every estimate the plane serves — provider top-K by adoption, churn
heavy-hitters, per-provider-day adoption counters, distinct-domain
cardinalities, third-party hoster rankings — is checked against an
exact fold over the same landed store, and the fold itself is tied to
:meth:`AdoptionStudy.detect_from_store` output (the interval keys are
exactly the matched domains). All asserts are error-bound claims the
sketches guarantee, never golden values: CMS may only overestimate and
by at most ``εN``; space-saving in its exact regime is exact; HLL must
land within a few standard errors of ``1.04/√m``.
"""

from __future__ import annotations

import math
from typing import Dict, Set, Tuple

from repro.core.references import SignatureCatalog
from repro.measurement.snapshot import sld_of
from repro.sketch.build import sketch_from_store
from repro.stream.engine import SCOPE_OF_SOURCE

SCOPE = "gtld"


def _exact_facts(store, catalog):
    """The exact answers, folded straight off the columnar store.

    Returns (row counts per provider-day, distinct domains per
    provider, first-seen day per provider-domain, distinct domains
    overall, third-party key row counts) for the gTLD scope.
    """
    counts: Dict[Tuple[str, int], int] = {}
    members: Dict[str, Set[str]] = {}
    first_seen: Dict[Tuple[str, str], int] = {}
    domains: Set[str] = set()
    third: Dict[str, int] = {}

    provider_slds = set()
    for signature in catalog:
        provider_slds |= set(signature.cname_slds)
        provider_slds |= set(signature.ns_slds)

    cache = {}
    for source, day in store.partitions():
        if SCOPE_OF_SOURCE[source] != SCOPE:
            continue
        batch = store.batch(source, day)
        names = batch.names
        for index in range(len(batch)):
            domain = names.value(batch.domains[index])
            domains.add(domain)
            text_key = (
                batch.ns_texts(index),
                batch.cname_texts(index),
                batch.asn_set(index),
            )
            matches = cache.get(text_key)
            if matches is None:
                matches = catalog.match(batch.row(index))
                cache[text_key] = matches
            if not matches:
                keys = set()
                for name in batch.ns_texts(index):
                    sld = sld_of(name)
                    if sld and sld not in provider_slds:
                        keys.add("ns:" + sld)
                for name in batch.cname_texts(index):
                    sld = sld_of(name)
                    if sld and sld not in provider_slds:
                        keys.add("cname:" + sld)
                for key in keys:
                    third[key] = third.get(key, 0) + 1
                continue
            for provider in matches:
                counts[provider, day] = counts.get((provider, day), 0) + 1
                members.setdefault(provider, set()).add(domain)
                first_seen.setdefault((provider, domain), day)
    return counts, members, first_seen, domains, third


def _exact_joins(first_seen, provider):
    """Exact first-seen arrivals per day for *provider*."""
    joins: Dict[int, int] = {}
    for (name, domain), day in first_seen.items():
        if name == provider:
            joins[day] = joins.get(day, 0) + 1
    return joins


class TestSketchCrossValidation:
    def test_estimates_within_error_bounds(self, sketch_seeded):
        _, _, results, store = sketch_seeded
        catalog = SignatureCatalog.paper_table2()
        counts, members, first_seen, domains, third = _exact_facts(
            store, catalog
        )
        plane = sketch_from_store(store, catalog=catalog)
        scope = plane.scope(SCOPE)

        # The exact fold agrees with detect_from_store's output: the
        # matched-domain sets are the detection interval keys.
        detected = {
            (domain, provider)
            for domain, provider in results.detection_gtld.intervals
        }
        folded = {
            (domain, provider)
            for (provider, domain) in first_seen
        }
        assert folded == detected

        # -- CMS provider-day adoption: never under; over by <= eN ----
        # The eN bound is probabilistic, holding per key with confidence
        # 1 - delta (delta = e^-depth), so it is asserted as a rate over
        # every key, while never-undercounting is absolute.
        bound = scope.adoption_error_bound()
        assert bound == scope.provider_day.error_bound()
        checked = 0
        over_bound = 0
        for provider in sorted(members):
            days = scope.active_days(provider)
            assert days == sorted(
                day for name, day in counts if name == provider
            )
            for day in days:
                exact = counts[provider, day]
                estimate = scope.adoption_estimate(provider, day)
                assert estimate >= exact
                checked += 1
                over_bound += estimate > exact + bound
            # A never-active day never under-reports its zero either.
            quiet = scope.adoption_estimate(provider, max(days) + 1000)
            assert quiet >= 0
            checked += 1
            over_bound += quiet > bound
        assert checked > 0
        assert over_bound <= max(2, 2 * scope.provider_day.delta * checked)

        # -- space-saving top-K: exact regime, guarantees hold --------
        assert scope.provider_topk.exact
        exact_rows = {
            provider: sum(
                count
                for (name, day), count in counts.items()
                if name == provider
            )
            for provider in members
        }
        top = scope.top_providers(len(members))
        assert [name for name, _, _ in top] == sorted(
            exact_rows, key=lambda name: (-exact_rows[name], name)
        )
        for name, count, error in top:
            assert count - error <= exact_rows[name] <= count
            assert count == exact_rows[name]

        assert scope.third_party.exact
        for name, count, error in scope.top_third_parties(10):
            assert count - error <= third[name] <= count
            assert count == third[name]

        # -- HLL distinct counts: within 3-4 sigma of 1.04/sqrt(m) ----
        exact_domains = len(domains)
        rsd = scope.domains.relative_error
        assert abs(scope.distinct_domains() - exact_domains) <= max(
            2.0, 4 * rsd * exact_domains
        )
        for provider in sorted(members):
            exact_n = len(members[provider])
            estimate = scope.provider_distinct(provider)
            assert abs(estimate - exact_n) <= max(2.0, 4 * rsd * exact_n)

    def test_churn_heavy_hitters_track_exact_flux(self, sketch_seeded):
        _, _, _, store = sketch_seeded
        catalog = SignatureCatalog.paper_table2()
        _, members, first_seen, _, _ = _exact_facts(store, catalog)
        plane = sketch_from_store(store, catalog=catalog)
        scope = plane.scope(SCOPE)

        day_rsd = 1.04 / math.sqrt(
            1 << plane.config.day_hll_precision
        )
        exact_churn: Dict[str, int] = {}
        for provider in sorted(members):
            joins = _exact_joins(first_seen, provider)
            first_day = min(joins)
            exact_churn[provider] = sum(
                count for day, count in joins.items() if day != first_day
            )
            # Per-day arrivals from the prefix-union walk track the
            # exact first-seen counts within HLL error of the base.
            tolerance = max(
                2.0, math.ceil(4 * day_rsd * len(members[provider])) + 1
            )
            for day, estimate in scope.joins_series(provider):
                exact = joins.get(day, 0)
                assert abs(estimate - exact) <= tolerance
            assert (
                abs(scope.churn_score(provider) - exact_churn[provider])
                <= tolerance * 2
            )

        # The churn ranking's head is a genuine heavy hitter: its
        # exact churn is within tolerance of the exact maximum.
        ranking = scope.top_churn(3)
        assert ranking
        head = ranking[0][0]
        best = max(exact_churn.values())
        head_tolerance = max(
            4.0, 4 * day_rsd * len(members[head]) + 2
        )
        assert exact_churn[head] >= best - head_tolerance

        # Anomaly counters are consistent with the series they scan.
        for provider in sorted(members):
            series = dict(scope.joins_series(provider))
            for day, joins in scope.migration_anomalies(provider):
                assert series[day] == joins
                assert day in scope.active_days(provider)
                assert joins > 0
