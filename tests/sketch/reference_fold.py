"""The sketch fold one row at a time — a test oracle.

``observe`` is the per-row body ``ScopeSketches`` used to carry,
verbatim but for ``self`` → ``sketches``: every stream, count-min
included, takes one update per row, in row order. ``fold_batch`` walks
one day's partition row by row, so the production
``SketchPlane.fold_runs`` (a HyperLogLog slot per distinct domain and
role, count-min once per distinct key per call) must land on the same
serialized plane.
"""

from repro.sketch.hll import HyperLogLog
from repro.sketch.plane import KEY_SEP


def observe(sketches, domain, day, matches, third_party):
    """Fold one row's match facts in (commutative in row order)."""
    sketches.rows_observed += 1
    sketches.domains.add(domain)
    if not matches:
        for key in third_party:
            sketches.third_party.update(key)
            sketches.third_party_counts.update(key)
        return
    sketches.matched_rows += 1
    for provider in sorted(matches):
        day_key = provider + KEY_SEP + str(day)
        sketches.provider_days.update(provider)
        sketches.provider_topk.update(provider)
        sketches.provider_day.update(day_key)
        per_provider = sketches.provider_domains.get(provider)
        if per_provider is None:
            per_provider = sketches.provider_domains[provider] = (
                HyperLogLog(
                    sketches.config.hll_precision,
                    sketches.config.role_seed("hll:provider-domains"),
                )
            )
        per_provider.add(domain)
        per_day = sketches.provider_day_domains.get(day_key)
        if per_day is None:
            per_day = sketches.provider_day_domains[day_key] = (
                HyperLogLog(
                    sketches.config.day_hll_precision,
                    sketches.config.role_seed("hll:provider-day"),
                )
            )
        per_day.add(domain)


def fold_batch(plane, scope, day, batch, row_matches):
    """One ``observe`` per row of *batch*, in row order."""
    sketches = plane.scope(scope)
    for index, matches in enumerate(row_matches):
        third = () if matches else plane.third_party_keys(
            batch.ns_texts(index), batch.cname_texts(index)
        )
        observe(sketches, batch.domain_text(index), day, matches, third)
