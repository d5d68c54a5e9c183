"""End-to-end invariants of the full study and Table 2 derivation."""

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.core.references import SignatureCatalog


class TestTable2Derivation:
    @pytest.fixture(scope="class")
    def fingerprints(self, study_world):
        return AdoptionStudy(study_world).derive_table2(day=30)

    def test_all_nine_derived(self, fingerprints):
        assert len(fingerprints) == 9

    def test_seed_asns_recovered(self, fingerprints):
        assert 13335 in fingerprints["CloudFlare"].asns
        assert {26415, 30060} <= fingerprints["Verisign"].asns

    def test_cloudflare_slds_recovered(self, fingerprints):
        assert "cloudflare.com" in fingerprints["CloudFlare"].ns_slds

    def test_incapsula_cname_sld_recovered(self, fingerprints):
        assert "incapdns.net" in fingerprints["Incapsula"].cname_slds

    def test_no_hoster_slds_absorbed(self, fingerprints, study_world):
        hoster_slds = {h.ns_sld for h in study_world.hosters}
        for result in fingerprints.values():
            assert not (result.ns_slds & hoster_slds), result.provider
            assert not (result.cname_slds & hoster_slds), result.provider

    def test_no_hoster_asns_absorbed(self, fingerprints, study_world):
        hoster_asns = {h.primary_asn() for h in study_world.hosters}
        for result in fingerprints.values():
            assert not (result.asns & hoster_asns), result.provider

    def test_derived_catalog_detects_like_paper_catalog(
        self, fingerprints, study_world
    ):
        """Detection with the derived Table 2 ≈ detection with ground truth."""
        from repro.measurement.scheduler import PartitionFeed

        derived = SignatureCatalog(
            result.to_signature() for result in fingerprints.values()
        )
        truth = SignatureCatalog.paper_table2()
        rows = PartitionFeed(study_world).partition("com", 30).observations
        derived_hits = {
            row.domain for row in rows if derived.match(row)
        }
        truth_hits = {row.domain for row in rows if truth.match(row)}
        # The derived catalog may miss references that are rare on the
        # chosen day, but must agree on the overwhelming majority.
        missing = truth_hits - derived_hits
        spurious = derived_hits - truth_hits
        assert len(missing) <= max(2, 0.05 * len(truth_hits))
        assert len(spurious) <= max(2, 0.02 * len(truth_hits))


class TestCrossArtifactConsistency:
    def test_fig2_combined_equals_sum_consistency(self, study_results):
        detection = study_results.detection_gtld
        for day in (0, 250, 549):
            total = sum(
                detection.any_use_by_tld.get(tld, [0] * (day + 1))[day]
                for tld in ("com", "net", "org")
            )
            assert detection.any_use_combined[day] == total

    def test_provider_totals_bounded_by_combined(self, study_results):
        detection = study_results.detection_gtld
        for day in (0, 250, 549):
            biggest = max(
                series.total[day]
                for series in detection.providers.values()
            )
            assert biggest <= detection.any_use_combined[day]

    def test_interval_days_match_series_mass(self, study_results):
        """Σ interval days per provider == Σ daily counts (same data)."""
        detection = study_results.detection_gtld
        for provider, series in detection.providers.items():
            interval_days = sum(
                interval.days
                for (domain, p), intervals in detection.intervals.items()
                if p == provider
                for interval in intervals
            )
            assert interval_days == sum(series.total), provider

    def test_dataset_dps_counts_match_zone_series(
        self, study_results, study_world
    ):
        from repro.measurement.snapshot import MEASUREMENTS_PER_DOMAIN_DAY

        for row in study_results.dataset_table:
            if row.source == "alexa":
                continue
            sizes = study_world.zone_size_series(row.source)
            window = sizes[row.start_day : row.start_day + row.days]
            assert row.data_points == (
                sum(window) * MEASUREMENTS_PER_DOMAIN_DAY
            )

    def test_growth_series_lengths(self, study_results):
        adoption = study_results.growth_gtld["DPS adoption"]
        assert len(adoption.raw) == study_results.horizon
        assert len(adoption.smoothed) == study_results.horizon
