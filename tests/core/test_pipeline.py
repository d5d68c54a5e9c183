"""Tests for the full-study orchestration (on the shared mid-size world)."""

import pytest

from repro.core.classification import UsageClass
from repro.core.pipeline import AdoptionStudy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.world.timeline import CCTLD_START_DAY, GTLD_DAYS


class TestStudyShape:
    def test_horizon(self, study_results):
        assert study_results.horizon == GTLD_DAYS

    def test_all_nine_providers_detected(self, study_results):
        assert set(study_results.detection_gtld.providers) == {
            "Akamai", "CenturyLink", "CloudFlare", "DOSarrest",
            "F5 Networks", "Incapsula", "Level 3", "Neustar", "Verisign",
        }

    def test_zone_sizes_present(self, study_results):
        assert set(study_results.zone_sizes) == {"com", "net", "org", "nl"}
        assert len(study_results.zone_sizes["com"]) == GTLD_DAYS

    def test_dataset_table_rows(self, study_results):
        sources = [row.source for row in study_results.dataset_table]
        assert sources == ["com", "net", "org", "nl", "alexa"]
        for row in study_results.dataset_table:
            assert row.slds > 0
            assert row.data_points > 0
            assert row.estimated_bytes > 0

    def test_dataset_windows(self, study_results):
        by_source = {row.source: row for row in study_results.dataset_table}
        assert by_source["com"].days == GTLD_DAYS
        assert by_source["nl"].start_day == CCTLD_START_DAY
        assert by_source["nl"].days == GTLD_DAYS - CCTLD_START_DAY

    def test_segments_retained(self, study_results, study_world):
        assert len(study_results.segments) == len(study_world.domains)


class TestHeadlineNumbers:
    def test_adoption_outgrows_expansion(self, study_results):
        adoption = study_results.provider_growth_factor()
        expansion = study_results.expansion_factor()
        assert adoption > expansion
        assert adoption == pytest.approx(1.24, abs=0.08)
        assert expansion == pytest.approx(1.09, abs=0.03)

    def test_cc_growth_trends(self, study_results):
        nl = study_results.growth_cc["DPS adoption (.nl)"].growth_factor
        nl_zone = study_results.growth_cc[
            "Overall expansion (.nl)"
        ].growth_factor
        alexa = study_results.growth_cc["DPS adoption (Alexa)"].growth_factor
        assert nl > nl_zone
        assert nl == pytest.approx(1.105, abs=0.08)
        assert alexa == pytest.approx(1.118, abs=0.08)

    def test_namespace_distribution(self, study_results):
        assert study_results.namespace_distribution["com"] == pytest.approx(
            0.8247, abs=0.02
        )
        assert sum(
            study_results.namespace_distribution.values()
        ) == pytest.approx(1.0)

    def test_dps_distribution_skews_to_com(self, study_results):
        assert (
            study_results.dps_distribution["com"]
            > study_results.namespace_distribution["com"]
        )

    def test_cloudflare_is_largest(self, study_results):
        detection = study_results.detection_gtld
        end = {
            name: series.total[-1]
            for name, series in detection.providers.items()
        }
        assert max(end, key=end.get) == "CloudFlare"

    def test_cloudflare_mostly_delegated(self, study_results):
        """§4.3: ~75% of CloudFlare-using domains use its name servers."""
        from repro.core.references import RefType

        series = study_results.detection_gtld.providers["CloudFlare"]
        day = 300
        share = series.by_ref[RefType.NS][day] / series.total[day]
        assert share == pytest.approx(0.75, abs=0.08)

    def test_incapsula_rarely_delegated(self, study_results):
        """§4.3: only ~0.02% of Incapsula domains use delegation."""
        from repro.core.references import RefType

        series = study_results.detection_gtld.providers["Incapsula"]
        ns_series = series.by_ref.get(RefType.NS)
        day = 300
        ns_count = ns_series[day] if ns_series else 0
        assert ns_count <= max(2, series.total[day] * 0.05)


class TestDynamics:
    def test_anomalies_traced_to_third_parties(self, study_results):
        tracked = {"ns:wixdns.net", "ns:enomdns.com", "ns:zohodns.com",
                   "ns:sedoparking.com", "ns:registrar-servers.com"}
        top_groups = {
            attribution.top_group
            for attribution in study_results.attributions
        }
        assert tracked & top_groups

    def test_sedo_trough_on_day_266(self, study_results):
        akamai = [
            a for a in study_results.attributions
            if a.event.provider == "Akamai" and a.event.day == 266
        ]
        assert akamai
        assert akamai[0].event.delta < 0
        assert akamai[0].top_group == "ns:sedoparking.com"

    def test_on_demand_populations_exist(self, study_results):
        for provider in ("Neustar", "CloudFlare", "Verisign"):
            stats = study_results.peaks[provider]
            assert stats.domain_count > 0
            assert stats.durations

    def test_short_lived_vs_long_lived_peaks(self, study_results):
        """Fig. 8 ordering: Neustar P80 well below CloudFlare's."""
        assert (
            study_results.peaks["Neustar"].p80
            < study_results.peaks["CloudFlare"].p80
        )

    def test_usage_classes_present(self, study_results):
        classes = {usage.usage for usage in study_results.usages}
        assert UsageClass.ALWAYS_ON in classes
        assert UsageClass.ON_DEMAND in classes
        assert UsageClass.ADOPTED in classes

    def test_flux_counts_each_domain_once(self, study_results, study_world):
        flux = study_results.flux["Incapsula"]
        assert sum(flux.influx) <= len(
            [
                1
                for (domain, provider) in (
                    study_results.detection_gtld.intervals
                )
                if provider == "Incapsula"
            ]
        )


class TestTable1SharesTheStudyEnricher:
    def test_cold_table_equals_warm_table(self, tiny_world):
        """Sampling on an enricher whose timelines the run already
        filled must size Table 1 exactly like a fresh study does."""
        cold = AdoptionStudy(tiny_world).build_dataset_table()
        warm_study = AdoptionStudy(tiny_world)
        warm = warm_study.run().dataset_table
        assert warm == cold
        resolved = warm_study.enricher.lookups
        assert warm_study.build_dataset_table() == cold
        assert warm_study.enricher.lookups == resolved

    def test_sampling_stays_outside_the_fault_plan(self, tiny_world):
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec("prober.observe", "transient", rate=0.08),
                FaultSpec("study.detect", "poison", rate=0.4),
            ),
        )
        study = AdoptionStudy(tiny_world, fault_plan=plan)
        results = study.run()
        log = results.fault_log.to_dict()
        # Counts recorded before the sampled rounds shared the enricher.
        assert log["injected"] == {
            "prober.observe/transient": 894, "study.detect/poison": 2,
        }
        assert log["retries"] == {"prober.observe": 627}
        assert log["recovered"] == {"prober.observe": 78}
        assert log["dropped"] == {"prober.observe": 267}
        assert log["backoff_ticks"] == 909
        # The table is sized by an un-faulted prober of its own.
        clean = AdoptionStudy(tiny_world).build_dataset_table()
        assert results.dataset_table == clean
        assert study.build_dataset_table() == clean
        assert study.fault_log.to_dict() == log
