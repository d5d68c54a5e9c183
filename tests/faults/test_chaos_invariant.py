"""The chaos acceptance invariant (part of the tier-1 suite).

Under any injected non-fatal fault schedule the study run must
*complete* and be byte-identical to the clean run on every scope that
was not quarantined. Three fixed fault-plan seeds keep the check
deterministic while exercising different schedules (which scopes get
poisoned, whether the prober's retry budget is ever exhausted).
"""

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import SCOPE_EXPORT_KEYS, scope_digest, strip_scopes
from repro.reporting.export import study_to_dict
from repro.world.scenario import ScenarioConfig, build_paper_world

CHAOS_SCALE = 120000
CHAOS_WORLD_SEED = 2016

#: The fixed plan seeds every tier-1 run checks.
CHAOS_SEEDS = (11, 23, 37)


def chaos_plan(seed):
    """A mixed fault schedule: flaky prober and poisoned detection."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec("prober.observe", "transient", rate=0.08),
            FaultSpec("study.detect", "poison", rate=0.4),
        ),
    )


@pytest.fixture(scope="module")
def chaos_world():
    return build_paper_world(
        ScenarioConfig(scale=CHAOS_SCALE, seed=CHAOS_WORLD_SEED)
    )


@pytest.fixture(scope="module")
def clean_payload(chaos_world):
    return study_to_dict(AdoptionStudy(chaos_world).run())


def assert_invariant(results, clean_payload):
    payload = study_to_dict(results)
    quarantined = sorted(results.quarantined_scopes)
    # The faulted run is byte-identical to the clean run everywhere
    # outside the quarantined scopes.
    assert scope_digest(payload, quarantined) == scope_digest(
        clean_payload, quarantined
    )
    # Degradation is visible, never silent: the export names every
    # quarantined scope and the log agrees.
    assert results.fault_log is not None
    assert payload["quarantined"] == dict(results.quarantined_scopes)
    assert (
        results.fault_log.quarantined_scopes == results.quarantined_scopes
    )
    assert set(quarantined) <= set(SCOPE_EXPORT_KEYS)
    return payload


class TestChaosInvariant:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_serial(self, chaos_world, clean_payload, seed):
        results = AdoptionStudy(
            chaos_world, fault_plan=chaos_plan(seed)
        ).run()
        assert_invariant(results, clean_payload)

    def test_schedules_actually_inject(self, chaos_world, clean_payload):
        """The three seeds are not vacuous: at least one injects faults
        and at least one escalates to a quarantine."""
        injections = 0
        quarantines = 0
        for seed in CHAOS_SEEDS:
            results = AdoptionStudy(
                chaos_world, fault_plan=chaos_plan(seed)
            ).run()
            injections += results.fault_log.injections()
            quarantines += len(results.quarantined_scopes)
        assert injections > 0
        assert quarantines > 0

    def test_empty_plan_matches_clean_run_exactly(
        self, chaos_world, clean_payload
    ):
        results = AdoptionStudy(
            chaos_world, fault_plan=FaultPlan(seed=1, specs=())
        ).run()
        payload = study_to_dict(results)
        assert payload["quarantined"] == {}
        assert results.fault_log.is_clean()
        assert strip_scopes(payload, ()) == strip_scopes(clean_payload, ())
