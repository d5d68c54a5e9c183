"""The chaos acceptance invariant (and the CI ``chaos-smoke`` target).

Under any injected non-fatal fault schedule the study run must
*complete* and be byte-identical to the clean run on every scope that
was not quarantined — serial and sharded-parallel alike. Three fixed
fault-plan seeds keep the check deterministic while exercising
different schedules (which scopes get poisoned, whether the prober's
retry budget is ever exhausted, which shard loses its worker).
"""

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import SCOPE_EXPORT_KEYS, scope_digest, strip_scopes
from repro.parallel.backend import (
    LocalPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.reporting.export import study_to_dict
from repro.world.scenario import ScenarioConfig, build_paper_world

CHAOS_SCALE = 120000
CHAOS_WORLD_SEED = 2016

#: The fixed plan seeds CI's chaos-smoke job runs (keep in sync with
#: .github/workflows/ci.yml).
CHAOS_SEEDS = (11, 23, 37)


def chaos_plan(seed):
    """A mixed fault schedule: flaky prober, poisoned detection, and a
    worker death (the last only fires on parallel runs — serial runs
    never cross the ``parallel.executor`` seam)."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec("prober.observe", "transient", rate=0.08),
            FaultSpec("study.detect", "poison", rate=0.4),
            FaultSpec("parallel.executor", "worker_crash", rate=0.3),
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

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_parallel(self, chaos_world, clean_payload, seed):
        results = AdoptionStudy(
            chaos_world, fault_plan=chaos_plan(seed)
        ).run(backend=resolve_backend(workers=2, shard_count=4))
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

    @pytest.mark.parametrize(
        "backend",
        [
            lambda: SerialBackend(shard_count=4),
            lambda: LocalPoolBackend(workers=2, shard_count=4),
        ],
        ids=["serial-backend", "pool-w2"],
    )
    def test_each_backend_upholds_the_invariant(
        self, chaos_world, clean_payload, backend
    ):
        """One fixed-seed scenario per backend: a faulted pool run
        with mid-run worker loss stays byte-identical to the clean
        serial run on every non-quarantined scope."""
        results = AdoptionStudy(
            chaos_world, fault_plan=chaos_plan(CHAOS_SEEDS[0])
        ).run(backend=backend())
        assert_invariant(results, clean_payload)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_serial_and_parallel_agree_under_faults(
        self, chaos_world, seed
    ):
        """Hash-keyed fault decisions make the schedule itself identical
        across execution layouts, so even the *degraded* results agree
        wherever both runs kept a scope healthy."""
        serial = AdoptionStudy(
            chaos_world, fault_plan=chaos_plan(seed)
        ).run()
        parallel = AdoptionStudy(
            chaos_world, fault_plan=chaos_plan(seed)
        ).run(backend=resolve_backend(workers=2, shard_count=4))
        union = sorted(
            set(serial.quarantined_scopes) | set(parallel.quarantined_scopes)
        )
        assert scope_digest(study_to_dict(serial), union) == scope_digest(
            study_to_dict(parallel), union
        )
