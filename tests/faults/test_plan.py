"""Unit tests for fault plans, injectors, and the fault log."""

import pytest

from repro.faults.plan import (
    FAULT_SITES,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultSpec,
)


class TestSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("not.a.site", "transient")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="does not support kind"):
            FaultSpec("feed.partition", "worker_crash")

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_rate_bounds(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("feed.partition", "transient", rate=rate)

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec("feed.partition", "transient", times=0)

    def test_every_registered_kind_constructs(self):
        for site, (_, kinds) in FAULT_SITES.items():
            for kind in kinds:
                assert FaultSpec(site, kind).site == site


class TestPlanSerialization:
    def plan(self):
        return FaultPlan(
            seed=42,
            specs=(
                FaultSpec("feed.partition", "transient", rate=0.25),
                FaultSpec(
                    "study.detect", "poison", keys=("nl",), times=1
                ),
            ),
        )

    def test_json_roundtrip(self):
        plan = self.plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_roundtrip(self, tmp_path):
        plan = self.plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_json_is_canonical(self):
        plan = self.plan()
        assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()


class TestInjectorDeterminism:
    def decisions(self, plan, keys):
        injector = plan.injector()
        return [injector.fire("feed.partition", key=key) for key in keys]

    def test_same_plan_same_decisions(self):
        plan = FaultPlan(
            seed=7, specs=(FaultSpec("feed.partition", "transient", rate=0.5),)
        )
        keys = [f"k{i}" for i in range(50)]
        assert self.decisions(plan, keys) == self.decisions(plan, keys)

    def test_decisions_are_order_independent(self):
        """A key's decision doesn't depend on the global call order.

        This is what makes a schedule independent of the order in which
        keys are visited.
        """
        plan = FaultPlan(
            seed=9, specs=(FaultSpec("feed.partition", "transient", rate=0.5),)
        )
        keys = [f"k{i}" for i in range(50)]
        forward = dict(zip(keys, self.decisions(plan, keys)))
        backward = dict(
            zip(reversed(keys), self.decisions(plan, list(reversed(keys))))
        )
        assert forward == backward

    def test_different_seeds_differ(self):
        keys = [f"k{i}" for i in range(64)]
        spec = FaultSpec("feed.partition", "transient", rate=0.5)
        a = self.decisions(FaultPlan(seed=1, specs=(spec,)), keys)
        b = self.decisions(FaultPlan(seed=2, specs=(spec,)), keys)
        assert a != b

    def test_rate_is_roughly_respected(self):
        plan = FaultPlan(
            seed=3,
            specs=(FaultSpec("feed.partition", "transient", rate=0.25),),
        )
        fired = sum(
            1
            for event in self.decisions(
                plan, [f"k{i}" for i in range(400)]
            )
            if event is not None
        )
        assert 60 <= fired <= 140  # expectation 100

    def test_retry_draws_fresh_decision_per_occurrence(self):
        plan = FaultPlan(
            seed=5, specs=(FaultSpec("feed.partition", "transient", rate=0.5),)
        )
        injector = plan.injector()
        outcomes = [
            injector.fire("feed.partition", key="same") is not None
            for _ in range(40)
        ]
        assert True in outcomes and False in outcomes


class TestInjectorTargeting:
    def test_key_filter(self):
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec("study.detect", "poison", keys=("nl",)),),
        )
        injector = plan.injector()
        assert injector.fire("study.detect", key="gtld") is None
        event = injector.fire("study.detect", key="nl")
        assert event == FaultEvent("study.detect", "poison", "nl")

    def test_site_filter(self):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec("feed.partition", "transient"),)
        )
        injector = plan.injector()
        assert injector.fire("prober.observe", key="x") is None
        assert injector.fire("feed.partition", key="x") is not None

    def test_times_bounds_firings(self):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec("feed.partition", "transient", times=2),)
        )
        injector = plan.injector()
        fired = [
            injector.fire("feed.partition", key=f"k{i}") is not None
            for i in range(10)
        ]
        assert sum(fired) == 2
        assert fired[:2] == [True, True]

    def test_injection_recorded_in_log(self):
        log = FaultLog()
        plan = FaultPlan(
            seed=1, specs=(FaultSpec("feed.partition", "transient"),)
        )
        injector = FaultInjector(plan, log=log)
        injector.fire("feed.partition", key="x")
        assert log.to_dict()["injected"] == {"feed.partition/transient": 1}
        assert injector.fired_counts() == [1]


class TestFaultLog:
    def test_clean_log(self):
        log = FaultLog()
        assert log.is_clean()
        assert log.injections() == 0

    def test_counters_roundtrip(self):
        log = FaultLog()
        log.record_injection(FaultEvent("feed.partition", "transient"))
        log.record_retry("feed.partition", backoff_ticks=3)
        log.record_recovery("feed.partition")
        log.record_drop("storage.segment_read", count=2)
        log.record_quarantine("nl", "poisoned")
        payload = log.to_dict()
        assert FaultLog.from_dict(payload).to_dict() == payload
        assert not log.is_clean()
        assert log.backoff_ticks == 3
        assert log.quarantined_scopes == {"nl": "poisoned"}

    def test_release_moves_scope_out_of_quarantine(self):
        log = FaultLog()
        log.record_quarantine("nl", "poisoned")
        log.record_release("nl")
        payload = log.to_dict()
        assert payload["quarantined"] == {}
        assert payload["released"] == ["nl"]

    def test_first_quarantine_reason_sticks(self):
        log = FaultLog()
        log.record_quarantine("nl", "first")
        log.record_quarantine("nl", "second")
        assert log.quarantined_scopes == {"nl": "first"}
