"""ServeIndex reads and SnapshotSwapper publication semantics."""

from __future__ import annotations

import json

import pytest

from repro.core.classification import UsageClass
from repro.serve.index import LiveSnapshot, ServeError, SnapshotSwapper
from repro.serve.protocol import canonical_json
from repro.stream.engine import StreamEngine


class TestServeIndexReads:
    def test_day_tracks_engine(self, served_stack):
        engine, swapper = served_stack
        index = swapper.current_index()
        for name in index.scope_names:
            latest = engine.latest_day(name)
            if latest is not None and latest < 0:
                latest = None
            assert index.scope(name).day == latest

    def test_unknown_scope_raises(self, served_stack):
        _, swapper = served_stack
        index = swapper.current_index()
        with pytest.raises(ServeError):
            index.scope("klingon")
        with pytest.raises(ServeError):
            index.lookup("example.com", scope="klingon")
        with pytest.raises(ServeError):
            index.aggregate("klingon")

    def test_lookup_protected_domain(self, served_stack, protected_domain):
        _, swapper = served_stack
        domain, provider = protected_domain
        index = swapper.current_index()
        result = index.lookup(domain)
        assert result["domain"] == domain
        assert result["scope"] == "gtld"
        assert result["day"] == index.scope("gtld").day
        assert provider in result["usage"]
        # Protected now iff some interval covers the index day.
        day = index.scope("gtld").day
        covering = [
            p
            for (d, p), runs in index.scope("gtld").intervals.items()
            if d == domain
            and any(r.start <= day < r.end for r in runs)
        ]
        assert result["protected"] == bool(covering)
        assert result["providers"] == sorted(covering)

    def test_lookup_unknown_domain(self, served_stack):
        _, swapper = served_stack
        result = swapper.current_index().lookup("never-seen.example")
        assert result["protected"] is False
        assert result["providers"] == []
        assert result["usage"] == {}

    def test_usage_labels_are_classifier_values(self, served_stack):
        _, swapper = served_stack
        labels = {cls.value for cls in UsageClass}
        scope_index = swapper.current_index().scope("gtld")
        assert scope_index.usage, "expected some protected domains"
        assert set(scope_index.usage.values()) <= labels

    def test_aggregate_rejects_bad_days(self, served_stack):
        _, swapper = served_stack
        index = swapper.current_index()
        with pytest.raises(ServeError):
            index.aggregate("gtld", day=index.horizon)
        with pytest.raises(ServeError):
            index.aggregate("gtld", day=-1)

    def test_adoption_outside_horizon_raises(self, served_stack):
        _, swapper = served_stack
        index = swapper.current_index()
        with pytest.raises(ServeError):
            index.adoption("CloudFlare", day=index.horizon)

    def test_aggregate_matches_live_snapshot(self, served_stack):
        _, swapper = served_stack
        index = swapper.current_index()
        for name in index.scope_names:
            aggregate = index.aggregate(name)
            snapshot = index.live_snapshot(name).to_dict()
            assert aggregate["day"] == snapshot["day"]
            assert aggregate["any_use"] == snapshot["any_use"]
            assert aggregate["providers"] == snapshot["providers"]
            assert aggregate["domains_seen"] == snapshot["domains_seen"]

    def test_snapshot_payload_is_canonical_json(self, served_stack):
        _, swapper = served_stack
        index = swapper.current_index()
        payload = index.snapshot_payload()
        text = canonical_json(payload)
        assert json.loads(text) == json.loads(
            canonical_json(json.loads(text))
        )
        assert payload["version"] == index.version
        assert sorted(payload["scopes"]) == index.scope_names


class TestQueryApiRouting:
    """Served == live: frozen-index reads equal the engine's own reads."""

    def test_snapshots_identical(self, served_stack):
        engine, swapper = served_stack
        index = swapper.current_index()
        for name in index.scope_names:
            day = engine.latest_day(name)
            state = engine.scope(name)
            assert index.live_snapshot(name) == LiveSnapshot(
                scope=name,
                day=day,
                domains_seen=state.domains_seen,
                any_use=state.any_adoption(day),
                providers={
                    provider: state.adoption(provider, day)
                    for provider in state.provider_names
                },
            )

    def test_domain_history_identical(
        self, served_stack, protected_domain
    ):
        engine, swapper = served_stack
        domain, _ = protected_domain
        index = swapper.current_index()
        assert index.history(domain) == engine.domain_history(domain)
        assert index.history("never-seen.example") == (
            engine.domain_history("never-seen.example")
        )

    def test_adoption_identical(self, served_stack):
        engine, swapper = served_stack
        index = swapper.current_index()
        state = engine.scope("gtld")
        day = index.scope("gtld").day
        assert day == engine.latest_day("gtld")
        for provider in index.scope("gtld").provider_names:
            assert index.adoption(provider) == state.adoption(provider, day)
            assert index.adoption(provider, day=day // 2) == (
                state.adoption(provider, day // 2)
            )

    def test_total_days_sums_scope_intervals(
        self, served_stack, protected_domain
    ):
        engine, swapper = served_stack
        domain, _ = protected_domain

        def total_days(history, scope):
            return sum(
                interval.days
                for runs in history.get(scope, {}).values()
                for interval in runs
            )

        served = swapper.current_index().history(domain)
        live = engine.domain_history(domain)
        assert total_days(served, "gtld") == total_days(live, "gtld") > 0
        assert total_days(served, "unseen-scope") == 0


class TestSnapshotSwapper:
    def test_no_rebuild_when_idle(self, served_stack):
        _, swapper = served_stack
        before = swapper.rebuilds
        assert swapper.rebuild_if_advanced() is False
        assert swapper.rebuilds == before

    def test_manual_rebuild_bumps_version_only(self, served_stack):
        _, swapper = served_stack
        old = swapper.current_index()
        new = swapper.rebuild()
        assert new.version == old.version + 1
        for name in old.scope_names:
            assert new.scope(name).day == old.scope(name).day

    def test_old_index_survives_swap_unchanged(self, served_stack):
        _, swapper = served_stack
        old = swapper.current_index()
        old_day = old.scope("gtld").day
        old_version = old.version
        swapper.rebuild()
        assert old.scope("gtld").day == old_day
        assert old.version == old_version
        assert swapper.current_index() is not old

    def test_one_swap_per_completed_day(self, serve_world, replay_feed):
        """Per-partition: a swap happens iff some scope's day advanced,
        and the published index always matches the engine afterwards."""
        engine = StreamEngine(
            serve_world.horizon, windows=replay_feed.windows()
        )
        swapper = SnapshotSwapper(engine)
        swapper.attach()

        def days():
            return {
                name: engine.latest_day(name)
                for name in engine.scope_names
            }

        start = min(w[0] for w in replay_feed.windows().values())
        for partition in replay_feed.days(start=start, end=start + 5):
            before, rebuilds = days(), swapper.rebuilds
            engine.ingest(partition)
            advanced = days() != before
            assert swapper.rebuilds - rebuilds == (1 if advanced else 0)
            index = swapper.current_index()
            for name, latest in days().items():
                if latest is not None and latest < 0:
                    latest = None
                assert index.scope(name).day == latest

    def test_boundary_scope_isolation(self, serve_world, replay_feed):
        """Another scope advancing must not re-copy a quiet scope."""
        engine = StreamEngine(
            serve_world.horizon, windows=replay_feed.windows()
        )
        swapper = SnapshotSwapper(engine)
        swapper.attach()
        start = min(w[0] for w in replay_feed.windows().values())
        engine.ingest_feed(replay_feed.days(start=start, end=start + 3))
        index = swapper.current_index()
        gtld_before = index.scope("gtld")
        # A manual rebuild of only the nl scope reuses gtld's object.
        rebuilt = swapper.rebuild(scopes=["nl"])
        assert rebuilt.scope("gtld") is gtld_before
