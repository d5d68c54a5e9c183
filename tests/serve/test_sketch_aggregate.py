"""The aggregate op's sketch plane routing (docs/SKETCHES.md).

``aggregate`` grew a ``source`` parameter: ``exact`` (the default — the
pre-sketch payload, byte for byte), ``sketch`` (answered from the
frozen plane view the index snapshot carries, O(1) in history), and
``auto`` (sketch when its ``εN`` guarantee meets the request's
``max_error``, exact otherwise, with the fallback reason in the
payload). These tests pin the contract between the three.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.batch import ObservationBatch
from repro.serve.index import ServeIndex, SnapshotSwapper
from repro.serve.protocol import Request
from repro.serve.server import ServeDispatcher
from repro.sketch import SketchConfig
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed


@pytest.fixture(scope="module")
def dispatcher(served_stack):
    _, swapper = served_stack
    return ServeDispatcher(swapper.current_index)


def call(dispatcher, params):
    frame = Request(op="aggregate", params=params, id=1).to_frame()
    return json.loads(dispatcher.handle_line(frame, "client"))


class TestAggregateSources:
    def test_default_is_exact_and_unchanged(self, dispatcher):
        bare = call(dispatcher, {"scope": "gtld"})
        explicit = call(dispatcher, {"scope": "gtld", "source": "exact"})
        assert bare["ok"] and explicit["ok"]
        assert bare["result"] == explicit["result"]
        assert "error_bound" not in bare["result"]
        assert bare["result"]["providers"]

    def test_sketch_estimates_bounded_by_exact(self, dispatcher):
        exact = call(dispatcher, {"scope": "gtld"})["result"]
        sketch = call(
            dispatcher, {"scope": "gtld", "source": "sketch"}
        )["result"]
        assert sketch["source"] == "sketch"
        bound = sketch["error_bound"]
        assert bound > 0
        # CMS never undercounts; over at most eN per provider-day.
        for provider, count in exact["providers"].items():
            estimate = sketch["providers"][provider]
            assert count <= estimate <= count + bound
        # HLL cardinality lands within advertised relative error.
        rsd = sketch["distinct_relative_error"]
        assert (
            abs(sketch["domains_seen_estimate"] - exact["domains_seen"])
            <= max(2.0, 4 * rsd * exact["domains_seen"])
        )
        assert sketch["top_providers"]
        assert sketch["day"] == exact["day"]

    def test_sketch_single_provider_view(self, dispatcher):
        sketch = call(
            dispatcher, {"scope": "gtld", "source": "sketch"}
        )["result"]
        provider = sketch["top_providers"][0][0]
        focused = call(
            dispatcher,
            {
                "scope": "gtld",
                "source": "sketch",
                "provider": provider,
                "day": sketch["day"],
            },
        )["result"]
        assert focused["provider"] == provider
        assert focused["adoption_estimate"] >= 0
        assert focused["error_bound"] == sketch["error_bound"]

    def test_auto_uses_sketch_when_bound_is_loose_enough(
        self, dispatcher
    ):
        sketch = call(
            dispatcher, {"scope": "gtld", "source": "sketch"}
        )["result"]
        auto = call(
            dispatcher,
            {
                "scope": "gtld",
                "source": "auto",
                "max_error": sketch["error_bound"] + 1,
            },
        )["result"]
        assert auto["source"] == "sketch"
        assert auto["providers"] == sketch["providers"]

    def test_auto_falls_back_to_exact_when_bound_is_tighter(
        self, dispatcher
    ):
        exact = call(dispatcher, {"scope": "gtld"})["result"]
        auto = call(
            dispatcher,
            {"scope": "gtld", "source": "auto", "max_error": 0.001},
        )["result"]
        assert auto["source"] == "exact"
        assert "exceeds max_error" in auto["fallback"]
        assert auto["providers"] == exact["providers"]

    def test_auto_without_max_error_prefers_sketch(self, dispatcher):
        auto = call(dispatcher, {"scope": "gtld", "source": "auto"})[
            "result"
        ]
        assert auto["source"] == "sketch"

    def test_bad_params_are_rejected(self, dispatcher):
        for params in (
            {"scope": "gtld", "source": "nope"},
            {"scope": "gtld", "source": "auto", "max_error": -1},
            {"scope": "gtld", "source": "auto", "max_error": True},
            {"scope": "gtld", "source": "sketch", "k": "ten"},
        ):
            response = call(dispatcher, params)
            assert not response["ok"]
            assert response["error"]["code"] == "bad-params"

    def test_unknown_scope_still_errors(self, dispatcher):
        response = call(
            dispatcher, {"scope": "badscope", "source": "sketch"}
        )
        assert not response["ok"]


class TestPlanelessIndex:
    """Indexes built from engines without a plane must degrade loudly
    (sketch source errors, auto falls back with the reason)."""

    @pytest.fixture(scope="class")
    def planeless(self, serve_world, replay_feed):
        engine = StreamEngine(
            serve_world.horizon, windows=replay_feed.windows()
        )
        swapper = SnapshotSwapper(engine)
        swapper.attach()
        engine.ingest_feed(replay_feed.days())
        return ServeDispatcher(swapper.current_index)

    def test_sketch_source_reports_missing_plane(self, planeless):
        response = call(
            planeless, {"scope": "gtld", "source": "sketch"}
        )
        assert not response["ok"]
        assert "no sketch plane" in response["error"]["message"]

    def test_auto_falls_back_without_plane(self, planeless):
        response = call(planeless, {"scope": "gtld", "source": "auto"})
        assert response["ok"]
        result = response["result"]
        assert result["source"] == "exact"
        assert "sketch plane unavailable" in result["fallback"]

    def test_exact_unaffected(self, planeless, dispatcher):
        with_plane = call(dispatcher, {"scope": "gtld"})["result"]
        without = call(planeless, {"scope": "gtld"})["result"]
        assert with_plane == without


def test_built_index_carries_frozen_sketch_views(served_stack):
    engine, _ = served_stack
    index = ServeIndex.build(engine)
    for scope in ("gtld", "nl", "alexa"):
        guarantee = index.sketch_guarantee(scope)
        assert guarantee >= 0
    payload = index.aggregate_sketch("gtld")
    assert payload["source"] == "sketch"
    # The view is a copy: mutating the engine's plane later cannot
    # bleed into an already-published snapshot.
    before = payload["rows_observed"]
    late = ObservationBatch()
    late.append_fields(0, "late-domain.example", "com", (), ())
    engine.sketches.fold_runs("gtld", late, [1], [{}])
    assert engine.sketches.scope("gtld").rows_observed > before
    assert index.aggregate_sketch("gtld")["rows_observed"] == before


class TestFutureDay:
    """A day past the snapshot's last ingested day has no answer yet.
    Every source rejects it with the exact path's error; the sketch path
    used to answer it with zero adoption for every provider."""

    INGESTED_THROUGH = 23
    FUTURE = 100

    @pytest.fixture(scope="class")
    def partial(self, serve_world, replay_feed):
        engine = StreamEngine(
            serve_world.horizon,
            windows=replay_feed.windows(),
            sketches=SketchConfig(),
        )
        swapper = SnapshotSwapper(engine)
        swapper.attach()
        engine.ingest_feed(replay_feed.days(end=self.INGESTED_THROUGH + 1))
        return ServeDispatcher(swapper.current_index)

    def test_exact_sketch_and_auto_reject_the_same_future_day(
        self, partial
    ):
        latest = call(partial, {"scope": "gtld"})["result"]
        assert latest["day"] == self.INGESTED_THROUGH
        expected = f"day {self.FUTURE} not ingested yet for scope 'gtld'"
        for params in (
            {"source": "exact"},
            {"source": "sketch"},
            {"source": "auto"},
            {"source": "auto", "max_error": 0.001},
            {"source": "sketch", "provider": "CloudFlare"},
        ):
            response = call(
                partial, {"scope": "gtld", "day": self.FUTURE, **params}
            )
            assert not response["ok"], params
            assert response["error"]["message"] == expected, params

    def test_provider_view_rejects_the_same_future_day(self, partial):
        """``provider=`` on the exact path used to answer 0 adoption."""
        expected = f"day {self.FUTURE} not ingested yet for scope 'gtld'"
        for params in (
            {},
            {"source": "exact"},
            {"source": "auto", "max_error": 0.001},
        ):
            response = call(
                partial,
                {
                    "scope": "gtld",
                    "day": self.FUTURE,
                    "provider": "CloudFlare",
                    **params,
                },
            )
            assert not response["ok"], params
            assert response["error"]["message"] == expected, params
        ingested = call(
            partial,
            {
                "scope": "gtld",
                "day": self.INGESTED_THROUGH,
                "provider": "CloudFlare",
            },
        )
        assert ingested["ok"]
        assert ingested["result"]["day"] == self.INGESTED_THROUGH

    def test_ingested_days_still_answer(self, partial):
        for source in ("exact", "sketch"):
            response = call(
                partial,
                {
                    "scope": "gtld",
                    "source": source,
                    "day": self.INGESTED_THROUGH,
                },
            )
            assert response["ok"], source
            assert response["result"]["day"] == self.INGESTED_THROUGH
