"""Streamed aggregates equal the batch study's, exactly.

The batch :class:`AdoptionStudy` sees every domain's full history at
once; the stream engine sees one ``(source, day)`` partition at a time.
After ingesting the whole horizon the two must agree bit-for-bit on every
aggregate behind Figures 2–6 (and on the Fig. 7/8 interval analyses), and
an engine killed mid-study and resumed from its checkpoint must end in a
byte-identical state.
"""

import pytest

from repro.serve.index import ServeIndex
from repro.stream.checkpoint import (
    dump_state,
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine
from repro.world.timeline import CCTLD_START_DAY

#: Kill/resume split point: mid-study, with all three scopes active.
KILL_DAY = 400


class TestFigureEquivalence:
    def test_gtld_detection_is_identical(self, streamed_engine, stream_results):
        """Figs. 2–3 inputs: the full gTLD detection result (series,
        per-reference breakdowns, intervals, combo days, domain count)."""
        batch = stream_results.detection_gtld
        assert any(batch.any_use_combined), "batch study found no adoption"
        assert streamed_engine.detection("gtld") == batch

    def test_nl_series_match_inside_window(
        self, streamed_engine, stream_results
    ):
        """The .nl feed only exists from the window start; inside it the
        streamed daily series equals the batch detector's."""
        start = CCTLD_START_DAY
        batch = stream_results.detection_nl.any_use_combined
        assert any(batch[start:])
        assert streamed_engine.scope("nl").any_series()[start:] == batch[start:]

    def test_alexa_detection_is_identical(
        self, streamed_engine, stream_results
    ):
        """Alexa membership windows all start inside the measurement
        window, so the whole detection result round-trips."""
        batch = stream_results.detection_alexa
        streamed = streamed_engine.detection("alexa")
        assert streamed.any_use_combined == batch.any_use_combined
        assert streamed.intervals == batch.intervals
        assert {
            name: series.total for name, series in streamed.providers.items()
        } == {name: series.total for name, series in batch.providers.items()}

    def test_expansion_series_matches_world(
        self, streamed_engine, stream_results
    ):
        """Fig. 5 baseline: summed gTLD zone sizes from the cursors."""
        horizon = stream_results.horizon
        expansion = [
            sum(
                stream_results.zone_sizes[tld][day]
                for tld in ("com", "net", "org")
            )
            for day in range(horizon)
        ]
        assert streamed_engine.expansion_series() == expansion
        # .nl zones exist before the feed starts measuring them; inside
        # the window the streamed sizes equal the world's.
        start = CCTLD_START_DAY
        assert (
            streamed_engine.zone_size_series("nl")[start:]
            == stream_results.zone_sizes["nl"][start:]
        )

    def test_growth_gtld_matches_batch(self, streamed_engine, stream_results):
        assert streamed_engine.growth("gtld") == stream_results.growth_gtld

    def test_growth_cc_matches_batch(self, streamed_engine, stream_results):
        nl = streamed_engine.growth("nl")
        alexa = streamed_engine.growth("alexa")
        batch = stream_results.growth_cc
        assert nl["DPS adoption (.nl)"] == batch["DPS adoption (.nl)"]
        assert (
            nl["Overall expansion (.nl)"] == batch["Overall expansion (.nl)"]
        )
        assert (
            alexa["DPS adoption (Alexa)"] == batch["DPS adoption (Alexa)"]
        )

    def test_fig4_distributions_match_batch(
        self, streamed_engine, stream_results
    ):
        namespace, dps = streamed_engine.fig4_distributions()
        assert namespace == pytest.approx(
            stream_results.namespace_distribution
        )
        assert dps == pytest.approx(stream_results.dps_distribution)

    def test_flux_matches_batch(self, streamed_engine, stream_results):
        assert streamed_engine.flux("gtld") == stream_results.flux

    def test_peaks_match_batch(self, streamed_engine, stream_results):
        streamed = streamed_engine.peaks("gtld")
        batch = stream_results.peaks
        assert set(streamed) == set(batch)
        for name in batch:
            assert streamed[name].domain_count == batch[name].domain_count
            # Duration multisets (accumulation order may differ).
            assert sorted(streamed[name].durations) == sorted(
                batch[name].durations
            )
            if batch[name].durations:
                assert streamed[name].p80 == batch[name].p80


class TestLiveQueries:
    def test_adoption_queries_read_batch_values(
        self, streamed_engine, stream_results
    ):
        batch = stream_results.detection_gtld
        latest = stream_results.horizon - 1
        for provider, series in batch.providers.items():
            assert streamed_engine.adoption(provider) == series.total[latest]
            assert streamed_engine.adoption(provider, day=100) == (
                series.total[100]
            )

    def test_snapshot_totals_match_batch(
        self, streamed_engine, stream_results
    ):
        snapshot = ServeIndex.build(streamed_engine).live_snapshot("gtld")
        batch = stream_results.detection_gtld
        assert snapshot.day == stream_results.horizon - 1
        assert snapshot.domains_seen == batch.domains_seen
        assert snapshot.any_use == batch.any_use_combined[-1]


class TestKillAndResume:
    def test_kill_and_resume_is_byte_identical(
        self, tmp_path, stream_world, replay_feed, streamed_engine
    ):
        """Ingest to day N, checkpoint, kill, resume, finish: the final
        state serialises to the same bytes as the uninterrupted run."""
        windows = replay_feed.windows()
        interrupted = StreamEngine(stream_world.horizon, windows=windows)
        interrupted.ingest_feed(replay_feed.days(end=KILL_DAY))
        assert interrupted.latest_day("gtld") == KILL_DAY - 1

        path = str(tmp_path / "stream.ckpt")
        save_checkpoint(interrupted, path)
        del interrupted  # the "kill": only the checkpoint survives

        resumed = load_checkpoint(path)
        start = min(
            resumed.resume_day(source) for source in resumed.sources
        )
        assert start == KILL_DAY
        resumed.ingest_feed(replay_feed.days(start=start))

        assert state_digest(resumed) == state_digest(streamed_engine)
        assert dump_state(resumed) == dump_state(streamed_engine)

    def test_mid_stream_queries_match_batch_prefix(
        self, stream_world, replay_feed, stream_results
    ):
        """Halfway through the study the live counters already equal the
        batch values for the ingested prefix."""
        engine = StreamEngine(
            stream_world.horizon, windows=replay_feed.windows()
        )
        engine.ingest_feed(replay_feed.days(end=KILL_DAY))
        batch = stream_results.detection_gtld
        day = KILL_DAY - 1
        assert engine.any_adoption() == batch.any_use_combined[day]
        for provider, series in batch.providers.items():
            if series.total[day]:
                assert engine.adoption(provider) == series.total[day]
