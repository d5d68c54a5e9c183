"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.world.timeline import CCTLD_START_DAY, GTLD_DAYS

SCALE = ["--scale", "60000", "--seed", "7"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_study_artifacts_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--artifact", "fig99"])
        # --days counts days (0..N-1), so a negative count is a usage error.
        for command in (
            ["stream"], ["serve"], ["sketch", "stats"], ["sketch", "topk"]
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(command + ["--days", "-3"])
            assert exit_info.value.code == 2
        # Counts and sizes are bounded at parse time, before any world
        # is built or any store is touched.
        for argv in (
            ["serve", "--limit", "0"],
            ["serve", "--window", "0"],
            ["store", "compact", "DIR", "--fanout", "1"],
            ["zonefile", "com", "--limit", "-2"],
            ["pfx2as", "--limit", "-2"],
            ["sketch", "topk", "--k", "-1"],
            ["sketch", "topk", "--k", "0"],
            ["stream", "--interval", "-5"],
            ["stream", "--checkpoint-every", "-1"],
            ["zonefile", "com", "--day", "0", "--scale", "0"],
            ["zonefile", "com", "--day", "0", "--scale", "-5"],
            ["study", "--scale", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2, argv


class TestZonefile:
    def test_listing(self, capsys):
        code = main(["zonefile", "com", "--day", "0", "--limit", "5"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert "zone com day 0" in out
        assert ".com" in out

    def test_alexa_listing(self, capsys):
        code = main(["zonefile", "alexa", "--day", "400"] + SCALE)
        assert code == 0
        assert "alexa" in capsys.readouterr().out

    def test_out_of_window(self, capsys):
        code = main(["zonefile", "nl", "--day", "0"] + SCALE)
        assert code == 1

    def test_unbuildable_scale_fails(self, capsys):
        """A scale so coarse that the scenario's third parties cannot
        claim their domains builds no world: one line, exit 1."""
        with pytest.raises(SystemExit) as exit_info:
            main(["zonefile", "com", "--day", "0", "--scale", "100000000"])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --scale 100000000 ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("day", [-5, CCTLD_START_DAY - 1, GTLD_DAYS])
    def test_alexa_out_of_window(self, capsys, day):
        code = main(["zonefile", "alexa", "--day", str(day)] + SCALE)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: no zone file for alexa on day {day} "
            f"(window {CCTLD_START_DAY}..{GTLD_DAYS})\n"
        )


def _assert_day_refused(capsys, code, day):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: no day {day} in the study (window 0..{GTLD_DAYS})\n"
    )


class TestPfx2as:
    def test_dump(self, capsys):
        code = main(["pfx2as", "--day", "0", "--limit", "5"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert "\t" in out

    def test_lookup_cloudflare_space(self, capsys):
        from repro.world.scenario import ScenarioConfig, build_paper_world

        world = build_paper_world(ScenarioConfig(scale=60000, seed=7))
        address = world.providers["CloudFlare"].shared_addresses("x.com")[0]
        code = main(["pfx2as", "--lookup", address] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert "AS13335" in out

    def test_lookup_unrouted(self, capsys):
        code = main(["pfx2as", "--lookup", "203.0.113.1"] + SCALE)
        assert code == 1

    @pytest.mark.parametrize("day", [-5, GTLD_DAYS])
    def test_day_outside_the_study(self, capsys, day):
        code = main(["pfx2as", "--day", str(day)] + SCALE)
        _assert_day_refused(capsys, code, day)


class TestResolve:
    def test_resolves_existing_domain(self, capsys):
        from repro.world.scenario import ScenarioConfig, build_paper_world

        world = build_paper_world(ScenarioConfig(scale=60000, seed=7))
        name = next(iter(world.zone_names("com", 0)))
        code = main(["resolve", name, "--day", "0"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert "ANSWER SECTION" in out
        assert "status NOERROR" in out

    def test_www_label(self, capsys):
        from repro.world.scenario import ScenarioConfig, build_paper_world

        world = build_paper_world(ScenarioConfig(scale=60000, seed=7))
        name = next(iter(world.zone_names("com", 0)))
        code = main(["resolve", f"www.{name}", "--day", "0"] + SCALE)
        assert code == 0

    def test_missing_domain_fails(self, capsys):
        code = main(["resolve", "no-such-name.com", "--day", "0"] + SCALE)
        assert code == 1

    @pytest.mark.parametrize("day", [-5, GTLD_DAYS])
    def test_day_outside_the_study(self, capsys, day):
        code = main(["resolve", "d0000001.com", "--day", str(day)] + SCALE)
        _assert_day_refused(capsys, code, day)


class TestFingerprint:
    def test_cloudflare(self, capsys):
        code = main(["fingerprint", "CloudFlare", "--day", "10"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert "13335" in out
        assert "cloudflare.com" in out

    def test_unknown_provider(self, capsys):
        code = main(["fingerprint", "NoSuchDPS"] + SCALE)
        assert code == 1


class TestStudy:
    def test_selected_artifacts(self, capsys):
        code = main(
            ["study", "--artifact", "fig5", "--artifact", "exposure"]
            + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DPS adoption grew" in out
        assert "name-server exposure" in out
        assert "Table 1" not in out

    def test_output_directory(self, capsys, tmp_path):
        code = main(
            ["study", "--artifact", "fig4", "--output", str(tmp_path)]
            + SCALE
        )
        assert code == 0
        assert (tmp_path / "fig4.txt").exists()
        assert (tmp_path / "series.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "2"], ["--shard-count", "3"], ["--backend", "serial"]],
    )
    def test_execution_flags_are_gone(self, capsys, flags):
        """The study runs in one process; a sharding flag is a usage
        error, before any world is built."""
        with pytest.raises(SystemExit) as exit_info:
            main(["study"] + flags + SCALE)
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_fault_plan_naming_an_unknown_site_exits_2(
        self, capsys, tmp_path
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 1, "specs": [{"site": "parallel.executor", '
            '"kind": "worker_crash"}]}'
        )
        code = main(["study", "--fault-plan", str(plan)] + SCALE)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "parallel.executor" in lines[0]

    def test_fault_plan_naming_a_site_the_study_never_fires_exits_2(
        self, capsys, tmp_path
    ):
        """A known site that no study code fires would inject nothing:
        the plan is refused before any world is built, and the example
        plan names only sites a study fires."""
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 1, "specs": [{"site": "feed.partition", '
            '"kind": "transient", "rate": 0.05}]}'
        )
        code = main(["study", "--fault-plan", str(plan)] + SCALE)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "feed.partition" in lines[0]

        from repro.core.pipeline import STUDY_FAULT_SITES
        from repro.faults.plan import FaultPlan

        assert main(["faults", "--example-plan"]) == 0
        example = FaultPlan.from_json(capsys.readouterr().out)
        assert {spec.site for spec in example.specs} <= set(
            STUDY_FAULT_SITES
        )


class TestMeasure:
    def test_measure_writes_partition(self, capsys, tmp_path):
        from repro.store import SegmentStore

        code = main(
            ["measure", "org", "--day", "0", "--output", str(tmp_path)]
            + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "measured" in out
        with SegmentStore(str(tmp_path)) as loaded:
            assert loaded.row_count("org", 0) > 0

    def test_measure_keeps_earlier_partitions(self, capsys, tmp_path):
        from repro.store import SegmentStore

        for source, day in (("com", "0"), ("nl", "500")):
            code = main(
                ["measure", source, "--day", day, "--output", str(tmp_path)]
                + SCALE
            )
            assert code == 0
        with SegmentStore(str(tmp_path)) as landed:
            assert landed.partitions() == [("com", 0), ("nl", 500)]
            assert landed.row_count("com", 0) > 0

    def test_measure_refuses_a_landed_partition(self, capsys, tmp_path):
        argv = ["measure", "org", "--day", "0", "--output", str(tmp_path)]
        assert main(argv + SCALE) == 0

        def snapshot():
            return {
                path: path.read_bytes()
                for path in sorted(tmp_path.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        capsys.readouterr()
        assert main(argv + SCALE) == 1
        assert "already holds org/0" in capsys.readouterr().err
        assert snapshot() == before

    def test_measure_bad_day(self, capsys, tmp_path):
        code = main(
            ["measure", "nl", "--day", "0", "--output", str(tmp_path)]
            + SCALE
        )
        assert code == 1

    @pytest.mark.parametrize("day", [-5, CCTLD_START_DAY - 1, 99999])
    def test_measure_alexa_outside_its_window(self, capsys, tmp_path, day):
        output = tmp_path / "store"
        code = main(
            ["measure", "alexa", "--day", str(day), "--output", str(output)]
            + SCALE
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: no zone file for alexa on day {day} "
        )
        assert captured.err.count("\n") == 1
        assert not output.exists()


class TestStream:
    def test_tail_prints_live_counters(self, capsys):
        code = main(
            ["stream", "--days", "5", "--sources", "com,org",
             "--interval", "2"] + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tailed through day 4" in out
        assert "[gtld] day 4" in out
        assert "any provider" in out

    def test_checkpoint_and_resume_cycle(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "stream.ckpt")
        code = main(
            ["stream", "--days", "3", "--sources", "com",
             "--checkpoint", checkpoint] + SCALE
        )
        assert code == 0
        assert "checkpoint:" in capsys.readouterr().out
        code = main(
            ["stream", "--days", "6", "--sources", "com",
             "--checkpoint", checkpoint, "--resume"] + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert ";; resumed from com@3" in out
        assert "tailed through day 5" in out

    def test_unknown_source_fails(self, capsys):
        code = main(["stream", "--sources", "bogus", "--days", "2"] + SCALE)
        assert code == 1

    def test_empty_sources_fail(self, capsys):
        code = main(["stream", "--sources", "", "--days", "3"] + SCALE)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --sources names no source\n"

    def test_resume_with_a_source_the_checkpoint_lacks_fails(
        self, capsys, tmp_path
    ):
        checkpoint = str(tmp_path / "stream.ckpt")
        base = ["stream", "--checkpoint", checkpoint] + SCALE
        assert main(base + ["--days", "3", "--sources", "com"]) == 0
        capsys.readouterr()
        code = main(
            base + ["--days", "5", "--sources", "com,org", "--resume"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "com,org" in line and "holds com)" in line

    def test_resume_from_a_damaged_checkpoint_fails_cleanly(
        self, capsys, tmp_path
    ):
        checkpoint = tmp_path / "bad.ckpt"
        checkpoint.write_bytes(b"not a checkpoint at all")
        code = main(
            ["stream", "--days", "3", "--sources", "com",
             "--checkpoint", str(checkpoint), "--resume"] + SCALE
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "not a stream checkpoint" in line

    def test_a_run_that_applies_nothing_says_why(self, capsys, tmp_path):
        code = main(["stream", "--days", "0", "--sources", "com"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert (
            ";; nothing tailed: the run starts at day 0 "
            "and stops before day 0"
        ) in out
        assert "None" not in out
        checkpoint = str(tmp_path / "stream.ckpt")
        base = ["stream", "--sources", "com", "--checkpoint", checkpoint]
        assert main(base + ["--days", "3"] + SCALE) == 0
        capsys.readouterr()
        code = main(base + ["--days", "2", "--resume"] + SCALE)
        out = capsys.readouterr().out
        assert code == 0
        assert ";; resumed from com@3" in out
        assert "nothing tailed: the run starts at day 3" in out
        assert "None" not in out

    def test_json_lines_are_the_serve_index_snapshots(self, capsys):
        import json

        from repro.measurement.scheduler import PartitionFeed
        from repro.serve.index import ServeIndex
        from repro.stream import StreamEngine
        from repro.world.scenario import ScenarioConfig, build_paper_world

        # nl and alexa open on day 366, so three days cover both scopes.
        code = main(
            ["stream", "--days", "369", "--sources", "nl,alexa", "--json"]
            + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [
            json.loads(line)
            for line in out.splitlines()
            if line.startswith("{")
        ]
        world = build_paper_world(ScenarioConfig(scale=60000, seed=7))
        feed = PartitionFeed(world, ("nl", "alexa"))
        engine = StreamEngine(
            world.horizon, sources=("nl", "alexa"), windows=feed.windows()
        )
        engine.ingest_feed(feed.days(end=369))
        index = ServeIndex.build(engine)
        assert lines == [
            index.live_snapshot(scope).to_dict()
            for scope in engine.scope_names
        ]
        assert [line["day"] for line in lines] == [368, 368]

    def test_json_tail_emits_canonical_snapshots(self, capsys):
        import json

        from repro.serve.protocol import canonical_json

        code = main(
            ["stream", "--days", "5", "--sources", "com,org", "--json"]
            + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tailed through day 4" in out
        lines = [
            line for line in out.splitlines() if line.startswith("{")
        ]
        assert lines, "expected at least one JSON snapshot line"
        snapshot = json.loads(lines[-1])
        assert snapshot["scope"] == "gtld"
        assert snapshot["day"] == 4
        # The line is the shared canonical encoding, byte for byte.
        assert lines[-1] == canonical_json(snapshot)
        # The human table is replaced, not duplicated.
        assert "any provider" not in out


class TestServe:
    def test_self_test_round_trip_and_limiter(self, capsys):
        code = main(
            ["serve", "--days", "5", "--self-test", "--limit", "4"]
            + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "index version" in out
        assert "responses ok" in out
        assert "burst client 4/12 admitted" in out
        assert "compliant client admitted" in out
        assert "serve self-test ok" in out

    def test_self_test_without_guard(self, capsys):
        code = main(
            ["serve", "--days", "3", "--self-test", "--strategy",
             "none"] + SCALE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serve self-test ok" in out


class TestStore:
    @staticmethod
    def land(directory):
        """Four partitions in four day segments: com days 0–1 (five
        rows each, every row changed on day 1) and nl days 0–1."""
        from repro.measurement.snapshot import DomainObservation
        from repro.store import SegmentStore

        def rows(source, count, day):
            return [
                DomainObservation(
                    day=day,
                    domain=f"d{index}.{source}",
                    tld=source,
                    ns_names=(f"ns1.d{index}.{source}",),
                    apex_addrs=(f"192.0.2.{10 * day + index}",),
                )
                for index in range(count)
            ]

        with SegmentStore(str(directory), create=True) as store:
            for day in (0, 1):
                store.append_partitions([("com", day, rows("com", 5, day))])
                store.append_partitions([("nl", day, rows("nl", 2, day))])

    def test_stats(self, capsys, tmp_path):
        self.land(tmp_path)
        code = main(["store", "stats", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "SOURCE" in out and "com" in out
        assert "generations 0" in out
        assert "com: 10 rows in 10 runs (x1.00)" in out

    def test_compact_command(self, capsys, tmp_path):
        import os

        self.land(tmp_path)
        code = main(["store", "compact", str(tmp_path), "--fanout", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert ".rseg" in out
        assert len(os.listdir(tmp_path / "segments")) == 1

    def test_compact_nothing_to_do(self, capsys, tmp_path):
        self.land(tmp_path)
        code = main(["store", "compact", str(tmp_path), "--fanout", "8"])
        assert code == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_stats_missing_store_fails(self, capsys, tmp_path):
        code = main(["store", "stats", str(tmp_path / "nope")])
        assert code == 1
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("command", ["stats", "compact"])
    def test_foreign_manifest_is_refused(self, capsys, foreign_store, command):
        code = main(["store", command, foreign_store])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {foreign_store} holds ")
        assert captured.err.count("\n") == 1


class TestSketch:
    TINY = ["--scale", "300000", "--seed", "7", "--days", "200"]

    def test_stats_emits_canonical_scope_lines(self, capsys):
        import json

        code = main(["sketch", "stats"] + self.TINY)
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert "plane_digest" in lines[-1]
        scopes = {line["scope"] for line in lines[:-1]}
        assert "gtld" in scopes
        for line in lines[:-1]:
            assert line["rows_observed"] > 0
            assert line["adoption_error_bound"] >= 0
            assert line["topk_exact"] is True

    def test_stats_digest_is_reproducible(self, capsys):
        import json

        main(["sketch", "stats"] + self.TINY)
        first = capsys.readouterr().out
        main(["sketch", "stats"] + self.TINY)
        second = capsys.readouterr().out
        assert first == second
        digest = json.loads(first.splitlines()[-1])["plane_digest"]
        assert len(digest) == 64

    def test_topk_streams(self, capsys):
        import json

        for stream in ("providers", "churn", "third-party"):
            code = main(
                ["sketch", "topk", "--stream", stream, "--k", "3",
                 "--scope", "gtld"] + self.TINY
            )
            assert code == 0
            line = json.loads(capsys.readouterr().out.splitlines()[0])
            assert line["stream"] == stream
            assert len(line["ranking"]) <= 3
            assert line["ranking"], f"{stream} ranking is empty"

    def test_unknown_scope_fails(self, capsys):
        code = main(
            ["sketch", "topk", "--scope", "nope"] + self.TINY
        )
        assert code == 1
        assert "unknown scope" in capsys.readouterr().err

    def test_unknown_source_fails(self, capsys):
        code = main(
            ["sketch", "stats", "--sources", "com,bogus"] + self.TINY
        )
        assert code == 1
        assert "unknown sources" in capsys.readouterr().err

    def test_empty_sources_fail(self, capsys):
        code = main(["sketch", "stats", "--sources", ""] + self.TINY)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --sources names no source\n"
