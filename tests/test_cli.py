"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

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
        "flags,env,expected",
        [
            # --shard-count alone used to be dropped on the floor.
            (
                ["--shard-count", "3"],
                {"REPRO_BACKEND": "serial"},
                ("SerialBackend", 1, 3),
            ),
            (["--workers", "1"], {}, ("LocalPoolBackend", 1, 4)),
            (
                ["--backend", "local", "--workers", "2", "--shard-count", "5"],
                {"REPRO_BACKEND": "serial"},
                ("LocalPoolBackend", 2, 5),
            ),
            # The environment alone never shards a study.
            ([], {"REPRO_BACKEND": "serial", "REPRO_WORKERS": "2"}, None),
        ],
    )
    def test_any_execution_flag_resolves_one_backend(
        self, capsys, monkeypatch, flags, env, expected
    ):
        from repro.core.pipeline import AdoptionStudy

        for name in ("REPRO_BACKEND", "REPRO_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        calls = []
        real_run = AdoptionStudy.run

        def spy(self, **kwargs):
            calls.append(kwargs)
            return real_run(self, **kwargs)

        monkeypatch.setattr(AdoptionStudy, "run", spy)
        code = main(["study", "--artifact", "fig5"] + flags + SCALE)
        assert code == 0
        assert "DPS adoption grew" in capsys.readouterr().out
        assert [sorted(kwargs) for kwargs in calls] == [["backend"]]
        backend = calls[0]["backend"]
        if expected is None:
            assert backend is None
        else:
            assert (
                type(backend).__name__,
                backend.workers,
                backend.shard_count,
            ) == expected

    def test_unknown_backend_exits_2(self, capsys):
        code = main(["study", "--backend", "bogus"] + SCALE)
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown backend 'bogus'" in captured.err
        assert "local, serial" in captured.err

    def test_serial_backend_with_workers_exits_2(self, capsys):
        code = main(
            ["study", "--backend", "serial", "--workers", "4"] + SCALE
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "one worker" in captured.err


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
    def test_migrate_then_stats(self, capsys, v1_store, tmp_path):
        from repro.store import SegmentStore

        v2 = tmp_path / "v2"
        code = main(["store", "migrate", v1_store.directory, str(v2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "migrated 4 partitions (17 rows)" in out
        with SegmentStore(str(v2)) as migrated:
            assert migrated.partitions() == sorted(v1_store.rows)

        code = main(["store", "stats", str(v2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "SOURCE" in out and "com" in out
        assert "generations" in out
        assert "com: 10 rows in 10 runs (x1.00)" in out

    def test_migrate_into_existing_store_fails(
        self, capsys, v1_store, tmp_path
    ):
        v2 = str(tmp_path / "v2")
        assert main(["store", "migrate", v1_store.directory, v2]) == 0
        capsys.readouterr()
        for target in (v2, v1_store.directory):
            code = main(["store", "migrate", v1_store.directory, target])
            assert code == 1
            assert "already holds a store" in capsys.readouterr().err

    def test_compact_command(self, capsys, v1_store, tmp_path):
        import os

        v2 = tmp_path / "v2"
        assert main(["store", "migrate", v1_store.directory, str(v2)]) == 0
        capsys.readouterr()
        code = main(["store", "compact", str(v2), "--fanout", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert ".rseg" in out
        assert len(os.listdir(v2 / "segments")) == 1

    def test_compact_nothing_to_do(self, capsys, v1_store, tmp_path):
        v2 = tmp_path / "v2"
        assert main(["store", "migrate", v1_store.directory, str(v2)]) == 0
        capsys.readouterr()
        code = main(["store", "compact", str(v2), "--fanout", "8"])
        assert code == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_stats_missing_store_fails(self, capsys, tmp_path):
        code = main(["store", "stats", str(tmp_path / "nope")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_stats_on_v1_store_points_at_migrate(self, capsys, v1_store):
        code = main(["store", "stats", v1_store.directory])
        assert code == 1
        assert "repro store migrate" in capsys.readouterr().err


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
