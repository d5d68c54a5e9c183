"""The ``repro analyze`` subcommand: exit codes and report formats."""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path

from repro.analysis import default_rules
from repro.cli import main

REPO = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _write_tree(root: Path) -> None:
    """A tree whose one finding crosses a module boundary."""
    package = root / "tree" / "repro" / "serve"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "producer.py").write_text(
        "import time\n"
        "def wait():\n"
        "    time.sleep(1)\n"
    )
    (package / "consumer.py").write_text(
        "from repro.serve.producer import wait\n"
        "async def handle():\n"
        "    wait()\n"
    )


def test_analyze_src_exits_clean(capsys):
    assert main(["analyze", str(REPO / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_analyze_bad_file_exits_nonzero(capsys):
    # Fixture paths fall outside any repro package, so only unscoped
    # rules apply — the bare-except half of swallowed-exception is one.
    code = main(["analyze", str(FIXTURES / "swallowed_exception.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "swallowed-exception" in out
    assert "swallowed_exception.py:13:" in out


def test_analyze_json_report(capsys):
    code = main(
        [
            "analyze", "--format", "json",
            str(FIXTURES / "swallowed_exception.py"),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["finding_count"] == len(payload["findings"]) > 0
    assert all(
        f["rule"] == "swallowed-exception" for f in payload["findings"]
    )
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "column", "rule", "message"}


def test_analyze_rule_filter(capsys):
    code = main(
        [
            "analyze",
            "--rule", "wall-clock",
            str(FIXTURES / "swallowed_exception.py"),
        ]
    )
    assert code == 0  # swallowed-exception findings filtered out
    assert "0 findings" in capsys.readouterr().out


def test_analyze_unknown_rule_is_an_error(capsys):
    # Deleted rules are unknown: the round-trip and exact-arithmetic
    # laws of tests/property prove what they guessed at, and the pool
    # rules went with the pool they policed.
    for rule in (
        "no-such-rule", "schema-drift", "float-equality",
        "unordered-futures", "direct-pool-use", "fork-unsafe-capture",
    ):
        code = main(["analyze", "--rule", rule, str(FIXTURES)])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err


def test_analyze_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "wall-clock", "swallowed-exception", "async-blocking",
    ):
        assert rule_id in out


def test_analyze_missing_path(capsys):
    assert main(["analyze", "does/not/exist"]) == 2
    assert "error" in capsys.readouterr().err


def test_verdict_ignores_what_an_earlier_run_left(
    tmp_path, capsys, monkeypatch
):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.py").write_text("try:\n    pass\nexcept:\n    pass\n")
    (tree / "b.py").write_text("VALUE = 1\n")
    monkeypatch.chdir(tmp_path)
    # An earlier run by an analyzer that did not have the rule yet.
    older = [
        rule for rule in default_rules()
        if rule.id != "swallowed-exception"
    ]
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.analysis.project.default_rules", lambda: older
        )
        assert main(["analyze", "tree"]) == 0
    capsys.readouterr()
    (tree / "b.py").write_text("VALUE = 2\n")
    assert main(["analyze", "tree"]) == 1
    assert "a.py:3:1: swallowed-exception" in capsys.readouterr().out


def test_planted_cache_directory_is_not_read(
    tmp_path, capsys, monkeypatch
):
    _write_tree(tmp_path)
    planted = tmp_path / ".repro-analysis-cache" / "project"
    planted.mkdir(parents=True)
    (planted / "0.pkl").write_bytes(b"not a pickle")
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--format", "json", "tree"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    # A suppression file that sanctions the tree's one finding, under
    # the name the analyzer once read from the working directory: only
    # inline comments suppress, so the verdict must not move.
    sanction = {
        "version": 1,
        "entries": [
            dict(finding, justification="planted") for finding in findings
        ],
    }
    planted_file = tmp_path / "-".join(("analysis", "baseline.json"))
    planted_file.write_text(json.dumps(sanction))
    assert main(["analyze", "tree"]) == 1
    out = capsys.readouterr().out
    assert "async-blocking" in out
    assert "1 finding in 3 files" in out
    assert (planted / "0.pkl").read_bytes() == b"not a pickle"


def test_undecodable_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin.py"
    bad.write_bytes(b'x = "\xff"\n')
    code = main(["analyze", "--format", "json", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    findings = json.loads(captured.out)["findings"]
    assert [finding["rule"] for finding in findings] == ["parse-error"]


def test_analyze_leaves_the_working_directory_as_it_was(
    tmp_path, capsys, monkeypatch
):
    _write_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(["analyze", "tree"]) == 1
    assert "consumer.py:3:" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == before


def test_analysis_package_imports_nothing_it_judges():
    """The tool must not be breakable by the code it checks."""
    outside = []
    for path in sorted((REPO / "src/repro/analysis").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            outside.extend(
                f"{path.name}: {name}"
                for name in names
                if name.startswith((".", "repro"))
                and not name.startswith("repro.analysis")
            )
    assert not outside
