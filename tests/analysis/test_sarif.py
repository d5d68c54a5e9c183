"""The SARIF 2.1.0 reporter: structure, determinism, CLI round-trip."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import all_rule_descriptions, render_sarif
from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisResult
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def _result() -> AnalysisResult:
    result = AnalysisResult(
        files_checked=2,
        rules_run=("wall-clock", "async-blocking"),
    )
    result.findings = [
        Finding(
            path="src/repro/demo.py",
            line=3,
            column=5,
            rule="async-blocking",
            message="async def reaches blocking time.sleep()",
        ),
        Finding(
            path="src/repro/other.py",
            line=9,
            column=1,
            rule="parse-error",
            message="could not parse file: bad syntax",
        ),
    ]
    return result


def test_sarif_shape():
    document = json.loads(render_sarif(_result()))
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-analyze"
    declared = {rule["id"] for rule in driver["rules"]}
    # Rules that ran are declared even without findings.
    assert {"wall-clock", "async-blocking", "parse-error"} <= (
        declared
    )
    results = run["results"]
    assert len(results) == 2
    first = results[0]
    assert first["ruleId"] == "async-blocking"
    assert first["level"] == "warning"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/demo.py"
    assert location["region"] == {"startLine": 3, "startColumn": 5}
    # ruleIndex points back into the declared rules array.
    assert (
        driver["rules"][first["ruleIndex"]]["id"]
        == "async-blocking"
    )
    # Parse errors are errors, not warnings.
    assert results[1]["level"] == "error"


def test_sarif_is_deterministic():
    descriptions = all_rule_descriptions()
    assert render_sarif(_result(), descriptions) == render_sarif(
        _result(), descriptions
    )


def test_sarif_rule_descriptions_included():
    document = json.loads(
        render_sarif(_result(), all_rule_descriptions())
    )
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    by_id = {rule["id"]: rule for rule in rules}
    assert "shortDescription" in by_id["async-blocking"]


def test_cli_sarif_output_file(tmp_path, capsys):
    out = tmp_path / "report.sarif"
    code = main(
        [
            "analyze",
            "--format", "sarif",
            "--output", str(out),
            str(FIXTURES / "mutable_default.py"),
        ]
    )
    assert code == 1  # findings still set the exit code
    document = json.loads(out.read_text())
    results = document["runs"][0]["results"]
    assert any(r["ruleId"] == "mutable-default" for r in results)
    # The report went to the file, not stdout.
    assert capsys.readouterr().out == ""
