"""The linter's own acceptance bar: the repo's src/ tree is clean.

This is the rule-zero property of any in-repo linter — if the tree it
ships in doesn't pass, nobody trusts its findings. Serialization order,
salted hashing and float accumulation are not among its rules: the
conformance matrix (``tests/integration/test_conformance.py``) fails on
their effect on the bytes, under two hash seeds, which is the stronger
guard (``docs/ANALYSIS.md``).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.project import ProjectAnalyzer

REPO = Path(__file__).parents[2]
SRC = REPO / "src"


def test_src_tree_is_clean():
    result = ProjectAnalyzer(rules=()).analyze_paths([str(SRC)])
    assert result.files_checked > 50
    assert result.clean, "\n" + "\n".join(
        finding.format() for finding in result.findings
    )


def test_all_rules_ran():
    result = ProjectAnalyzer(rules=()).analyze_paths(
        [str(SRC / "repro" / "analysis")]
    )
    assert len(result.rules_run) == 3


def test_tree_is_interprocedurally_clean():
    """The acceptance bar for the interprocedural engine: src, benchmarks,
    tests and examples all pass the full rule set. Inline
    ``# repro: ignore[rule]`` comments are the only suppressions."""
    result = ProjectAnalyzer(root=str(REPO)).analyze_paths(
        [
            str(SRC),
            str(REPO / "benchmarks"),
            str(REPO / "tests"),
            str(REPO / "examples"),
        ]
    )
    assert result.files_checked > 150
    assert result.clean, "\n" + "\n".join(
        finding.format() for finding in result.findings
    )


def test_project_rules_all_ran_over_src():
    result = ProjectAnalyzer(root=str(REPO)).analyze_paths([str(SRC)])
    from repro.analysis import project_rule_ids, rule_ids

    assert set(result.rules_run) >= set(project_rule_ids())
    assert set(result.rules_run) >= set(rule_ids())
