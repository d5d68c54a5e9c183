"""repro.analysis — determinism & invariant analysis, local and interprocedural.

The streaming engine's guarantees (checkpoint byte-identity,
stream-vs-batch equivalence, kill-and-resume) are enforced by tests but
*created* by coding invariants: no wall-clock or global-RNG reads in
pure modules, no swallowed ingest errors, no blocking call on the
serve loop. This package checks the invariants a test cannot see,
statically, via ``python -m repro analyze`` (see
``docs/ANALYSIS.md``); iteration order and hashing are left to the
conformance matrix, which checks their effect on the bytes, and
checkpoint codecs and threshold arithmetic to the laws of
``tests/property``, which run them.

Two layers:

* **local rules** (:mod:`repro.analysis.rules`) — single-file AST
  checks;
* **project rules** (:mod:`repro.analysis.interproc`) — cross-function
  checks over a project-wide call graph
  (:mod:`repro.analysis.callgraph`).

Both run in the one pass of
:class:`~repro.analysis.project.ProjectAnalyzer`. An inline
``# repro: ignore[rule]`` comment is the only way to suppress a finding,
and the exit code is the only gate.
"""

from repro.analysis.findings import (
    Finding,
    is_suppressed,
    suppressed_rules,
)
from repro.analysis.interproc import (
    ProjectRule,
    project_rule_ids,
    project_rules,
)
from repro.analysis.project import ProjectAnalyzer, all_rule_descriptions
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import Rule, default_rules, rule_ids
from repro.analysis.runner import PARSE_ERROR, AnalysisResult, logical_module

__all__ = [
    "AnalysisResult",
    "Finding",
    "PARSE_ERROR",
    "ProjectAnalyzer",
    "ProjectRule",
    "Rule",
    "all_rule_descriptions",
    "default_rules",
    "is_suppressed",
    "logical_module",
    "project_rule_ids",
    "project_rules",
    "render_json",
    "render_text",
    "rule_ids",
    "suppressed_rules",
]
