"""repro.analysis — determinism & invariant analysis, local and interprocedural.

The streaming engine's guarantees (checkpoint byte-identity,
stream-vs-batch equivalence, kill-and-resume) are enforced by tests but
*created* by coding invariants: no wall-clock or global-RNG reads in
pure modules, no float equality on statistics paths, no swallowed
ingest errors, no mutable defaults, and checkpoint codecs that cover
every field of state. This package checks the invariants a test cannot
see, statically, via ``python -m repro analyze`` (see
``docs/ANALYSIS.md``); iteration order and hashing are left to the
conformance matrix, which checks their effect on the bytes.

Two layers:

* **local rules** (:mod:`repro.analysis.rules`) — single-file AST
  checks;
* **project rules** (:mod:`repro.analysis.interproc`) — cross-function
  checks over a project-wide call graph
  (:mod:`repro.analysis.callgraph`).

Both run in the one pass of
:class:`~repro.analysis.project.ProjectAnalyzer`, with SARIF output
(:mod:`repro.analysis.sarif`) and a ratcheting suppression baseline
(:mod:`repro.analysis.baseline`).
"""

from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    load_baseline,
    write_baseline,
)
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
from repro.analysis.sarif import render_sarif

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineError",
    "Finding",
    "PARSE_ERROR",
    "ProjectAnalyzer",
    "ProjectRule",
    "Rule",
    "all_rule_descriptions",
    "default_rules",
    "is_suppressed",
    "load_baseline",
    "logical_module",
    "project_rule_ids",
    "project_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "suppressed_rules",
    "write_baseline",
]
