"""The determinism & invariant rules, as AST visitors.

Each rule encodes one repo-specific invariant the streaming engine's
checkpoint byte-identity (and the study's reproducibility generally)
depends on. Iteration order, salted hashing and float accumulation are
not judged here: the conformance matrix
(``tests/integration/test_conformance.py``) checks their effect on the
bytes directly. Nor are mutable defaults or per-row boxing on the
columnar hot paths: tier-1 and the end-to-end benchmark caught every
bug of those classes planted for them (``docs/ANALYSIS.md``). Nor are
checkpoint codecs that forget or reset a field, or float comparisons
on the statistics paths: the round-trip laws and the exact-arithmetic
laws of ``tests/property`` run that code and caught every such plant.

``wall-clock``
    ``repro.core`` and ``repro.stream`` must be pure functions of their
    inputs: no wall-clock reads (``time.time()``, ``datetime.now()``)
    and no module-global RNG (``random.random()`` et al.). Seeded
    ``random.Random`` instances are the sanctioned alternative.

``swallowed-exception``
    Bare ``except:`` anywhere, and broad ``except Exception`` handlers
    that swallow (never re-raise) on ingest paths, hide data-quality
    problems that should quarantine a partition instead.

``decode-in-segment-hot-path``
    The segment read path (:mod:`repro.store`) decodes whole column
    pages through :func:`repro.store.codecs.decode_page` and translates
    rows through the dictionary index list. Object-serialization
    decoders there (``json.loads``, ``pickle.loads``, ``marshal``) — or
    a ``for ... in range(rows)`` loop that parses each row individually
    — reintroduce exactly the per-row decode cost the binary format
    eliminated. The store manifest (``manifest.json``, read once per
    store open) is off the hot path and exempt.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

#: Modules that must stay free of wall-clock and global-RNG reads.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro/core/",
    "repro/stream/",
    "repro/serve/",
    "repro/store/",
    "repro/sketch/",
)

#: Ingest paths where a swallowed broad except hides bad partitions.
INGEST_PACKAGES: Tuple[str, ...] = (
    "repro/stream/",
    "repro/measurement/",
    "repro/mapreduce/",
    "repro/store/",
)

_CLOCK_READS: FrozenSet[str] = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
)
_DATETIME_READS: FrozenSet[str] = frozenset({"now", "utcnow", "today"})
_SEEDED_RNG_NAMES: FrozenSet[str] = frozenset({"Random", "SystemRandom"})


class Rule:
    """One invariant check over a parsed module."""

    id: str = ""
    summary: str = ""

    def applies_to(self, module: str) -> bool:
        """Whether the rule runs on *module* (a ``repro/...`` rel path)."""
        return True

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> List[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "wall-clock or module-global RNG use in deterministic packages "
        "(repro.core/repro.stream/repro.serve/repro.store/repro.sketch)"
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith(DETERMINISTIC_PACKAGES)

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._check_call(node, path, findings)
            elif isinstance(node, ast.ImportFrom):
                self._check_import(node, path, findings)
        return findings

    def _check_call(
        self, node: ast.Call, path: str, findings: List[Finding]
    ) -> None:
        function = node.func
        if not isinstance(function, ast.Attribute):
            return
        value = function.value
        if isinstance(value, ast.Name) and value.id == "time":
            if function.attr in _CLOCK_READS:
                findings.append(
                    self._finding(
                        path,
                        node,
                        f"time.{function.attr}() reads the wall clock; "
                        f"deterministic code must take timestamps as input",
                    )
                )
            return
        if isinstance(value, ast.Name) and value.id == "random":
            if function.attr not in _SEEDED_RNG_NAMES:
                findings.append(
                    self._finding(
                        path,
                        node,
                        f"random.{function.attr}() uses the module-global "
                        f"RNG; construct a seeded random.Random instead",
                    )
                )
            return
        if function.attr in _DATETIME_READS:
            base = value.attr if isinstance(value, ast.Attribute) else (
                value.id if isinstance(value, ast.Name) else None
            )
            if base in ("datetime", "date"):
                findings.append(
                    self._finding(
                        path,
                        node,
                        f"{base}.{function.attr}() reads the wall clock; "
                        f"deterministic code must take dates as input",
                    )
                )

    def _check_import(
        self, node: ast.ImportFrom, path: str, findings: List[Finding]
    ) -> None:
        if node.module == "time":
            banned = [
                alias.name
                for alias in node.names
                if alias.name in _CLOCK_READS
            ]
        elif node.module == "random":
            banned = [
                alias.name
                for alias in node.names
                if alias.name not in _SEEDED_RNG_NAMES
            ]
        else:
            return
        for name in banned:
            findings.append(
                self._finding(
                    path,
                    node,
                    f"importing {name!r} from {node.module!r} pulls "
                    f"nondeterminism into a deterministic module",
                )
            )


class SwallowedExceptionRule(Rule):
    id = "swallowed-exception"
    summary = "bare except, or broad except that swallows on ingest paths"

    @staticmethod
    def _is_broad(node: Optional[ast.expr]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("Exception", "BaseException")
        if isinstance(node, ast.Tuple):
            return any(
                SwallowedExceptionRule._is_broad(element)
                for element in node.elts
            )
        return False

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        on_ingest_path = module.startswith(INGEST_PACKAGES)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self._finding(
                        path,
                        node,
                        "bare 'except:' catches everything including "
                        "KeyboardInterrupt; name the exception",
                    )
                )
                continue
            if not on_ingest_path or not self._is_broad(node.type):
                continue
            reraises = any(
                isinstance(inner, ast.Raise)
                for statement in node.body
                for inner in ast.walk(statement)
            )
            if not reraises:
                findings.append(
                    self._finding(
                        path,
                        node,
                        "broad except swallows errors on an ingest path; "
                        "bad partitions must quarantine, not vanish",
                    )
                )
        return findings


class SegmentDecodeRule(Rule):
    id = "decode-in-segment-hot-path"
    summary = (
        "object-serialization decode or per-row parse loop on the "
        "segment read path (repro.store)"
    )

    #: The segment store's read/write hot path.
    HOT_PACKAGES: Tuple[str, ...] = ("repro/store/",)
    #: Off the page hot path: the manifest is metadata (one JSON read
    #: per store open).
    EXEMPT_MODULES: FrozenSet[str] = frozenset({"repro/store/manifest.py"})
    _BANNED_MODULES: FrozenSet[str] = frozenset(
        {"json", "pickle", "marshal"}
    )
    _BANNED_CALLS: FrozenSet[str] = frozenset({"load", "loads"})
    #: Names that identify a loop bound as a row count.
    _ROW_COUNTS: FrozenSet[str] = frozenset(
        {"rows", "row_count", "num_rows", "n_rows"}
    )
    #: Calls that parse bytes; one of these per row is the anti-pattern.
    _PARSE_CALLS: FrozenSet[str] = frozenset(
        {"decode", "unpack", "unpack_from", "loads", "load", "from_bytes"}
    )

    def applies_to(self, module: str) -> bool:
        return (
            module.startswith(self.HOT_PACKAGES)
            and module not in self.EXEMPT_MODULES
        )

    @classmethod
    def _is_row_bound(cls, node: ast.expr) -> bool:
        """Whether a ``range()`` argument names a row count."""
        if isinstance(node, ast.Name):
            return node.id in cls._ROW_COUNTS
        if isinstance(node, ast.Attribute):
            return node.attr in cls._ROW_COUNTS
        return False

    @classmethod
    def _is_per_row_range(cls, iterable: ast.expr) -> bool:
        return (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
            and any(cls._is_row_bound(arg) for arg in iterable.args)
        )

    @classmethod
    def _parses_per_row(cls, body: Sequence[ast.AST]) -> bool:
        for statement in body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                name = (
                    function.attr
                    if isinstance(function, ast.Attribute)
                    else function.id
                    if isinstance(function, ast.Name)
                    else None
                )
                if name in cls._PARSE_CALLS:
                    return True
        return False

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED_MODULES:
                        findings.append(
                            self._finding(
                                path,
                                node,
                                f"import of {root!r} on the segment read "
                                f"path; pages are struct-framed binary "
                                f"(repro.store.codecs), not serialized "
                                f"objects",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._BANNED_MODULES:
                    findings.append(
                        self._finding(
                            path,
                            node,
                            f"import from {root!r} on the segment read "
                            f"path; pages are struct-framed binary "
                            f"(repro.store.codecs), not serialized objects",
                        )
                    )
            elif isinstance(node, ast.Call):
                function = node.func
                if (
                    isinstance(function, ast.Attribute)
                    and isinstance(function.value, ast.Name)
                    and function.value.id in self._BANNED_MODULES
                    and function.attr in self._BANNED_CALLS
                ):
                    findings.append(
                        self._finding(
                            path,
                            node,
                            f"{function.value.id}.{function.attr}() decodes "
                            f"serialized objects on the segment read path; "
                            f"decode whole pages via "
                            f"repro.store.codecs.decode_page and translate "
                            f"rows through the index list",
                        )
                    )
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_per_row_range(node.iter) and self._parses_per_row(
                    node.body
                ):
                    findings.append(self._per_row_finding(path, node.iter))
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                per_row = any(
                    self._is_per_row_range(generator.iter)
                    for generator in node.generators
                )
                elements: List[ast.AST] = (
                    [node.key, node.value]
                    if isinstance(node, ast.DictComp)
                    else [node.elt]
                )
                if per_row and self._parses_per_row(elements):
                    findings.append(self._per_row_finding(path, node))
        return findings

    def _per_row_finding(self, path: str, node: ast.AST) -> Finding:
        return self._finding(
            path,
            node,
            "per-row parse loop over range(rows) on the segment read "
            "path; decode the whole page once "
            "(repro.store.codecs.decode_page) and map rows through the "
            "dictionary index list",
        )


def default_rules() -> Tuple[Rule, ...]:
    """All shipped rules, in reporting order."""
    return (
        WallClockRule(),
        SwallowedExceptionRule(),
        SegmentDecodeRule(),
    )


def rule_ids() -> List[str]:
    return [rule.id for rule in default_rules()]
