"""Offline gates over ``src/repro`` for two pyflakes checks: unused
imports (F401) and locals assigned but never read (F841).

CI's ruff is the other gate; these run wherever the tests do, so a
deletion that leaves an import or a local dangling fails tier-1 too. An
import binding counts as used when the module names it anywhere — in
code, in a string annotation (``Optional["StudyResults"]``, the names a
``TYPE_CHECKING`` block imports), in ``typing.cast``'s string type, or
in ``__all__`` — and an explicit re-export (``import x as x``) or a
``# noqa: F401`` / bare ``# noqa`` on the import's lines exempts it.
Names are matched module-wide, not per scope, so the gate can miss an
import that a shadowing local hides; it never flags a used one.

A local counts as bound when a function assigns it to a plain name
(``x = ...``, ``x: T = ...``, ``with ... as x``, ``except ... as x``,
``(x := ...)``), as ruff's F841 counts it: tuple unpacking, loop
targets, ``_``-prefixed names, ``global``/``nonlocal`` names and
functions that call ``locals()`` are left alone. It counts as read when
the function, or anything nested in it, loads, deletes or augments that
name; ``# noqa: F841`` or a bare ``# noqa`` on the binding's line
exempts it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _bindings(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """Every ``(import statement, name it binds)`` in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # ``import x as x``: an explicit re-export
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield node, alias.asname or alias.name


def _string_names(text: str) -> Set[str]:
    """The names a string annotation refers to."""
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return _names(expression)


def _names(tree: ast.AST) -> Set[str]:
    """Names *tree* references, string annotations included."""
    found: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Call)
            and node.args
            and (
                isinstance(node.func, ast.Name) and node.func.id == "cast"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "cast"
            )
        ):
            annotations.append(node.args[0])
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= _string_names(node.value)
    return found


def _exported(tree: ast.Module) -> Set[str]:
    """The strings assigned (or added) to ``__all__``."""
    exported: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ) and node.value is not None:
                exported |= {
                    each.value
                    for each in ast.walk(node.value)
                    if isinstance(each, ast.Constant)
                    and isinstance(each.value, str)
                }
    return exported


def _suppressed(
    lines: List[str], node: ast.AST, code: str = "F401"
) -> bool:
    end = getattr(node, "end_lineno", None) or node.lineno
    for line in lines[node.lineno - 1:end]:
        match = NOQA.search(line)
        if match and (
            match.group("codes") is None or code in match.group("codes")
        ):
            return True
    return False


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each import binding *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names(tree) | _exported(tree)
    return sorted(
        (node.lineno, name)
        for node, name in _bindings(tree)
        if name not in used and not _suppressed(lines, node)
    )


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """The nodes of *function*'s own scope: nested functions, lambdas and
    classes are left out (comprehensions are not: a ``:=`` inside one
    binds in the function)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_bindings(function: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Every ``(node, name)`` F841 would count as binding a local."""
    for node in _own_nodes(function):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars:
            targets = [node.optional_vars]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node, node.name
        for target in targets:
            if isinstance(target, ast.Name):
                yield target, target.id


def unused_locals(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each local *source* assigns and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(
                node.ctx, ast.Store
            ):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        if "locals" in read:
            continue
        for node, name in _local_bindings(function):
            if name not in read and not name.startswith("_") and not (
                _suppressed(lines, node, "F841")
            ):
                found.add((node.lineno, name))
    return sorted(found)


def test_the_gate_sees_what_f401_sees():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import os.path",
            "import json as codec",
            "from typing import TYPE_CHECKING, Dict, List, Optional, cast",
            "from a import b as b",
            "from c import d, e  # noqa: F401",
            "from f import (",
            "    g,  # noqa",
            ")",
            "from h import I, J, K, L",
            "if TYPE_CHECKING:",
            "    from m import N, O",
            "__all__ = ['I']",
            "def run(x: 'Optional[N]') -> Dict[str, int]:",
            "    return cast('J', x)",
            "def walk() -> None:",
            "    import shutil",
            "value: 'List[K]' = []",
        ]
    )
    assert unused_imports(source) == [
        (2, "os"),
        (3, "os"),
        (4, "codec"),
        (11, "L"),
        (13, "O"),
        (18, "shutil"),
    ]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name!r} imported but unused"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)


def test_the_gate_sees_what_f841_sees():
    source = "\n".join(
        [
            "TOTAL = 1",
            "class Box:",
            "    size = 2",
            "def run(path):",
            "    unused = 1",
            "    kept = 2",
            "    first, second = divmod(7, 2)",
            "    _ignored = 3",
            "    hinted: int = 4",
            "    declared: int",
            "    quiet = 5  # noqa: F841",
            "    total = 0",
            "    total += kept",
            "    with open(path) as handle:",
            "        pass",
            "    try:",
            "        pass",
            "    except ValueError as error:",
            "        pass",
            "    if (found := path):",
            "        pass",
            "    for item in path:",
            "        pass",
            "    captured = 6",
            "    def inner():",
            "        shadow = captured",
            "        return [(seen := x) for x in path]",
            "    gone = 7",
            "    del gone",
            "    return inner",
            "def outer():",
            "    count = 0",
            "    def bump():",
            "        nonlocal count",
            "        count = 1",
            "    return bump",
            "def peek():",
            "    hidden = 1",
            "    return locals()",
        ]
    )
    assert unused_locals(source) == [
        (5, "unused"),
        (9, "hinted"),
        (14, "handle"),
        (18, "error"),
        (20, "found"),
        (26, "shadow"),
        (27, "seen"),
    ]


def test_no_unused_locals_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: local {name!r} is "
        "assigned to but never used"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_locals(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)
