"""Project-wide symbol table and call graph.

The interprocedural rules (``repro/analysis/interproc.py``) need to
answer questions no single-file AST pass can: *does this ``async def``
ever hit a blocking syscall?* *does anything outside an index class
write to a published index?* This module supplies the substrate: a
per-module
symbol table (functions, classes, imports, attribute and variable
types) and a project call graph with best-effort static resolution.

Resolution is deliberately syntactic and conservative:

* bare names resolve through the module's import table and its own
  top-level definitions;
* ``self.method(...)`` resolves through the enclosing class and its
  project-resolvable bases (method dispatch by declared class);
* ``obj.method(...)`` resolves when ``obj``'s type is *declared* — a
  parameter annotation, a local ``x: T`` / ``x = T(...)`` assignment,
  or a ``self.attr = T(...)`` attribution in the class ``__init__``;
* everything else degrades to an *external* dotted symbol
  (``json.dumps``) or an *unknown* method key (``.append``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_OPTIONAL_RE = re.compile(r"^Optional\[(?P<inner>[A-Za-z_][A-Za-z0-9_.]*)\]$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def dotted_of(module_key: str) -> str:
    """Dotted module name for a module key (``repro/stream/engine.py``)."""
    name = module_key[:-3] if module_key.endswith(".py") else module_key
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


def call_symbol(func: ast.expr) -> Optional[str]:
    """Symbolic callee for a call's ``func`` expression.

    ``json.dumps`` → ``"json.dumps"``; ``self.x.apply`` →
    ``"self.x.apply"``; a method on a non-name root (``f().close``)
    degrades to ``".close"``; anything else is ``None``.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if parts:
        return "." + parts[0]
    return None


def annotation_symbol(node: Optional[ast.expr]) -> Optional[str]:
    """The raw dotted type name an annotation declares, if any."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return call_symbol(node)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        match = _OPTIONAL_RE.match(text)
        if match is not None:
            text = match.group("inner")
        return text if _IDENT_RE.match(text) else None
    if isinstance(node, ast.Subscript):
        head = node.value
        if isinstance(head, ast.Name) and head.id == "Optional":
            return annotation_symbol(node.slice)
        if (
            isinstance(head, ast.Attribute)
            and head.attr == "Optional"
        ):
            return annotation_symbol(node.slice)
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    symbol: str
    line: int
    column: int


@dataclass(frozen=True)
class AttrWrite:
    """An assignment ``base.attr = ...`` inside a function body."""

    base: str
    attr: str
    line: int
    column: int


@dataclass
class FunctionSymbol:
    """One function or method, with everything rules ask about."""

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    is_async: bool
    line: int
    column: int
    params: Tuple[str, ...]
    param_types: Dict[str, str] = field(default_factory=dict)
    var_types: Dict[str, str] = field(default_factory=dict)
    calls: Tuple[CallSite, ...] = ()
    attr_writes: Tuple[AttrWrite, ...] = ()


@dataclass
class ClassSymbol:
    """One class: methods, resolved bases, and attribute types."""

    name: str
    qualname: str
    module: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)
    #: ``self.attr`` → declared/constructed dotted type symbol.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: method name → attrs that method assigns on ``self``.
    attr_assigns: Dict[str, Tuple[AttrWrite, ...]] = field(
        default_factory=dict
    )


@dataclass
class ModuleSymbols:
    """The symbol table of one parsed module."""

    module: str
    path: str
    dotted: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)

    def all_functions(self) -> List[FunctionSymbol]:
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return out


class _FunctionCollector(ast.NodeVisitor):
    """Collects call and attribute-write facts inside one function."""

    def __init__(self) -> None:
        self.calls: List[CallSite] = []
        self.attr_writes: List[AttrWrite] = []
        self.var_types: Dict[str, str] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions are collected as their own symbols

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        symbol = call_symbol(node.func)
        if symbol is not None:
            self.calls.append(
                CallSite(
                    symbol=symbol, line=node.lineno, column=node.col_offset
                )
            )
        self.generic_visit(node)

    def _record_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call):
                symbol = call_symbol(value.func)
                if symbol is not None and symbol[:1].isalpha():
                    self.var_types.setdefault(target.id, symbol)
        elif isinstance(target, ast.Attribute):
            base = call_symbol(target.value)
            if base is not None and "." not in base:
                self.attr_writes.append(
                    AttrWrite(
                        base=base,
                        attr=target.attr,
                        line=target.lineno,
                        column=target.col_offset,
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            declared = annotation_symbol(node.annotation)
            if declared is not None:
                self.var_types.setdefault(node.target.id, declared)
        elif isinstance(node.target, ast.Attribute) and node.value is not None:
            self._record_target(node.target, node.value)
        self.generic_visit(node)


def _collect_function(
    node: _FunctionNode,
    module: str,
    dotted: str,
    class_name: Optional[str],
) -> FunctionSymbol:
    arguments = node.args
    ordered = (
        list(arguments.posonlyargs)
        + list(arguments.args)
        + list(arguments.kwonlyargs)
    )
    params: List[str] = []
    param_types: Dict[str, str] = {}
    for index, argument in enumerate(ordered):
        if index == 0 and class_name is not None and argument.arg in (
            "self", "cls"
        ):
            continue
        params.append(argument.arg)
        declared = annotation_symbol(argument.annotation)
        if declared is not None:
            param_types[argument.arg] = declared
    collector = _FunctionCollector()
    for statement in node.body:
        collector.visit(statement)
    var_types = dict(param_types)
    var_types.update(collector.var_types)
    prefix = f"{dotted}.{class_name}." if class_name else f"{dotted}."
    return FunctionSymbol(
        qualname=prefix + node.name,
        module=module,
        name=node.name,
        class_name=class_name,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        line=node.lineno,
        column=node.col_offset,
        params=tuple(params),
        param_types=param_types,
        var_types=var_types,
        calls=tuple(collector.calls),
        attr_writes=tuple(collector.attr_writes),
    )


def _resolve_raw(
    raw: str, imports: Mapping[str, str], dotted: str, local_names: Set[str]
) -> str:
    """A raw dotted symbol resolved through the import table."""
    head, _, rest = raw.partition(".")
    if head in imports:
        base = imports[head]
        return f"{base}.{rest}" if rest else base
    if head in local_names:
        return f"{dotted}.{raw}"
    return raw


def build_module_symbols(
    tree: ast.Module, module: str, path: str
) -> ModuleSymbols:
    """Parse *tree* into a :class:`ModuleSymbols` table."""
    dotted = dotted_of(module)
    symbols = ModuleSymbols(module=module, path=path, dotted=dotted)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else name
                symbols.imports[name] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                symbols.imports[name] = f"{node.module}.{alias.name}"

    def collect_functions(
        body: List[ast.stmt], class_name: Optional[str]
    ) -> Dict[str, FunctionSymbol]:
        collected: Dict[str, FunctionSymbol] = {}
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                collected[statement.name] = _collect_function(
                    statement, module, dotted, class_name
                )
        return collected

    local_names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            local_names.add(node.name)

    symbols.functions = collect_functions(tree.body, None)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases: List[str] = []
        for base in node.bases:
            raw = call_symbol(base)
            if raw is not None:
                bases.append(
                    _resolve_raw(raw, symbols.imports, dotted, local_names)
                )
        cls = ClassSymbol(
            name=node.name,
            qualname=f"{dotted}.{node.name}",
            module=module,
            line=node.lineno,
            bases=tuple(bases),
            methods=collect_functions(node.body, node.name),
        )
        # Class-level annotations declare attribute types.
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                declared = annotation_symbol(statement.annotation)
                if declared is not None:
                    cls.attr_types[statement.target.id] = _resolve_raw(
                        declared, symbols.imports, dotted, local_names
                    )
        # ``self.attr = T(...)`` / annotated params assigned to attrs.
        for method in cls.methods.values():
            writes = tuple(
                write for write in method.attr_writes
                if write.base == "self"
            )
            if writes:
                cls.attr_assigns[method.name] = writes
        init = cls.methods.get("__init__")
        if init is not None:
            _attribute_init_types(
                cls, init, symbols.imports, dotted, local_names
            )
        symbols.classes[node.name] = cls

    # Resolve recorded var types through imports.
    for function in symbols.all_functions():
        function.var_types = {
            name: _resolve_raw(raw, symbols.imports, dotted, local_names)
            for name, raw in function.var_types.items()
        }
        function.param_types = {
            name: _resolve_raw(raw, symbols.imports, dotted, local_names)
            for name, raw in function.param_types.items()
        }
    return symbols


def _attribute_init_types(
    cls: ClassSymbol,
    init: FunctionSymbol,
    imports: Mapping[str, str],
    dotted: str,
    local_names: Set[str],
) -> None:
    """Infer ``self.attr`` types from the constructor body.

    ``self.x = T(...)`` attributes ``x`` to class ``T``; ``self.x =
    param`` with an annotated parameter inherits the annotation.
    """
    # Calls assigned to attributes: match attr writes to constructor
    # calls on the same line (the collector stores both).
    call_by_line: Dict[int, str] = {}
    for call in init.calls:
        if call.symbol[:1].isalpha():
            call_by_line.setdefault(call.line, call.symbol)
    for write in init.attr_writes:
        if write.base != "self" or write.attr in cls.attr_types:
            continue
        raw = call_by_line.get(write.line)
        if raw is not None and (
            raw[:1].isupper() or raw in ("open", "io.open")
            or raw.split(".")[-1][:1].isupper()
            or raw in _KNOWN_HANDLE_FACTORIES
        ):
            cls.attr_types[write.attr] = _resolve_raw(
                raw, imports, dotted, local_names
            )


#: Lower-case factories that still hand back OS handles.
_KNOWN_HANDLE_FACTORIES = frozenset(
    {
        "open", "io.open", "socket.create_connection",
        "socket.create_server", "os.pipe",
    }
)


@dataclass(frozen=True)
class Target:
    """Where a call site resolves to."""

    kind: str  # "project" | "constructor" | "external" | "unknown"
    name: str  # qualname / class qualname / dotted symbol / ".attr"


class CallGraph:
    """Resolved call edges over a set of module symbol tables."""

    def __init__(self, modules: Mapping[str, ModuleSymbols]) -> None:
        self.modules: Dict[str, ModuleSymbols] = dict(modules)
        #: function qualname → symbol
        self.functions: Dict[str, FunctionSymbol] = {}
        #: class qualname → symbol
        self.classes: Dict[str, ClassSymbol] = {}
        for table in self.modules.values():
            for function in table.functions.values():
                self.functions[function.qualname] = function
            for cls in table.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
        #: per function: (line, column) → resolved target
        self.resolved: Dict[str, Dict[Tuple[int, int], Target]] = {}
        #: project call edges (caller qualname → callee qualnames)
        self.edges: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self._resolve_all()

    # -- resolution --------------------------------------------------------

    def _resolve_all(self) -> None:
        for module in sorted(self.modules):
            table = self.modules[module]
            for function in table.all_functions():
                sites: Dict[Tuple[int, int], Target] = {}
                for call in function.calls:
                    target = self.resolve_call(table, function, call.symbol)
                    sites[(call.line, call.column)] = target
                    callee = self._edge_target(target)
                    if callee is not None:
                        self.edges.setdefault(
                            function.qualname, set()
                        ).add(callee)
                        self.callers.setdefault(callee, set()).add(
                            function.qualname
                        )
                self.resolved[function.qualname] = sites

    def _edge_target(self, target: Target) -> Optional[str]:
        if target.kind == "project":
            return target.name
        if target.kind == "constructor":
            cls = self.classes.get(target.name)
            if cls is not None:
                init = self.lookup_method(cls, "__init__")
                if init is not None:
                    return init.qualname
        return None

    def lookup_method(
        self, cls: ClassSymbol, method: str
    ) -> Optional[FunctionSymbol]:
        """Find *method* on *cls* or its project-resolvable bases."""
        seen: Set[str] = set()
        queue: List[ClassSymbol] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            for base in current.bases:
                parent = self.classes.get(base)
                if parent is not None:
                    queue.append(parent)
        return None

    def attr_type(
        self, cls: ClassSymbol, attr: str
    ) -> Optional[str]:
        """The declared type of ``self.attr`` on *cls* (or bases)."""
        seen: Set[str] = set()
        queue: List[ClassSymbol] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if attr in current.attr_types:
                return current.attr_types[attr]
            for base in current.bases:
                parent = self.classes.get(base)
                if parent is not None:
                    queue.append(parent)
        return None

    def resolve_call(
        self,
        table: ModuleSymbols,
        function: FunctionSymbol,
        symbol: str,
    ) -> Target:
        """Resolve one symbolic callee in *function*'s context."""
        if symbol.startswith("."):
            return Target("unknown", symbol)
        head, _, rest = symbol.partition(".")
        if head in ("self", "cls") and function.class_name is not None:
            cls = table.classes.get(function.class_name)
            if cls is None:
                return Target("unknown", "." + symbol.rsplit(".", 1)[-1])
            if rest and "." not in rest:
                method = self.lookup_method(cls, rest)
                if method is not None:
                    return Target("project", method.qualname)
                return Target("unknown", "." + rest)
            if rest:
                attr, _, tail = rest.partition(".")
                declared = self.attr_type(cls, attr)
                if declared is not None and "." not in tail:
                    return self._resolve_typed(declared, tail)
            return Target("unknown", "." + symbol.rsplit(".", 1)[-1])
        declared = function.var_types.get(head)
        if declared is not None and rest and "." not in rest:
            resolved = self._resolve_typed(declared, rest)
            if resolved.kind != "unknown":
                return resolved
        resolved_raw = _resolve_raw(
            symbol,
            table.imports,
            table.dotted,
            set(table.functions) | set(table.classes),
        )
        return self._resolve_dotted(resolved_raw, symbol)

    def _resolve_typed(self, declared: str, method: str) -> Target:
        cls = self.classes.get(declared)
        if cls is None:
            return Target("unknown", "." + method)
        found = self.lookup_method(cls, method)
        if found is not None:
            return Target("project", found.qualname)
        return Target("unknown", "." + method)

    def _resolve_dotted(self, dotted: str, raw: str) -> Target:
        if dotted in self.functions:
            return Target("project", dotted)
        if dotted in self.classes:
            return Target("constructor", dotted)
        # ``module.Class.method`` or ``module.func`` one level deeper.
        head, _, tail = dotted.rpartition(".")
        if head in self.classes:
            cls = self.classes[head]
            found = self.lookup_method(cls, tail)
            if found is not None:
                return Target("project", found.qualname)
        return Target("external", dotted)
