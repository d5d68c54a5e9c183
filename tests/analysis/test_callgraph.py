"""The symbol table and call graph: resolution, edges, reachability."""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    CallGraph,
    build_module_symbols,
    call_symbol,
    dotted_of,
)


def _graph(sources):
    modules = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        modules[module] = build_module_symbols(tree, module, module)
    return CallGraph(modules)


def test_call_symbol_shapes():
    def sym(text):
        return call_symbol(ast.parse(text, mode="eval").body)

    assert sym("json.dumps") == "json.dumps"
    assert sym("self.swapper.rebuild") == "self.swapper.rebuild"
    assert sym("f()") is None
    assert sym("f().close") == ".close"


def test_dotted_of():
    assert dotted_of("repro/stream/engine.py") == "repro.stream.engine"
    assert dotted_of("repro/serve/__init__.py") == "repro.serve"
    assert dotted_of("tests/x/test_y.py") == "tests.x.test_y"


def test_self_method_dispatch_and_edges():
    graph = _graph(
        {
            "repro/demo/a.py": (
                "class Engine:\n"
                "    def step(self):\n"
                "        return self.flush()\n"
                "    def flush(self):\n"
                "        return 1\n"
            )
        }
    )
    edges = graph.edges["repro.demo.a.Engine.step"]
    assert edges == {"repro.demo.a.Engine.flush"}


def test_cross_module_import_resolution():
    graph = _graph(
        {
            "repro/demo/util.py": "def helper():\n    return 1\n",
            "repro/demo/main.py": (
                "from repro.demo.util import helper\n"
                "def run():\n"
                "    return helper()\n"
            ),
        }
    )
    assert graph.edges["repro.demo.main.run"] == {
        "repro.demo.util.helper"
    }
    assert "repro.demo.main.run" in graph.callers[
        "repro.demo.util.helper"
    ]


def test_declared_type_method_dispatch():
    graph = _graph(
        {
            "repro/demo/svc.py": (
                "class Store:\n"
                "    def get(self, key):\n"
                "        return key\n"
                "def lookup(store: Store, key):\n"
                "    return store.get(key)\n"
                "def build():\n"
                "    store = Store()\n"
                "    return store.get('x')\n"
            )
        }
    )
    assert graph.edges["repro.demo.svc.lookup"] == {
        "repro.demo.svc.Store.get"
    }
    # Constructor inference: store = Store() types the local.
    assert "repro.demo.svc.Store.get" in graph.edges[
        "repro.demo.svc.build"
    ]


def test_attr_type_from_init():
    graph = _graph(
        {
            "repro/demo/holder.py": (
                "import threading\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
            )
        }
    )
    cls = graph.classes["repro.demo.holder.Holder"]
    assert cls.attr_types["_lock"] == "threading.Lock"


def test_symbols_are_picklable():
    import pickle

    graph = _graph(
        {
            "repro/demo/p.py": (
                "class C:\n"
                "    def __init__(self, x: int):\n"
                "        self.x = x\n"
                "def f(c: C):\n"
                "    return c.x\n"
            )
        }
    )
    table = graph.modules["repro/demo/p.py"]
    assert pickle.loads(pickle.dumps(table)).dotted == "repro.demo.p"
