"""Every name the benchmark's span tracer (``bench/spans.py``) wraps still
exists in the package, so deleting or renaming one fails here; no stariso
module imports another one's private names; and every cache in the
package is bounded."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "stariso"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, name", spans.FUNCTIONS)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"stariso.{module}"), name))


@pytest.mark.parametrize("module, cls, name", spans.METHODS)
def test_traced_method_resolves(module, cls, name):
    assert callable(getattr(getattr(importlib.import_module(f"stariso.{module}"), cls), name))


@pytest.mark.parametrize("attr, command", spans.COMMANDS)
def test_traced_command_resolves(attr, command):
    cli = importlib.import_module("stariso.cli")
    assert cli.cli.commands[command] is getattr(cli, attr)


def private_imports(path):
    """``module: name`` for each underscore name that ``path`` imports from
    another stariso module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.partition(".")[0] != "stariso":
            continue
        found += [f"{module}: {alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_the_scan_sees_private_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .bounds import _closed_forms, closed_forms\n"
                    "from stariso.sweep import _worker\n"
                    "from os import _exit\n")
    assert private_imports(path) == ["bounds: _closed_forms", "stariso.sweep: _worker"]


def unbounded_caches(path):
    """``line N: ...`` for each use of ``functools.cache`` in ``path`` and
    each ``lru_cache`` without an explicit finite integer ``maxsize``: an
    int literal or a module-level name assigned one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sizes = {target.id for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant) and type(node.value.value) is int
             for target in node.targets if isinstance(target, ast.Name)}

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def finite(node):
        return ((isinstance(node, ast.Constant) and type(node.value) is int)
                or (isinstance(node, ast.Name) and node.id in sizes))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for alias in node.names
                      if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and name(node.value) == "functools":
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            args = node.args + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if len(args) != 1 or not finite(args[0]):
                found.append((node.lineno, "lru_cache without a finite maxsize"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a bare decorator takes the default size; the scan asks for it
            found += [(d.lineno, "lru_cache without a finite maxsize")
                      for d in node.decorator_list if name(d) == "lru_cache"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_caches_are_bounded(path):
    # a long-lived process (a sweep worker, a library caller) keeps every
    # cache for its lifetime, so each must stop growing
    assert unbounded_caches(path) == []


def test_the_scan_sees_unbounded_caches(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import functools\n"
                    "from functools import cache, lru_cache\n"
                    "SIZE = 64\n"
                    "@lru_cache(maxsize=SIZE)\n"
                    "def a(): pass\n"
                    "@functools.lru_cache(32)\n"
                    "def b(): pass\n"
                    "@lru_cache(maxsize=None)\n"
                    "def c(): pass\n"
                    "@lru_cache\n"
                    "def d(): pass\n"
                    "@functools.cache\n"
                    "def e(): pass\n"
                    "f = lru_cache(maxsize=LIMIT)(len)\n")
    assert unbounded_caches(path) == [
        "line 2: functools.cache",
        "line 8: lru_cache without a finite maxsize",
        "line 10: lru_cache without a finite maxsize",
        "line 12: functools.cache",
        "line 14: lru_cache without a finite maxsize",
    ]
