"""Every name the benchmark's span tracer (``bench/spans.py``) wraps still
exists in the package, so deleting or renaming one fails here; so does
every call README.md names; no stariso module imports another one's
private names; no module or script imports a name it never reads, or
defines a private name that nothing names; every cache in the package is
bounded; only the sweep's output is renamed; only the CLI touches the
garbage collector; and the CLI's copy of the sweep's suite names matches
the sweep."""

import ast
import importlib
import importlib.util
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "stariso"
README = ROOT / "README.md"


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


#: Backticked calls in README.md that name no stariso code: a builtin, the
#: standard library and the pair count n(n-1)/2.
FOREIGN_CALLS = {"len", "json.loads", "n"}


def namespaces():
    """Each stariso module and each class defined in one, by name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("stariso" if path.stem == "__init__" else f"stariso.{path.stem}")
        found[module.__name__.rpartition(".")[2]] = module
        found.update((name, value) for name, value in vars(module).items()
                     if isinstance(value, type) and value.__module__.startswith("stariso"))
    return found


def unresolved_calls(text):
    """Each backticked call in ``text``, `` `name(`` or `` `owner.name(``,
    whose name is in no stariso module and no class of one; an owner that
    is a stariso module or class must hold the name itself."""
    spaces = namespaces()
    missing = []
    for call in re.findall(r"`([A-Za-z_][\w.]*)\(", text):
        owner, _, name = call.rpartition(".")
        where = [spaces[owner]] if owner in spaces else spaces.values()
        if call not in FOREIGN_CALLS and not any(hasattr(space, name) for space in where):
            missing.append(call)
    return missing


def test_readme_calls_resolve():
    assert unresolved_calls(README.read_text(encoding="utf-8")) == []


def test_the_scan_sees_missing_calls():
    text = ("`bound_report(key, iota)` and `row_violations(key, iota)`; "
            "`Tree.rooted(0)`, `Tree.nope()`, `summary.violation_lines(3)`, "
            "`len(x)`, `json.loads(line)`, `json.dumps(entry)`")
    assert unresolved_calls(text) == ["row_violations", "Tree.nope", "json.dumps"]


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


SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(path):
    """``line N: name`` for each name that ``path`` imports and never reads,
    ``from __future__ import annotations`` aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_unused_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import importlib.util\n"
                    "import os, sys as system\n"
                    "from fractions import Fraction\n"
                    "from .graphs import Tree, as_tree\n"
                    "def f(t: Tree) -> int:\n"
                    "    from json import dumps\n"
                    "    return importlib.util.find_spec(os.sep)\n")
    assert unused_imports(path) == [
        "line 3: system", "line 4: Fraction", "line 5: as_tree", "line 7: dumps"]


def unused_private_names(paths):
    """``file: name`` for each module-level private function, class or
    assignment in ``paths`` that no file of ``paths`` names outside its own
    definition (dunder names aside)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    named = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id].add(node)
            elif isinstance(node, ast.Attribute):
                named[node.attr].add(node)
            elif isinstance(node, ast.alias):
                named[node.name].add(node)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            own = set(ast.walk(node))
            found += [f"{path.name}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and not named[name] - own]
    return found


def test_no_unused_private_names():
    assert unused_private_names(SOURCES) == []


def test_the_scan_sees_unused_private_names(tmp_path):
    helper = tmp_path / "helper.py"
    helper.write_text("import os\n"
                      "_LIMIT = 3\n"
                      "_DEAD: int = 4\n"
                      "__all__ = ['run']\n"
                      "def _used(x):\n"
                      "    return _used(x - 1) if x else _LIMIT\n"
                      "def _recursive(x):\n"
                      "    return _recursive(x - 1)\n"
                      "class _Spare:\n"
                      "    pass\n"
                      "def run():\n"
                      "    return os.sep\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from helper import _used\n"
                      "import helper\n"
                      "helper._Spare\n")
    assert unused_private_names([helper]) == [
        "helper.py: _DEAD", "helper.py: _used", "helper.py: _recursive", "helper.py: _Spare"]
    assert unused_private_names([helper, caller]) == ["helper.py: _DEAD", "helper.py: _recursive"]


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


RENAMES = {"rename", "renames", "replace"}


def renames(path):
    """``function: os.name`` for each call of ``os.rename``, ``os.renames``
    or ``os.replace`` in ``path``, named by the innermost function around it
    (``<module>`` outside any), and ``line N: from os import name`` for each
    import of one, since a call through that name would escape the scan."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.module == "os":
                found.extend(f"line {child.lineno}: from os import {alias.name}"
                             for alias in child.names if alias.name in RENAMES)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in RENAMES and getattr(child.func.value, "id", None) == "os"):
                found.append(f"{where}: os.{child.func.attr}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_sweep_output_is_renamed():
    # _all_or_nothing never renames onto an existing file; a second caller
    # would have to keep that rule too
    found = [f"{path.parent.name}/{path.name}: {call}" for path in SOURCES
             for call in renames(path)]
    assert found == ["stariso/sweep.py: _all_or_nothing: os.replace"]


def test_the_scan_sees_renames(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\n"
                    "from os import replace as swap, unlink\n"
                    "os.rename('a', 'b')\n"
                    "def outer():\n"
                    "    def inner():\n"
                    "        os.replace('a', 'b')\n"
                    "    os.renames('a', 'b')\n"
                    "    'a'.replace('a', 'b')\n"
                    "    return os.unlink('a')\n")
    assert renames(path) == ["line 2: from os import replace", "<module>: os.rename",
                             "inner: os.replace", "outer: os.renames"]


def collector_uses(path):
    """``line N: ...`` for each import of ``gc`` in ``path`` and each
    attribute read off a name ``gc``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append((node.lineno, "from gc import"))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc":
            found.append((node.lineno, f"gc.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_only_the_cli_touches_the_collector():
    # the collector state is process-wide: main switches it around a whole
    # command, and a library function doing so would undo that for its caller
    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if collector_uses(path)] == [
        "cli.py"]


def test_the_scan_sees_collector_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import gc\n"
                    "from gc import collect\n"
                    "def f():\n"
                    "    gc.disable()\n"
                    "    return gcd(4, 6)\n")
    assert collector_uses(path) == [
        "line 1: import gc", "line 2: from gc import", "line 4: gc.disable"]


def test_sweep_help_names_every_check_suite_in_order(capsys):
    # cli.py spells the suite names out, so that the sweep stays unloaded
    from stariso.cli import main
    from stariso.sweep import CHECK_SUITES

    assert main(["sweep", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    (listed,) = re.findall(r"--checks CHECKS Comma list from (.*?) or 'all'\.", help_text)
    assert listed.split(", ") == list(CHECK_SUITES)
