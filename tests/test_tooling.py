"""Every name the benchmark's span tracer (``bench/spans.py``) wraps still
exists in the package, so deleting or renaming one fails here; and no
stariso module imports another one's private names."""

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
