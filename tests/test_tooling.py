"""Every name the benchmark's span tracer (``bench/spans.py``) wraps still
exists in the package, so deleting or renaming one fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
