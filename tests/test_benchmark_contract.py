"""The benchmark's traced run wraps library functions by name; they must all exist."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without writing a bytecode cache next to it
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))


@pytest.mark.parametrize("layer, func", TRACING["TARGETS"])
def test_traced_target_exists(layer, func):
    module = importlib.import_module(f"eventsearch.{layer}")
    assert callable(getattr(module, func, None)), f"eventsearch.{layer}.{func} is not callable"
