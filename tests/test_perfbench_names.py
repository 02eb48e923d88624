"""The benchmark tracer wraps specbary functions by name; each name must
still exist, or a traced benchmark run fails on its first lookup."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name", sorted(tracing.TRACED))
def test_traced_names_are_callables_of_their_module(module_name):
    module = importlib.import_module(f"specbary.{module_name}")
    for name in tracing.TRACED[module_name]:
        assert callable(getattr(module, name, None)), f"specbary.{module_name}.{name}"
