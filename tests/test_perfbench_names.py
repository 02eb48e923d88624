"""The benchmark tracer wraps specbary functions by name, and the workload
checks read fields of a BarycentreResult; each name must still exist, or a
benchmark run fails on its first lookup."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from specbary import barycentre, sbm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name", sorted(tracing.TRACED))
def test_traced_names_are_callables_of_their_module(module_name):
    module = importlib.import_module(f"specbary.{module_name}")
    for name in tracing.TRACED[module_name]:
        assert callable(getattr(module, name, None)), f"specbary.{module_name}.{name}"


def _result_reads(path: Path) -> set[str]:
    """Dotted attribute chains a file reads from names called result."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "result":
            reads.add(".".join(reversed(names)))
    return reads


def test_benchmark_reads_of_the_result_exist():
    reads = _result_reads(PERFBENCH / "workloads.py") | _result_reads(PERFBENCH / "selftest.py")
    # the scan finds the reads the workload checks are known to make
    assert {"mu_hat", "permutation", "degrees.blocks"} <= reads
    graph = sbm.sample(sbm.balanced(40, 2, 0.8, 0.1), (3, 0))
    result = barycentre.compute_barycentre([graph], M=2, seed=0)
    for chain in sorted(reads):
        value = result
        for name in chain.split("."):
            assert hasattr(value, name), f"BarycentreResult.{chain}"
            value = getattr(value, name)
