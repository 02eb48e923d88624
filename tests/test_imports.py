"""Import hygiene without a linter: every name a source or test file imports
is read somewhere in that file, every specbary module imports on its own
in a fresh interpreter with warnings as errors, and small pipeline runs
never load scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = sorted([*(SRC / "specbary").glob("*.py"), *(ROOT / "tests").glob("*.py")])
MODULES = ["specbary", *(f"specbary.{p.stem}" for p in sorted((SRC / "specbary").glob("*.py"))
                         if p.stem != "__init__")]


def unused_imports(path: Path) -> list[str]:
    """'line name' for each name that path imports and never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line} {name}" for name, line in imported.items() if name not in loaded]


def test_unused_imports_finds_a_dropped_use(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import json\nimport numpy as np\nfrom . import eigen, sbm\nsbm.sample(np)\n")
    assert unused_imports(path) == ["1 json", "3 eigen"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_warnings(module):
    proc = run_python("-W", "error", "-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr


# compute_barycentre on the 232-node contact morning with M = 4 and an
# estimated M, then on an n = 1024 sample that Lanczos reads
PIPELINE_SCIPY = """
import io, sys
from specbary import barycentre, ingest, sbm
table = ingest.parse_contacts(io.StringIO(ingest.synthetic_school_day(seed=0)))
graphs = ingest.window_graphs(table, ingest.MORNING_START, ingest.MORNING_END,
                              ingest.MORNING_WIDTH).graphs
for M in (4, None):
    barycentre.compute_barycentre(graphs, M=M, seed=0)
print("scipy" in sys.modules)
barycentre.compute_barycentre([sbm.sample(sbm.balanced(1024, 4, 0.2, 0.02), (5, 0))], M=4, seed=0)
print("scipy" in sys.modules)
"""


def test_only_inputs_lanczos_reads_load_scipy():
    proc = run_python("-c", PIPELINE_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
