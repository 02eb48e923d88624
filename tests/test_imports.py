"""Import hygiene without a linter: every name a source or test file imports
is read somewhere in that file, and every specbary module imports on its own
in a fresh interpreter with warnings as errors."""

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_warnings(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", f"import {module}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
