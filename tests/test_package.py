"""The package root's export list, and the library modules' imports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gantrysched

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in (SRC / "gantrysched").glob("*.py") if path.name != "__init__.py")


def test_all_lists_exactly_the_public_names():
    """An export dropped from ``__all__`` or from the imports alone fails here."""
    public = {
        name
        for name, value in vars(gantrysched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(gantrysched.__all__) == sorted(public)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    """A deletion that leaves an import behind fails here; no linter runs in the suite."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_cli_import_leaves_numpy_random_unloaded():
    """Importing the CLI, as every command's start-up does, stays clear of ``numpy.random``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, gantrysched.cli; print('numpy.random' in sys.modules)",
        ],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
