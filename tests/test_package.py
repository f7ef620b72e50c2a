"""The package root's export list, and the library modules' imports."""

from __future__ import annotations

import ast
import json
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


def test_console_script_target_runs_a_command():
    """The ``gantrysched`` command that pyproject.toml installs names a working entry point.

    The target ends its process, so it runs in a child, as the installed command runs it.
    """
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = project["project"]["scripts"]["gantrysched"].partition(":")
    argv = "gantrysched qubits --N 70 --nt 650 --ng 3 --np 72 --ns 8".split()
    code = f"import sys\nfrom {module} import {name}\nsys.argv = {argv!r}\n{name}()"
    assert run_fresh(code) == "1365000"  # run_fresh also checks for exit status 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs ``imports`` in a fresh interpreter; prints whether the environment
# came back as it was, and the thread count where Linux shows it.
CAP_SNIPPET = """
import json, os
before = dict(os.environ)
{imports}
status = "/proc/self/status"
threads = None
if os.path.exists(status):
    with open(status) as lines:
        threads = next(int(line.split()[1]) for line in lines if line.startswith("Threads:"))
print(json.dumps({{"environ_kept": dict(os.environ) == before, "threads": threads}}))
"""


def run_fresh(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src``, with no BLAS thread variable but ``env``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    base = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**base, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_random_unloaded():
    """Importing the CLI, as every command's start-up does, stays clear of ``numpy.random``."""
    assert run_fresh("import sys, gantrysched.cli; print('numpy.random' in sys.modules)") == "False"


def test_import_loads_numpy_with_one_blas_thread():
    """No BLAS worker is started, and the variable that asked for one thread is gone again."""
    result = json.loads(run_fresh(CAP_SNIPPET.format(imports="import gantrysched.cli")))
    assert result["environ_kept"]
    if result["threads"] is None:
        pytest.skip("no /proc/self/status to count threads in")
    assert result["threads"] == 1


@pytest.mark.parametrize(
    "first, env",
    [
        ("", {"OPENBLAS_NUM_THREADS": "2"}),
        ("", {"GOTO_NUM_THREADS": "2"}),
        ("", {"OMP_NUM_THREADS": "2"}),
        ("import numpy", {}),
    ],
    ids=["openblas", "goto", "omp", "numpy-first"],
)
def test_import_keeps_the_callers_blas_setup(first, env):
    """A caller's thread count, or a numpy loaded before the package, is left as it is.

    The process then has as many threads as numpy alone starts with that environment.
    """
    result = json.loads(run_fresh(CAP_SNIPPET.format(imports=f"{first}\nimport gantrysched.cli"), **env))
    numpy_alone = json.loads(run_fresh(CAP_SNIPPET.format(imports="import numpy"), **env))
    assert result["environ_kept"]
    assert result["threads"] == numpy_alone["threads"]
