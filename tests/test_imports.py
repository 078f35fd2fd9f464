"""Import-time guards: what ``import fastslow`` loads, and where the package
imports its own modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # scipy is imported lazily by the multilinear interpolation; loading it
    # at import time would add its start-up cost to every run
    probe = ("import sys, fastslow; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "fastslow"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "fastslow" for a in node.names)
    return False


def test_no_function_local_package_imports():
    # a package import inside a function body is how an import cycle gets
    # worked around; modules import each other at the top or not at all
    found = set()
    for path in sorted((SRC / "fastslow").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if _is_package_import(node)}
    assert sorted(found) == []
