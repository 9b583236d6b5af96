"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mkvflow

MODULES = [importlib.import_module(f"mkvflow.{info.name}")
           for info in pkgutil.iter_modules(mkvflow.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing: {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_import_is_used_or_exported(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", ())))
    assert not unused, f"{module.__name__} imports unused names: {unused}"


def test_package_imports_resolve():
    tree = ast.parse(Path(mkvflow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mkvflow.{node.module}")
        for alias in node.names:
            assert getattr(mkvflow, alias.name) is getattr(module, alias.name)


def test_cli_start_up_skips_optimize_and_interpolate():
    # both take about 0.3 s to import; only the transport metrics need them
    src = str(Path(mkvflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, mkvflow.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
