"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
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


def test_package_imports_resolve():
    tree = ast.parse(Path(mkvflow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mkvflow.{node.module}")
        for alias in node.names:
            assert getattr(mkvflow, alias.name) is getattr(module, alias.name)
