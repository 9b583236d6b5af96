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


def _loaded_by_cli_import(then: str = "") -> set:
    """Modules loaded in a fresh process by ``import mkvflow.cli`` and then
    the statements ``then``."""
    src = str(Path(mkvflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = f"import sys, mkvflow.cli\n{then}\nprint(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(ast.literal_eval(out.strip()))


def test_cli_start_up_skips_optimize_and_interpolate():
    # the first two take about 0.3 s to import; nothing in the package
    # needs them or sparse matrices
    assert not _loaded_by_cli_import() & {"scipy.optimize", "scipy.interpolate", "scipy.sparse"}


def test_cli_start_up_skips_scipy_fft_and_special():
    # numpy.fft does every transform; scipy.fft takes about 0.4 s to import,
    # most of it in scipy.special, which nothing else on this path needs
    assert not _loaded_by_cli_import() & {"scipy.fft", "scipy.special"}


def test_transport_metrics_load_no_scipy():
    # the metrics' PCHIP loaded scipy.interpolate and scipy.optimize, about
    # 0.55 s and 45 MB of peak memory in every process that computed a W_q
    loaded = _loaded_by_cli_import(
        "import numpy as np\n"
        "from mkvflow.grids import GridSpec, gaussian_density\n"
        "from mkvflow.metrics import wasserstein_1d, wasserstein_1d_empirical_many\n"
        "grid = GridSpec(1, 256, 8.0)\n"
        "a, b = gaussian_density(grid, 0.0, 0.1), gaussian_density(grid, 0.5, 0.2)\n"
        "wasserstein_1d(a, b, 2.0)\n"
        "wasserstein_1d_empirical_many([np.linspace(-1.0, 1.0, 100)], a)")
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


def test_march_and_windowed_norm_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 13 ms and 1.6 MB;
    # the marching grid and the windowed norm's chord cuts sort instead
    loaded = _loaded_by_cli_import(
        "from mkvflow.grids import GridSpec, gaussian_density\n"
        "from mkvflow.norms import SobolevIndex, local_neg_norm\n"
        "from mkvflow.solver import FlowParams, phi_apply\n"
        "grid = GridSpec(1, 256, 8.0)\n"
        "gamma = gaussian_density(grid, 0.0, 0.1)\n"
        "phi_apply([gamma], None, None, FlowParams(1.0, 2.0, T=0.5), steps=10)\n"
        "local_neg_norm(gamma, SobolevIndex(1.0, 2.0))")
    assert "numpy.ma" not in loaded


# every draw goes through ``np.random`` or a generator made by one of these
_RANDOM_ATTRS = {"default_rng", "Generator"}


def test_only_particles_draw_random_numbers():
    # every other result is a function of its inputs alone, so a seed can
    # change particle rows and nothing else
    drawn = set()
    for path in sorted(Path(mkvflow.__file__).parent.glob("*.py")):
        if path.name == "particles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr in _RANDOM_ATTRS
                    or node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")):
                drawn.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and "random" in (node.module or "").split("."):
                drawn.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(
                    "random" in a.name.split(".") for a in node.names):
                drawn.add(f"{path.name}:{node.lineno}")
    assert not drawn, f"random numbers drawn outside particles.py: {sorted(drawn)}"


def _is_inf(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "inf" and getattr(
        node.value, "id", None) in ("math", "np", "numpy")


def test_range_checks_go_through_require_number():
    # a hand-written ``lo < x < math.inf`` check words its own message and can
    # skip the type check; grids._require_number does both for any interval
    found = []
    for path in sorted(Path(mkvflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(node) for fn in tree.body
                  if path.name == "grids.py" and getattr(fn, "name", None) == "_require_number"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in helper
                  and any(map(_is_inf, [node.left, *node.comparators]))]
    assert not found, f"comparisons against inf outside _require_number: {found}"


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        getattr(t, "id", None) == "__all__" for t in node.targets)


def _referenced_names(nodes) -> set:
    """Names, attributes and imported names under ``nodes``.

    String constants do not count: the benchmark's tracer names each
    function it wraps by string, and skips a name the package no longer
    defines, so naming a function there is no use of it.
    """
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out |= {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_has_a_caller(module):
    """An exported name is used by another package module (``__init__``
    aside), by the benchmark harness, or by its own module outside its
    definition; a name that only tests reach is not package surface.
    ``__all__`` lists themselves do not count as use."""
    root = Path(mkvflow.__file__).resolve().parents[2]
    callers = [p for p in Path(mkvflow.__file__).parent.glob("*.py")
               if p.name != "__init__.py" and p != Path(module.__file__)]
    callers += sorted((root / "perfbench").glob("*.py"))
    elsewhere = _referenced_names(node for p in callers
                                  for node in ast.parse(p.read_text()).body
                                  if not _is_all(node))
    own = [node for node in ast.parse(Path(module.__file__).read_text()).body
           if not _is_all(node)]
    uncalled = []
    for name in getattr(module, "__all__", ()):
        outside = [node for node in own if getattr(node, "name", None) != name]
        if name not in elsewhere | _referenced_names(outside):
            uncalled.append(name)
    assert not uncalled, f"{module.__name__} exports names nothing calls: {uncalled}"


def _module_level_privates(tree) -> dict:
    """Each private name a module defines at top level, with its definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return {name: node for name, node in out.items()
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_helper_has_a_caller():
    """A private function, class or constant of a package module is used by
    its own module outside its definition or by another package module; a
    helper that only tests reach, or that a refactor left behind, fails."""
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(mkvflow.__file__).parent.glob("*.py"))}
    uncalled = []
    for name, tree in trees.items():
        elsewhere = _referenced_names(t for other, t in trees.items() if other != name)
        for helper, definition in _module_level_privates(tree).items():
            own = _referenced_names(node for node in tree.body if node is not definition)
            if helper not in elsewhere | own:
                uncalled.append(f"{name}:{helper}")
    assert not uncalled, f"private names nothing in the package uses: {uncalled}"
