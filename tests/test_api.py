"""The public surface: each module's __all__ and the package exports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantum_tweezers

MODULES = sorted(m.name for m in pkgutil.iter_modules(quantum_tweezers.__path__))


def _public(module):
    """A module's __all__, or without one the names a star import takes."""
    return getattr(module, "__all__",
                   [name for name in vars(module) if not name.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"quantum_tweezers.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_exports_are_public_in_their_home_module():
    exports = quantum_tweezers._EXPORTS
    assert exports
    stale = [f"{home}.{name}" for name, home in exports.items()
             if name not in _public(importlib.import_module(f"quantum_tweezers.{home}"))]
    assert stale == []


def test_each_export_is_its_home_module_object():
    for name, home in quantum_tweezers._EXPORTS.items():
        module = importlib.import_module(f"quantum_tweezers.{home}")
        assert getattr(quantum_tweezers, name) is getattr(module, name), name


def test_dir_and_all_list_every_export():
    assert quantum_tweezers.__all__ == list(quantum_tweezers._EXPORTS)
    assert set(quantum_tweezers._EXPORTS) <= set(dir(quantum_tweezers))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quantum_tweezers.no_such_name
    assert not hasattr(quantum_tweezers, "no_such_name")


def test_a_star_import_binds_every_export():
    namespace = {}
    exec("from quantum_tweezers import *", namespace)
    assert {name: namespace.get(name) for name in quantum_tweezers._EXPORTS} == {
        name: getattr(quantum_tweezers, name) for name in quantum_tweezers._EXPORTS}


# perfbench/setup_probe.py's calls in a fresh interpreter: they load only the
# modules on their path, and a submodule still loads as an attribute
_SETUP_IMPORTS = """
import sys
import quantum_tweezers as qt
preset = qt.get_preset("fig4")
model = qt.build_level_model(qt.derive_all(preset.system), n_max=2)
qt.propagate(model, qt.build_pi_pulse(model, (0, 1), preset.pi.t_omega))
loaded = sorted(name for name in sys.modules if name.startswith("quantum_tweezers."))
assert loaded == ["quantum_tweezers." + name for name in (
    "constants", "exceptions", "levels", "params", "presets", "propagator", "pulses")
], loaded
assert qt.experiments is sys.modules["quantum_tweezers.experiments"]
"""


def test_the_setup_path_leaves_experiments_analytics_config_and_cli_unloaded():
    src = Path(quantum_tweezers.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", _SETUP_IMPORTS],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# run in a fresh interpreter, so no other test has imported these yet
_LAZY_IMPORTS = """
import sys
import quantum_tweezers
import quantum_tweezers.cli
loaded = [name for name in ("scipy.optimize", "scipy.integrate",
                            "concurrent.futures.process") if name in sys.modules]
assert loaded == [], loaded
from quantum_tweezers import optimize_pulse
result = optimize_pulse(lambda params: -(params["x"] - 0.3) ** 2, {"x": (0.0, 1.0)}, 10)
assert result.n_evaluations == 10, result
"""


def test_importing_the_package_leaves_optimizer_integrator_and_pool_unloaded():
    src = Path(quantum_tweezers.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# an optimize run in a fresh interpreter, on the config and out dir in argv
_OPTIMIZE_WITHOUT_SCIPY = """
import sys
from quantum_tweezers.cli import main
assert main(["optimize", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert loaded == [], loaded
"""


def test_an_optimize_run_loads_no_scipy(tmp_path):
    # the Nelder-Mead loop is the package's own: an optimize run loads no
    # part of scipy
    src = Path(quantum_tweezers.__file__).parents[1]
    config = Path(__file__).parent / "corpus" / "configs" / "optimize-pi.json"
    run = subprocess.run([sys.executable, "-c", _OPTIMIZE_WITHOUT_SCIPY,
                          str(config), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "optimize.json").is_file()


# numpy is the one runtime dependency: scipy is a test extra, and config
# checks a config's keys and types itself
@pytest.mark.parametrize("package", ["scipy", "jsonschema"])
def test_no_module_imports(package):
    imports = []
    for path in sorted(Path(quantum_tweezers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] == package]
    assert imports == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads.

    A name in the module's __all__ is read; an alias on a line marked
    `# noqa: F401` and `from __future__` imports are exempt.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # MODULES leaves out the package __init__, whose imports are re-exports
    path = Path(quantum_tweezers.__file__).with_name(f"{name}.py")
    assert _unused_imports(path) == []
