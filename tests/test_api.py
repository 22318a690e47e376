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
    tree = ast.parse(Path(quantum_tweezers.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = []
    for node in imports:
        module = importlib.import_module(f"quantum_tweezers.{node.module}")
        stale += [f"{node.module}.{alias.name}" for alias in node.names
                  if alias.name not in _public(module)]
    assert stale == []


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


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # config imports jsonschema when it first validates a config
    src = Path(quantum_tweezers.__file__).parents[1]
    code = ("import sys, quantum_tweezers.cli; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'jsonschema']")
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
