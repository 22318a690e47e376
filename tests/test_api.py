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
from quantum_tweezers import Constant, optimize_pulse, pulse_area
assert pulse_area(Constant(3.0), 0.0, 2.0) == 6.0
result = optimize_pulse(lambda params: -(params["x"] - 0.3) ** 2, {"x": (0.0, 1.0)}, 10)
assert result.n_evaluations == 10, result
"""


def test_importing_the_package_leaves_optimizer_integrator_and_pool_unloaded():
    src = Path(quantum_tweezers.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
