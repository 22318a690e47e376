"""The public surface: each module's __all__ and the package exports."""

import ast
import importlib
import pkgutil
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
