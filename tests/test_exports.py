"""Tests for the package's public names: every export points at something."""

import ast
import importlib
from pathlib import Path

import pytest

import borninfeld

MODULES = ["core", "quad", "conditions", "radial", "field", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"borninfeld.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_names_in_their_modules_all():
    tree = ast.parse(Path(borninfeld.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        module = importlib.import_module(f"borninfeld.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(borninfeld, alias.name) is getattr(module, alias.name)
