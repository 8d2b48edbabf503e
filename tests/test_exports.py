"""Tests for the package's public names: every export points at something.

The settable values are pinned too: each subcommand's options and each
defaulted parameter of a public function, so a change that adds or drops
one shows it in this file's diff.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import borninfeld
from borninfeld import cli

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


OPTIONS = {
    "constants": {"--dim", "--orders", "--override-guarantee", "--out", "--seed"},
    "check": {"--out", "--seed"},
    "radial": {
        "--a", "--dim", "--order", "--points", "--rmin", "--rmax", "--fit-window",
        "--out", "--seed",
    },
    "solve": {"--max-iter", "--out", "--seed"},
}

DEFAULTED_PARAMETERS = {
    "core.asymptotics_spec.override_guarantee",
    "quad.adaptive_gauss_kronrod.abs_tol",
    "quad.adaptive_gauss_kronrod.max_subdivisions",
    "quad.adaptive_gauss_kronrod.rel_tol",
    "quad.integrate_decaying.abs_tol",
    "quad.integrate_decaying.max_subdivisions",
    "quad.integrate_decaying.rel_tol",
    "field.assemble_problem.boundary_rule",
    "field.minimize_energy.tol",
    "field.minimize_energy.max_iter",
    "field.minimize_energy.x0",
    "field.gradient_sup.exclusion_radius",
    "cli.main.argv",
}


def test_subcommand_options_are_pinned():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert options == OPTIONS


def test_defaulted_parameters_are_pinned():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"borninfeld.{name}")
        for export in module.__all__:
            function = getattr(module, export)
            if inspect.isfunction(function):
                found |= {
                    f"{name}.{export}.{p.name}"
                    for p in inspect.signature(function).parameters.values()
                    if p.default is not p.empty
                }
    assert found == DEFAULTED_PARAMETERS
