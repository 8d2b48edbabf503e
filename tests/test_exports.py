"""Tests for the package's public names: every export points at something.

Each module's public names are pinned, and so are the settable values:
each subcommand's options and each defaulted parameter of a public
function, so a change that adds or drops one shows it in this file's diff.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import borninfeld
from borninfeld import cli

PUBLIC_NAMES = {
    "core": {
        "Charge", "ChargeConfig", "AsymptoticsSpec", "InputError", "GuaranteeRangeError",
        "taylor_coefficients", "sphere_measure", "best_constant_cbar", "asymptotics_spec",
        "min_order_for_guarantee",
    },
    "quad": {
        "AccuracyError", "RadialProfile", "adaptive_gauss_kronrod", "shape_constant_A",
        "refined_constant_ctilde", "exact_radial_profile", "flux_identity_residual",
    },
    "conditions": {
        "VerdictLevel", "PairVerdict", "Verdict", "NotApplicableError", "check_global",
        "check_refined", "check_two_charge",
    },
    "radial": {
        "ConeTailCandidate", "FitResult", "flux_gradient_magnitude",
        "approx_radial_profile", "fit_singularity", "cone_tail_energy", "spacelike_ratio",
    },
    "field": {
        "DiscreteProblem", "GridField", "ComparisonReport", "ExtremumRecord",
        "SegmentRecord", "GradientSupReport", "assemble_problem", "discrete_energy",
        "discrete_energy_gradient", "minimize_energy", "compare_solutions",
        "extremum_report", "segment_report", "gradient_sup",
    },
    "cli": {"main"},
}

MODULES = list(PUBLIC_NAMES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"borninfeld.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == PUBLIC_NAMES[name]


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
    # the grid solver's names resolve on first use (module __getattr__)
    field = importlib.import_module("borninfeld.field")
    assert set(borninfeld._FIELD_NAMES) == {
        "DiscreteProblem", "GridField", "assemble_problem", "compare_solutions",
        "extremum_report", "gradient_sup", "minimize_energy", "segment_report",
    }
    for name in borninfeld._FIELD_NAMES:
        assert name in field.__all__, f"field.{name}"
        assert getattr(borninfeld, name) is getattr(field, name)
    assert borninfeld.field is field
    with pytest.raises(AttributeError, match="no_such_name"):
        borninfeld.no_such_name
    star = {}
    exec("from borninfeld import *", star)
    assert {"field", *borninfeld._FIELD_NAMES, "core", "minimize_energy"} <= set(star)


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
    "field.assemble_problem.boundary_rule",
    "field.minimize_energy.tol",
    "field.minimize_energy.max_iter",
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
