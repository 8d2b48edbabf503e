"""Output checks of one CLI call, run outside the timed region.

Each check returns ``None`` when the call's exit code and outputs are right
and a one-line reason otherwise.  Checks call the package's own functions,
so they must run while the tracer is uninstalled.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from borninfeld import cli, field
from borninfeld.core import (
    asymptotics_spec,
    best_constant_cbar,
    min_order_for_guarantee,
    sphere_measure,
)

# Relative agreement of a recomputed energy or residual with the report: both
# come from the same arithmetic on the same 17-digit values.
RECOMPUTE_RTOL = 1e-12
# The field-exponent fit must match the asymptotic prediction to 1% for the
# guaranteed orders.  The slope fit converges more slowly (its default window
# is pre-asymptotic for m >= 8, 2.5% off at m = 16 on the seed code), so it is
# held to 3%.
U_EXPONENT_RTOL = 0.01
DU_EXPONENT_RTOL = 0.03


def _report(out_dir: Path) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    cli.validate_report(report)
    return report


def check_solve(op, rc: int, out_dir: Path) -> str | None:
    if rc != 0:
        return f"solve exit code {rc}"
    res = _report(out_dir)["results"]
    if not res["converged"]:
        return "solve did not converge"
    cfg = op.config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problem = field.assemble_problem(
            cli.load_config(op.config_path, need_box=True)["config"],
            cfg["box"]["lo"], cfg["box"]["hi"], cfg["box"]["h"], cfg["order_m"],
            cfg["boundary_rule"],
        )
    data = np.loadtxt(out_dir / "field.csv", delimiter=",", skiprows=1)
    if data.shape != (problem.n_nodes, 4):
        return f"field.csv has shape {data.shape}, expected ({problem.n_nodes}, 4)"
    idx = np.indices(problem.shape).reshape(3, -1).T
    coords = np.asarray(problem.lo) + problem.h * idx
    if not np.allclose(data[:, :3], coords, rtol=0.0, atol=1e-12):
        return "field.csv coordinates do not follow the grid"
    U = data[:, 3].reshape(problem.shape)
    energy, grad = field.discrete_energy_gradient(problem, U)
    residual = float(np.max(np.abs(grad[problem.interior_mask()])))
    if not math.isclose(energy, res["energy"], rel_tol=RECOMPUTE_RTOL):
        return f"energy {res['energy']!r} differs from recomputed {energy!r}"
    if not math.isclose(residual, res["grad_norm"], rel_tol=RECOMPUTE_RTOL):
        return f"residual {res['grad_norm']!r} differs from recomputed {residual!r}"
    if residual > op.expect["tol"]:
        return f"recomputed residual {residual:g} exceeds tol {op.expect['tol']:g}"
    if len(res["extremum"]) != len(problem.charges):
        return "extremum report does not cover every charge"
    for rec in res["extremum"]:
        expected = "max" if rec["strength"] > 0 else "min"
        if rec["kind"] != expected or not rec["matches_charge_sign"]:
            return f"charge {rec['strength']:+g} at {rec['node']} is a {rec['kind']}"
    return None


def check_radial(op, rc: int, out_dir: Path) -> str | None:
    if rc != 0:
        return f"radial exit code {rc}"
    report = _report(out_dir)
    res = report["results"]
    rows = (out_dir / "profile.csv").read_text().count("\n") - 1
    if rows != res["n_samples"] or rows != report["inputs"]["points"]:
        return f"profile.csv has {rows} rows, report says {res['n_samples']}"
    m, dim, a = op.expect["m"], op.expect["dim"], op.expect["a"]
    guaranteed = 2 * m > max(dim, 2.0 * dim / (dim - 2))
    if res["guaranteed"] != guaranteed:
        return f"guaranteed flag {res['guaranteed']} for m={m}, N={dim}"
    if guaranteed:
        spec = asymptotics_spec(m, dim, a)
        for key, predicted, rtol in (
            ("u_fit", spec.u_exponent, U_EXPONENT_RTOL),
            ("du_fit", spec.grad_exponent, DU_EXPONENT_RTOL),
        ):
            got = res[key]["exponent"]
            if abs(got - predicted) > rtol * abs(predicted):
                return f"{key} exponent {got:.6g} vs predicted {predicted:.6g}"
    return None


def check_check(op, rc: int, out_dir: Path) -> str | None:
    if rc not in (0, 1):
        return f"check exit code {rc}"
    res = _report(out_dir)["results"]
    if res["conclusive"] != (rc == 0):
        return f"exit code {rc} disagrees with conclusive={res['conclusive']}"
    rules = [v["rule"] for v in res["verdicts"]]
    if len(rules) < 2 or len(set(rules)) != len(rules):
        return f"unexpected verdict list {rules}"
    return None


def check_constants(op, rc: int, out_dir: Path) -> str | None:
    if rc != 0:
        return f"constants exit code {rc}"
    res = _report(out_dir)["results"]
    dim = op.expect["dim"]
    if not math.isclose(res["sphere_measure"], sphere_measure(dim), rel_tol=1e-15):
        return "sphere measure differs from the closed form"
    if not math.isclose(res["best_constant"], best_constant_cbar(dim), rel_tol=1e-15):
        return "best constant differs from the closed form"
    if res["min_guaranteed_order"] != min_order_for_guarantee(dim):
        return "minimum guaranteed order differs"
    if [o["m"] for o in res["orders"]] != op.expect["orders"]:
        return "orders in the report differ from the request"
    if not all(o["guaranteed"] for o in res["orders"]):
        return "a requested guaranteed order is flagged unguaranteed"
    return None


CHECKS = {
    "solve": check_solve,
    "radial": check_radial,
    "check": check_check,
    "constants": check_constants,
}
