"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  Grids, seeds, and windows are pinned here; nothing is deferred to
later calibration.  Criteria 6 and 7 carry the grid solves and dominate the
runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from borninfeld.cli import main as cli_main
from borninfeld.conditions import check_global, check_refined, check_two_charge
from borninfeld.core import (
    ChargeConfig,
    asymptotics_spec,
    best_constant_cbar,
    sphere_measure,
)
from borninfeld.field import (
    _cell_s,
    assemble_problem,
    compare_solutions,
    discrete_energy,
    discrete_energy_gradient,
    extremum_report,
    minimize_energy,
)
from borninfeld.quad import (
    exact_radial_profile,
    flux_identity_residual,
    refined_constant_ctilde,
    shape_constant_A,
)
from borninfeld.radial import (
    approx_radial_profile,
    cone_tail_energy,
    fit_singularity,
)

OMEGA2 = sphere_measure(3)

pytestmark = pytest.mark.filterwarnings("ignore:boundary clearance")


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_exact_constants():
    start = time.monotonic()
    cbar = best_constant_cbar(3)
    ok_cbar = abs(cbar - 2 * math.pi / 3) <= 1e-12
    ok_energy = abs(cone_tail_energy(0.5, 3) * OMEGA2 - cbar) <= 1e-10
    grid = np.linspace(0.5, 1.0, 10_000)
    energies = np.array([cone_tail_energy(float(R), 3) for R in grid])
    argmin = float(grid[int(np.argmin(energies))])
    resolution = float(grid[1] - grid[0])
    ok_argmin = abs(argmin - 0.5) <= resolution
    elapsed = time.monotonic() - start
    ok = ok_cbar and ok_energy and ok_argmin and elapsed < 1.0
    report_line(
        1, ok,
        f"Cbar(3)=2pi/3 to 1e-12 ({ok_cbar}), omega2*E(1/2)=Cbar to 1e-10 "
        f"({ok_energy}), argmin E at R=0.5 ({ok_argmin}), {elapsed:.2f}s",
    )


def test_criterion_2_quadrature_constants():
    start = time.monotonic()
    oracle = math.gamma(0.25) ** 2 / (4 * math.sqrt(math.pi)) / math.sqrt(OMEGA2)
    A3 = shape_constant_A(3)
    ok_A = abs(A3 - oracle) <= 1e-8
    ctilde = refined_constant_ctilde(3)
    ratio = ctilde / OMEGA2
    ok_ratio = abs(ratio - 0.097) <= 0.001
    ok_half = ctilde >= best_constant_cbar(3) / 2
    elapsed = time.monotonic() - start
    ok = ok_A and ok_ratio and ok_half and elapsed < 5.0
    report_line(
        2, ok,
        f"A(3)={A3:.9f} vs Beta oracle to 1e-8 ({ok_A}), "
        f"Ctilde/omega2={ratio:.5f} in 0.097+-0.001 ({ok_ratio}), "
        f"Ctilde>=Cbar/2 ({ok_half}), {elapsed:.2f}s",
    )


def test_criterion_3_certificate_thresholds():
    start = time.monotonic()
    # independent re-derivations of the three unit-dipole thresholds
    global_lhs = math.sqrt(3.0 / OMEGA2) * 2.0 * 2.0
    refined_lhs = (0.097 * OMEGA2) ** -0.5 * 2.0
    two_lhs = 2.0 * math.gamma(0.25) ** 2 / (4 * math.sqrt(math.pi)) / math.sqrt(OMEGA2)
    refs = {"global": 1.95441, "refined": 1.81150, "two": 1.04605}
    ok_digits = (
        abs(global_lhs - refs["global"]) < 5e-5 * refs["global"]
        and abs(refined_lhs - refs["refined"]) < 5e-5 * refs["refined"]
        and abs(two_lhs - refs["two"]) < 5e-5 * refs["two"]
    )
    dipole = ChargeConfig(3, [((0, 0, 0), 1.0), ((2.0, 0, 0), -1.0)])
    v_global = check_global(dipole)
    v_refined = check_refined(dipole, 0.097 * OMEGA2)
    v_two = check_two_charge(dipole)
    ok_module = (
        abs(v_global.lhs - global_lhs) < 1e-12
        and abs(v_refined.lhs - refined_lhs) < 1e-12
        and abs(v_two.lhs - two_lhs) < 1e-8
    )
    ok_order = v_two.lhs < v_refined.lhs < v_global.lhs
    elapsed = time.monotonic() - start
    ok = ok_digits and ok_module and ok_order and elapsed < 1.0
    report_line(
        3, ok,
        f"thresholds {v_global.lhs:.5f}/{v_refined.lhs:.5f}/{v_two.lhs:.5f} "
        f"reproduce 1.95441/1.81150/1.04605 to 4 digits ({ok_digits}), module "
        f"agrees ({ok_module}), ordering two<refined<global ({ok_order}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_exact_radial_solution():
    start = time.monotonic()
    # 1e3 radii where 1 - u'^2 is resolvable in binary64; the light-cone
    # probe at 1e-6 is checked pointwise (its slope rounds to 1).
    grid = np.geomspace(1e-2, 1e3, 1000)
    profile = exact_radial_profile(1.0, 3, grid)
    flux_ok = float(np.max(np.abs(flux_identity_residual(profile)))) <= 1e-10
    ok_u0 = abs(profile.u0 - shape_constant_A(3)) <= 1e-6
    ok_cone = bool(np.all(np.abs(profile.du) < 1.0))
    probe = exact_radial_profile(1.0, 3, np.array([1e-6, 1.0]))
    ok_probe = abs(probe.du[0]) > 1.0 - 1e-4
    elapsed = time.monotonic() - start
    ok = flux_ok and ok_u0 and ok_cone and ok_probe and elapsed < 5.0
    report_line(
        4, ok,
        f"flux identity at 1e3 radii to 1e-10 ({flux_ok}), u(0+)=A(3) to 1e-6 "
        f"({ok_u0}), |u'|<1 on grid ({ok_cone}), |u'(1e-6)|>1-1e-4 "
        f"({ok_probe}), {elapsed:.2f}s",
    )


def test_criterion_5_approximant_asymptotics():
    start = time.monotonic()
    spec = asymptotics_spec(4, 3, 1.0)
    ok_signs = True
    ok_fits = True
    details = []
    for a in (1.0, -1.0):
        profile = approx_radial_profile(a, 4, 3, np.geomspace(1e-7, 1e3, 1500))
        u_fit, du_fit = fit_singularity(profile, (1e-6, 1e-4))
        ok_fits &= abs(u_fit.exponent - 5 / 7) <= 0.01 * (5 / 7)
        ok_fits &= abs(abs(u_fit.coefficient) - abs(spec.K)) <= 0.02 * abs(spec.K)
        ok_fits &= abs(du_fit.exponent - (-2 / 7)) <= 0.01 * (2 / 7)
        ok_fits &= abs(du_fit.coefficient - spec.Kprime) <= 0.02 * spec.Kprime
        ok_signs &= u_fit.coefficient * a < 0
        details.append(f"a={a:+.0f}: exp {u_fit.exponent:.5f}, |K| {abs(u_fit.coefficient):.5f}")
    K_values = [abs(asymptotics_spec(m, 3, 1.0).K) for m in range(4, 65)]
    diffs = [b - a for a, b in zip(K_values, K_values[1:])]
    ok_K_monotone = all(d < 0 for d in diffs) and all(v > 1 for v in K_values)
    elapsed = time.monotonic() - start
    ok = ok_fits and ok_signs and ok_K_monotone and elapsed < 30.0
    report_line(
        5, ok,
        f"{'; '.join(details)}; fits within 1%/2% ({ok_fits}), sign(K) "
        f"opposite to a ({ok_signs}), |K_m| m=4..64 monotone toward 1 "
        f"({ok_K_monotone}), {elapsed:.1f}s",
    )


def test_criterion_6_grid_vs_radial_oracle():
    start = time.monotonic()
    config = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0)])
    errors = {}
    for h in (0.25, 0.125):
        problem = assemble_problem(config, -4, 4, h, 2, "radial-superposition")
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        n = problem.shape[0]
        axis = -4.0 + h * np.arange(n)
        X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
        R = np.sqrt(X**2 + Y**2 + Z**2)
        mask = (R >= 0.5) & (R <= 2.0)
        radii = np.unique(np.round(R[mask], 12))
        oracle = approx_radial_profile(1.0, 2, 3, radii)
        lookup = dict(zip(radii.tolist(), oracle.u.tolist()))
        reference = np.array([lookup[round(r, 12)] for r in R[mask].ravel()])
        errors[h] = float(np.max(np.abs(result.values[mask].ravel() - reference)))
    ratio = errors[0.25] / errors[0.125]
    elapsed = time.monotonic() - start
    ok = ratio >= 1.5 and elapsed < 300.0
    report_line(
        6, ok,
        f"Linf vs radial oracle on r in [0.5,2]: {errors[0.25]:.3e} (h=0.25) "
        f"-> {errors[0.125]:.3e} (h=0.125), ratio {ratio:.2f} >= 1.5, "
        f"{elapsed:.0f}s",
    )


def _sample_cluster(rng, n, h=0.25, box_half=4.0):
    """Random n-charge node-snapped cluster satisfying the assembly guards."""
    while True:
        pts = []
        tries = 0
        while len(pts) < n and tries < 400:
            tries += 1
            p = np.round(rng.uniform(-1.6, 1.6, 3) / h) * h
            if all(np.linalg.norm(p - q) >= 2.0 + h for q in pts):
                pts.append(p)
        if len(pts) < n:
            continue
        if n >= 2:
            spacing = min(
                float(np.linalg.norm(a - b))
                for i, a in enumerate(pts)
                for b in pts[i + 1 :]
            )
            clearance = box_half - max(float(np.max(np.abs(p))) for p in pts)
            if clearance < spacing:
                continue
        return [tuple(float(x) for x in p) for p in pts]


def test_criterion_7_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    energies = []

    # -- comparison principle on 20 random ordered charge-vector pairs
    comparison_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        pts = _sample_cluster(rng, n)
        a1 = rng.uniform(0.3, 1.5, n) * rng.choice([-1.0, 1.0], n)
        a2 = a1 - rng.uniform(0.2, 0.8, n)
        a2[a2 == 0.0] = -0.1
        cfg1 = ChargeConfig(3, [(p, float(a)) for p, a in zip(pts, a1)])
        cfg2 = ChargeConfig(3, [(p, float(a)) for p, a in zip(pts, a2)])
        f1 = minimize_energy(assemble_problem(cfg1, -4, 4, 0.25, 2, "zero"), tol=1e-9)
        f2 = minimize_energy(assemble_problem(cfg2, -4, 4, 0.25, 2, "zero"), tol=1e-9)
        report = compare_solutions(f1, f2)
        comparison_ok &= report.passed and f1.converged and f2.converged
        energies += [f1.energy, f2.energy]

    # -- extremum classification on 10 random dipole/triple configurations
    extremum_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 4))
        pts = _sample_cluster(rng, n)
        strengths = rng.uniform(0.4, 1.5, n) * rng.choice([-1.0, 1.0], n)
        cfg = ChargeConfig(3, [(p, float(a)) for p, a in zip(pts, strengths)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 2, "radial-superposition")
        result = minimize_energy(problem, tol=1e-9)
        records = extremum_report(result)
        extremum_ok &= all(r.matches_charge_sign for r in records)
        energies.append(result.energy)

    # -- every nonzero-charge solve has negative energy
    energy_ok = all(e < 0 for e in energies)

    # -- objective gradient vs centered finite differences, 20 random points
    problem = assemble_problem(
        ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0)]), -4, 4, 0.25, 2, "zero"
    )
    U = problem.initial_guess()
    interior = problem.interior_mask()
    U[interior] = rng.normal(0.0, 0.05, int(interior.sum()))
    _, grad = discrete_energy_gradient(problem, U)
    fd_ok = True
    for _ in range(20):
        idx = tuple(int(rng.integers(1, s - 1)) for s in problem.shape)
        best = math.inf
        for eps in (1e-4, 1e-5, 1e-6, 1e-7):
            up, um = U.copy(), U.copy()
            up[idx] += eps
            um[idx] -= eps
            fd = (discrete_energy(problem, up) - discrete_energy(problem, um)) / (
                2 * eps
            )
            best = min(best, abs(fd - grad[idx]) / max(1e-12, abs(grad[idx])))
        fd_ok &= best <= 1e-5

    # -- gradient/sup-norm inequality on single-charge fields computed in
    #    the exact-model regime (top of the order ladder).  Low orders are
    #    excluded on purpose: the order-m field is not 1-Lipschitz near the
    #    charge and the continuum inequality genuinely fails for them.
    emb_ok = True
    cbar = best_constant_cbar(3)
    for m in (8, 16):
        problem = assemble_problem(
            ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0)]), -4, 4, 0.25, m,
            "radial-superposition",
        )
        result = minimize_energy(problem, tol=1e-9)
        s, _, _, _ = _cell_s(result.values, problem.h)
        grad_sq = problem.h**3 * float(np.sum(s))
        sup = float(np.max(np.abs(result.values)))
        emb_ok &= grad_sq >= 0.95 * cbar * sup**3
        energies.append(result.energy)

    elapsed = time.monotonic() - start
    ok = comparison_ok and extremum_ok and energy_ok and fd_ok and emb_ok
    ok = ok and elapsed < 600.0
    report_line(
        7, ok,
        f"comparison 20/20 ({comparison_ok}), extremum 10/10 ({extremum_ok}), "
        f"negative energies ({energy_ok}), FD gradient 1e-5 ({fd_ok}), "
        f"gradient/sup inequality at m=8,16 ({emb_ok}), {elapsed:.0f}s",
    )


def test_criterion_8_determinism(tmp_path):
    start = time.monotonic()
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "dim": 3,
                "charges": [
                    {"pos": [0.0, 0.0, 0.0], "a": 1.0},
                    {"pos": [2.0, 0.0, 0.0], "a": -1.0},
                ],
                "box": {"lo": -4.0, "hi": 4.0, "h": 0.25},
                "order_m": 2,
                "boundary_rule": "radial-superposition",
            }
        )
    )
    identical = True
    for command in (
        ["constants", "--dim", "3", "--orders", "4,8", "--seed", "3"],
        ["check", str(config), "--seed", "3"],
        ["radial", "--a", "1", "--order", "4", "--points", "300", "--rmax", "10",
         "--fit-window", "1e-6", "1e-4", "--seed", "3"],
        ["solve", str(config), "--seed", "3"],
    ):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{command[0]}_{run}"
            code = cli_main(command + ["--out", str(out)])
            assert code == 0, f"{command[0]} exited {code}"
            payload = b"".join(
                sorted(p.read_bytes() for p in out.iterdir() if p.is_file())
            )
            outputs.append(payload)
        identical &= outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    report_line(
        8, identical,
        f"byte-identical reports for constants/check/radial/solve "
        f"with fixed seed, {elapsed:.0f}s",
    )
