"""Tests for the grid solver: assembly, energy, minimization, reports.

Grids here are mostly small (9^3 to 17^3) so the whole module runs in
seconds; only the Newton solver's stress and mesh-independence tests use
the spec-scale 33^3 and 65^3 grids that the acceptance suite exercises.
"""

import math
import warnings

import numpy as np
import pytest

from borninfeld import core
from borninfeld.core import ChargeConfig, InputError, _Density, _sigma_series
from borninfeld.core import taylor_coefficients
from borninfeld import field
from borninfeld.field import (
    DiscreteProblem,
    GridField,
    _Buffers,
    _cell_s,
    _NewtonModel,
    _poisson_inverse,
    _preconditioner,
    assemble_problem,
    compare_solutions,
    discrete_energy,
    discrete_energy_gradient,
    extremum_report,
    gradient_sup,
    minimize_energy,
    segment_report,
)
from borninfeld.quad import _single_charge_field, exact_radial_profile

SINGLE = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0)])
DIPOLE = ChargeConfig(3, [((-1.0, 0, 0), 1.0), ((1.0, 0, 0), -1.0)])


def small_problem(m=2, rule="zero", h=0.25, half=1.0, config=SINGLE):
    return assemble_problem(config, -half, half, h, m, rule)


# The 3-d stencils that the flat kernels of ``field`` replaced, kept as their
# oracle: the flat kernels must reproduce them bit for bit.


def _shifted(axis, part):
    index = [slice(None)] * 3
    index[axis] = part
    return tuple(index)


_LO, _HI = slice(None, -1), slice(1, None)


def _gather(edges, axis):
    for d in range(3):
        if d != axis:
            edges = edges[_shifted(d, _LO)] + edges[_shifted(d, _HI)]
    return edges


def _scatter(cells, axis):
    for d in range(3):
        if d != axis:
            shape = list(cells.shape)
            shape[d] += 1
            out = np.zeros(shape)
            out[_shifted(d, _LO)] = cells
            out[_shifted(d, _HI)] += cells
            cells = out
    return cells


def _divergence(fluxes, shape):
    out = np.zeros(shape)
    for d, f in enumerate(fluxes):
        out[_shifted(d, _HI)] += f
        out[_shifted(d, _LO)] -= f
    return out


def cell_s_3d(U, h):
    diffs = [np.diff(U, axis=d) for d in range(3)]
    s = sum(_gather(e * e, d) for d, e in enumerate(diffs)) * (0.25 / (h * h))
    return (s, *diffs)


def newton_model_3d(problem, U):
    h = problem.h
    s, *diffs = cell_s_3d(U, h)
    # the density is pinned by the evaluator's own tests against Horner
    density = _Density(s.ravel(), taylor_coefficients(problem.m))
    W, sigma, dsigma = (
        x.reshape(s.shape) for x in (density.energy(), *density.sigma())
    )
    weights = [(h / 4.0) * _scatter(sigma, d) for d in range(3)]
    couple = dsigma / (8.0 * h)
    energy = h**3 * float(np.sum(W))
    grad = _divergence([w * e for w, e in zip(weights, diffs)], U.shape)
    for node, a in problem.charges:
        energy -= a * float(U[node])
        grad[node] -= a
    node_sigma = sigma
    for d in range(3):
        node_sigma = node_sigma[_shifted(d, _LO)] + node_sigma[_shifted(d, _HI)]
    node_sigma *= 0.125

    def hessp(V):
        vdiffs = [np.diff(V, axis=d) for d in range(3)]
        P = couple * sum(
            _gather(e * v, d) for d, (e, v) in enumerate(zip(diffs, vdiffs))
        )
        return _divergence(
            [
                w * v + _scatter(P, d) * e
                for d, (w, e, v) in enumerate(zip(weights, diffs, vdiffs))
            ],
            V.shape,
        )

    return energy, grad, hessp, node_sigma


# The start and the boundary data as they were evaluated from float node
# coordinates, kept as the oracle of the integer-key start: on grids whose
# lo and h are dyadic the two agree bit for bit.


def float_distance_fields(coords, centres, strengths, reach):
    """Sum over charges of u_k(min(r_k, reach_k)) - u_k(reach_k) at ``coords``,
    from float distances, one field evaluation per distinct distance."""
    values = np.zeros(len(coords))
    for centre, a, rho in zip(centres, strengths, reach):
        dists = np.linalg.norm(coords - np.asarray(centre), axis=1)
        radii, inverse = np.unique(
            np.append(np.minimum(dists, rho), rho), return_inverse=True
        )
        u = _single_charge_field(a, 3, radii)[1][inverse]
        values += u[:-1] - u[-1]
    return values


def float_distance_start(problem):
    nodes = [node for node, _ in problem.charges]
    if problem.boundary_rule == "zero":
        reach = [
            problem.h * min(min(i, n - 1 - i) for i, n in zip(node, problem.shape))
            for node in nodes
        ]
    else:
        reach = [math.inf] * len(nodes)
    U = problem.boundary_values.copy()
    inner = problem.interior_mask()
    U[inner] = float_distance_fields(
        np.asarray(problem.lo) + problem.h * np.argwhere(inner),
        [problem.node_position(node) for node in nodes],
        [a for _, a in problem.charges],
        reach,
    )
    return U


class TestAssembly:
    def test_node_counts_and_snap(self):
        problem = assemble_problem(SINGLE, -4, 4, 0.125, 2, "zero")
        assert problem.shape == (65, 65, 65)
        assert problem.charges == (((32, 32, 32), 1.0),)
        assert problem.snap_distances == (0.0,)

    def test_snap_distance_recorded(self):
        cfg = ChargeConfig(3, [((0.05, 0.0, 0.0), 1.0)])
        problem = assemble_problem(cfg, -2, 2, 0.25, 2, "zero")
        assert problem.snap_distances[0] == pytest.approx(0.05, rel=1e-12)
        assert problem.charges[0][0] == (8, 8, 8)

    def test_superposition_boundary_matches_exact_profile(self):
        problem = assemble_problem(SINGLE, -2, 2, 0.5, 2, "radial-superposition")
        # corner and face-center radii
        corner = math.sqrt(3.0) * 2.0
        face = 2.0
        profile = exact_radial_profile(1.0, 3, np.array([face, corner]))
        values = problem.boundary_values
        assert values[0, 0, 0] == pytest.approx(profile.u[1], abs=1e-9)
        nx = problem.shape[0]
        mid = nx // 2
        assert values[0, mid, mid] == pytest.approx(profile.u[0], abs=1e-9)

    def test_spacing_must_divide_box(self):
        with pytest.raises(ValueError):
            assemble_problem(SINGLE, -1, 1, 0.3, 2, "zero")

    def test_charge_on_boundary_rejected(self):
        cfg = ChargeConfig(3, [((1.0, 0.0, 0.0), 1.0)])
        with pytest.raises(ValueError):
            assemble_problem(cfg, -1, 1, 0.25, 2, "zero")

    def test_too_coarse_for_pair_rejected(self):
        cfg = ChargeConfig(3, [((-0.5, 0, 0), 1.0), ((0.5, 0, 0), -1.0)])
        with pytest.raises(ValueError):
            assemble_problem(cfg, -4, 4, 0.25, 2, "zero")  # 4 nodes apart

    def test_box_too_small_rejected(self):
        cfg = ChargeConfig(3, [((-1.0, 0, 0), 1.0), ((1.0, 0, 0), -1.0)])
        with pytest.raises(ValueError):
            assemble_problem(cfg, -1.5, 1.5, 0.125, 2, "zero")

    def test_coincident_snaps_rejected(self):
        # a shared node is separation 0: rejected, nothing merged or warned
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0), ((0.05, 0.0, 0.0), 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"too coarse.*\(separation 0\)$"):
                assemble_problem(cfg, -2, 2, 0.25, 2, "zero")

    def test_cancelling_snaps_rejected(self):
        # opposite strengths that would sum to 0 on node (8, 8, 8)
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0), ((0.05, 0.0, 0.0), -1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"too coarse.*\(separation 0\)$"):
                assemble_problem(cfg, -2, 2, 0.25, 2, "radial-superposition")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: assemble_problem(SINGLE, -1, 1, math.nan, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1, 1, math.inf, 2, "zero"),
            lambda: assemble_problem(SINGLE, math.nan, 1, 0.25, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1, math.inf, 0.25, 2, "zero"),
            lambda: assemble_problem(SINGLE, (-1, -math.inf, -1), 1, 0.25, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1e300, 1e300, 1e300, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1e200, 1e200, 1e200, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1e120, 1e120, 1e120, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1, 1, 5e-324, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1e-200, 1e-200, 1e-200, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1, 1, 1e-50, 2, "zero"),
            lambda: assemble_problem(SINGLE, -1e300, 1e300, 1e-100, 2, "zero"),
            lambda: minimize_energy(small_problem(), tol=math.inf),
            lambda: minimize_energy(small_problem(), tol=math.nan),
            lambda: minimize_energy(small_problem(), tol=0.0),
        ],
        ids=[
            "h-nan", "h-inf", "lo-nan", "hi-inf", "lo-axis-inf",
            # h^3 overflows, edge / h overflows, 1/h^2 divides by zero
            "h-1e300", "h-1e200", "h-1e120", "h-5e-324", "h-1e-200",
            # more nodes than numpy can index, and an infinite node count
            "nodes-2e50", "nodes-inf",
            "tol-inf", "tol-nan", "tol-zero",
        ],
    )
    def test_non_finite_inputs_rejected(self, call):
        with pytest.raises(InputError, match="finite"):
            call()

    def test_dimension_restriction(self):
        cfg = ChargeConfig(4, [((0, 0, 0, 0), 1.0)])
        with pytest.raises(ValueError):
            assemble_problem(cfg, -1, 1, 0.25, 2, "zero")


@pytest.mark.filterwarnings("ignore:boundary clearance")
class TestInitialGuess:
    CONFIG = ChargeConfig(
        3, [((-0.6, 0.1, 0.05), 2.0), ((0.55, -0.2, 0.3), -0.7)]
    )

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    def test_boundary_is_the_boundary_data(self, rule):
        problem = assemble_problem(self.CONFIG, -2, 2, 0.125, 4, rule)
        boundary = ~problem.interior_mask()
        guess = problem.initial_guess()
        assert np.array_equal(guess[boundary], problem.boundary_values[boundary])
        if rule == "zero":
            assert np.all(guess[boundary] == 0.0)

    def test_charge_nodes_carry_central_value_plus_other_fields(self):
        problem = assemble_problem(
            self.CONFIG, -2, 2, 0.125, 4, "radial-superposition"
        )
        guess = problem.initial_guess()
        for node, a in problem.charges:
            expected = exact_radial_profile(a, 3, [1.0]).u0
            for other, b in problem.charges:
                if other != node:
                    r = np.linalg.norm(
                        problem.node_position(node) - problem.node_position(other)
                    )
                    expected += exact_radial_profile(b, 3, [r]).u[0]
            assert guess[node] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    @pytest.mark.parametrize(
        "charges, lo, hi, h",
        [
            ([((-0.6, 0.1, 0.05), 2.0), ((0.55, -0.2, 0.3), -0.7)], -2.0, 2.0, 0.125),
            (
                [((-1.0, 0.0, 0.0), 1.0), ((1.0, 0.25, -0.5), -2.0),
                 ((0.0, 1.75, 1.0), 0.5)],
                -4.0, 4.0, 0.25,
            ),
            ([((0.25, -0.5, 0.5), 1.3)], (-1.0, -1.5, -2.0), (1.0, 1.5, 2.0), 0.25),
            ([((0.0, 0.0, 0.0), 1.3)], -1.0, 1.0, 1.0),
            ([((-0.75, 0.25, 0.0), -2.0)], -1.0, 1.0, 0.25),
        ],
        ids=["class-config", "33-cube", "9x13x17", "3-cube", "one-from-a-face"],
    )
    def test_equals_the_float_distance_start_on_dyadic_grids(
        self, charges, lo, hi, h, rule
    ):
        config = ChargeConfig(3, charges)
        problem = assemble_problem(config, lo, hi, h, 4, rule)
        assert np.array_equal(problem.initial_guess(), float_distance_start(problem))
        # the boundary data keeps float distances to the unsnapped charges
        boundary = ~problem.interior_mask()
        expected = np.zeros(boundary.sum())
        if rule == "radial-superposition":
            expected = float_distance_fields(
                np.asarray(problem.lo) + h * np.argwhere(boundary),
                [c.pos for c in config.charges],
                [c.strength for c in config.charges],
                [math.inf] * config.n,
            )
        assert np.array_equal(problem.boundary_values[boundary], expected)

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    @pytest.mark.parametrize(
        "charges, half, h",
        [
            ([((0.0, 0.0, 0.0), 1.0)], 1.3, 0.1),
            ([((-0.6, 0.15, 0.0), 1.0), ((0.75, 0.0, 0.3), -0.7)], 3.3, 0.15),
        ],
        ids=["one-h0.1", "two-h0.15"],
    )
    def test_same_solve_as_the_float_distance_start_off_dyadic_grids(
        self, charges, half, h, rule, monkeypatch
    ):
        # node distances h sqrt(key) and float node coordinates differ in
        # the last bits here, and both starts lead to one minimizer
        problem = assemble_problem(ChargeConfig(3, charges), -half, half, h, 2, rule)
        old_start = float_distance_start(problem)
        assert np.max(np.abs(problem.initial_guess() - old_start)) <= 1e-15
        new = minimize_energy(problem)
        monkeypatch.setattr(DiscreteProblem, "initial_guess", lambda self: old_start.copy())
        old = minimize_energy(problem)
        assert new.converged and old.converged
        assert new.energy == pytest.approx(old.energy, rel=1e-15, abs=0.0)
        assert np.max(np.abs(new.values - old.values)) <= 1e-15
        assert new.cg_per_step == old.cg_per_step

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    @pytest.mark.parametrize("m", [2, 16])
    def test_same_minimizer_as_the_zero_interior_start(self, rule, m, monkeypatch):
        problem = assemble_problem(self.CONFIG, -2, 2, 0.125, m, rule)
        tol = 1e-9
        new = minimize_energy(problem, tol=tol)
        monkeypatch.setattr(
            DiscreteProblem, "initial_guess", lambda self: self.boundary_values.copy()
        )
        old = minimize_energy(problem, tol=tol)
        assert new.converged and old.converged
        assert new.energy == pytest.approx(old.energy, rel=1e-14)
        assert np.max(np.abs(new.values - old.values)) <= 10 * tol


class TestEnergyAndDerivatives:
    # each on a cube and on a box of three different node counts per axis
    @pytest.mark.parametrize(
        "lo, hi", [(-1.0, 1.0), ((-1.0, -0.75, -0.5), (1.0, 1.0, 0.75))],
        ids=["cube", "box"],
    )
    def test_gradient_matches_finite_differences(self, lo, hi):
        problem = assemble_problem(SINGLE, lo, hi, 0.25, 3, "zero")
        rng = np.random.default_rng(0)
        U = problem.initial_guess()
        interior = problem.interior_mask()
        U[interior] = rng.normal(0.0, 0.05, int(interior.sum()))
        _, grad = discrete_energy_gradient(problem, U)
        for _ in range(20):
            idx = tuple(rng.integers(1, s - 1) for s in problem.shape)
            best = np.inf
            for eps in (1e-4, 1e-5, 1e-6, 1e-7):
                up, um = U.copy(), U.copy()
                up[idx] += eps
                um[idx] -= eps
                fd = (discrete_energy(problem, up) - discrete_energy(problem, um)) / (
                    2 * eps
                )
                best = min(best, abs(fd - grad[idx]) / max(1e-12, abs(grad[idx])))
            assert best < 1e-5

    @pytest.mark.parametrize(
        "lo, hi", [(-1.0, 1.0), ((-1.0, -1.5, -2.0), (1.0, 1.5, 2.0))],
        ids=["cube", "box"],
    )
    def test_hessian_action_matches_gradient_differences(self, lo, hi):
        problem = assemble_problem(SINGLE, lo, hi, 0.5, 3, "zero")
        rng = np.random.default_rng(1)
        interior = problem.interior_mask()
        U = problem.initial_guess()
        U[interior] = rng.normal(0.0, 0.1, int(interior.sum()))
        V = np.zeros_like(U)
        V[interior] = rng.normal(0.0, 1.0, int(interior.sum()))
        eps = 1e-6
        _, gp = discrete_energy_gradient(problem, U + eps * V)
        _, gm = discrete_energy_gradient(problem, U - eps * V)
        fd = (gp - gm) / (2 * eps)
        hv = _NewtonModel(problem, U).complete().hessp(V)
        assert np.max(np.abs(hv - fd)) < 1e-7 * max(1.0, np.max(np.abs(hv)))

    def test_energy_strictly_convex_in_cell_gradients(self):
        problem = small_problem(m=4, h=0.5)
        rng = np.random.default_rng(2)
        interior = problem.interior_mask()
        for _ in range(10):
            U = problem.initial_guess()
            V = problem.initial_guess()
            U[interior] = rng.normal(0.0, 0.2, int(interior.sum()))
            V[interior] = rng.normal(0.0, 0.2, int(interior.sum()))
            theta = float(rng.uniform(0.1, 0.9))
            mid = theta * U + (1 - theta) * V
            lhs = discrete_energy(problem, mid)
            rhs = theta * discrete_energy(problem, U) + (1 - theta) * discrete_energy(
                problem, V
            )
            assert lhs <= rhs + 1e-12
            if not np.allclose(U, V):
                assert lhs < rhs


class TestMinimization:
    def test_negative_energy_with_charges(self):
        result = minimize_energy(small_problem(), tol=1e-10)
        assert result.converged
        assert result.energy < 0.0

    def test_energy_below_initial_guess(self):
        problem = small_problem(rule="radial-superposition")
        initial = discrete_energy(problem, problem.initial_guess())
        result = minimize_energy(problem, tol=1e-10)
        assert result.energy <= initial

    def test_negating_charges_negates_field(self):
        cfg_plus = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.0)])
        cfg_minus = ChargeConfig(3, [((0.0, 0.0, 0.0), -1.0)])
        f_plus = minimize_energy(
            assemble_problem(cfg_plus, -1, 1, 0.25, 2, "radial-superposition"),
            tol=1e-10,
        )
        f_minus = minimize_energy(
            assemble_problem(cfg_minus, -1, 1, 0.25, 2, "radial-superposition"),
            tol=1e-10,
        )
        assert np.max(np.abs(f_plus.values + f_minus.values)) <= 10 * 1e-10

    def test_sign_flip_symmetry_with_extrema(self):
        # an off-centre charge on 17^3 nodes: -a gives -u to rounding and
        # turns the charge's maximum into a minimum
        def solve(a):
            config = ChargeConfig(3, [((0.25, -0.5, 0.0), a)])
            problem = assemble_problem(config, -2, 2, 0.25, 2, "radial-superposition")
            return minimize_energy(problem, tol=1e-10)

        plus, minus = solve(0.7), solve(-0.7)
        assert plus.converged and minus.converged
        assert np.max(np.abs(plus.values + minus.values)) <= 1e-12
        assert [r.kind for r in extremum_report(plus)] == ["max"]
        assert [r.kind for r in extremum_report(minus)] == ["min"]

    def test_result_independent_of_initialization(self, monkeypatch):
        problem = small_problem(m=2)
        rng = np.random.default_rng(3)
        tol = 1e-11
        base = minimize_energy(problem, tol=tol)
        start = problem.initial_guess()
        inner = start[1:-1, 1:-1, 1:-1]
        inner[...] = rng.normal(0.0, 0.1, inner.size).reshape(inner.shape)
        monkeypatch.setattr(DiscreteProblem, "initial_guess", lambda self: start.copy())
        jittered = minimize_energy(problem, tol=tol)
        assert base.converged and jittered.converged
        assert np.max(np.abs(base.values - jittered.values)) <= 10 * tol

    def test_non_convergence_reported_not_raised(self):
        problem = small_problem(m=2)
        result = minimize_energy(problem, tol=1e-13, max_iter=1)
        assert not result.converged
        assert result.stop_reason == "max_iter"
        assert result.grad_norm > 0


class TestComparison:
    def test_identical_sources_give_zero_report(self):
        problem = small_problem()
        f1 = minimize_energy(problem, tol=1e-10)
        f2 = minimize_energy(problem, tol=1e-10)
        report = compare_solutions(f1, f2)
        assert report.passed
        assert abs(report.max_excess) <= 10 * 1e-10

    def test_opposite_charges_ordered(self):
        plus = assemble_problem(SINGLE, -1, 1, 0.25, 2, "zero")
        minus = assemble_problem(
            ChargeConfig(3, [((0.0, 0.0, 0.0), -1.0)]), -1, 1, 0.25, 2, "zero"
        )
        f1 = minimize_energy(plus, tol=1e-10)
        f2 = minimize_energy(minus, tol=1e-10)
        report = compare_solutions(f1, f2)
        assert report.passed
        assert np.all(f2.values <= f1.values + 1e-9)

    @pytest.mark.filterwarnings("ignore:boundary clearance")
    def test_dropping_a_positive_charge_lowers_field(self):
        cfg1 = ChargeConfig(3, [((-1.0, 0, 0), 1.0), ((1.0, 0, 0), 0.8)])
        cfg2 = ChargeConfig(3, [((-1.0, 0, 0), 1.0)])
        p1 = assemble_problem(cfg1, -4, 4, 0.25, 2, "zero")
        p2 = assemble_problem(cfg2, -4, 4, 0.25, 2, "zero")
        f1 = minimize_energy(p1, tol=1e-9)
        f2 = minimize_energy(p2, tol=1e-9)
        report = compare_solutions(f1, f2)
        assert report.passed

    def test_unordered_sources_rejected(self):
        p1 = small_problem()
        p2 = assemble_problem(
            ChargeConfig(3, [((0.0, 0.0, 0.0), 2.0)]), -1, 1, 0.25, 2, "zero"
        )
        f1 = minimize_energy(p1, tol=1e-9)
        f2 = minimize_energy(p2, tol=1e-9)
        with pytest.raises(ValueError):
            compare_solutions(f1, f2)  # rho2 > rho1

    def test_geometry_mismatch_rejected(self):
        f1 = minimize_energy(small_problem(), tol=1e-9)
        f2 = minimize_energy(small_problem(h=0.5), tol=1e-9)
        with pytest.raises(ValueError):
            compare_solutions(f1, f2)


@pytest.fixture(scope="module")
def dipole_field():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="boundary clearance")
        problem = assemble_problem(DIPOLE, -4, 4, 0.25, 2, "radial-superposition")
    return minimize_energy(problem, tol=1e-9)


class TestReports:
    def test_extremum_classification(self, dipole_field):
        records = extremum_report(dipole_field)
        kinds = {r.strength: r.kind for r in records}
        assert kinds[1.0] == "max"
        assert kinds[-1.0] == "min"
        assert all(r.matches_charge_sign and r.margin > 0 for r in records)

    def test_extremum_refuses_unconverged(self):
        result = minimize_energy(small_problem(), tol=1e-14, max_iter=1)
        assert not result.converged
        with pytest.raises(ValueError):
            extremum_report(result)

    def test_segment_report_dipole(self, dipole_field):
        records = segment_report(dipole_field)
        assert len(records) == 1
        rec = records[0]
        assert not rec.same_sign
        assert rec.distance == pytest.approx(2.0)
        assert 0 < rec.light_ratio < 1
        assert not rec.near_light  # threshold undefined at this spacing
        assert rec.chord_defect > 0

    def test_segment_report_single_charge_empty(self):
        result = minimize_energy(small_problem(), tol=1e-9)
        assert segment_report(result) == []

    def test_gradient_sup_away_from_charge_below_light_cone(self):
        problem = assemble_problem(SINGLE, -2, 2, 0.25, 4, "radial-superposition")
        result = minimize_energy(problem, tol=1e-9)
        sup, argmax_distance, _ = _gradient_sup_by_meshgrid(result, 0.5)
        assert sup < 1.0
        assert argmax_distance > 0.5

    def test_far_gradient_sup_stable_in_order(self, dipole_field):
        # Raising the order perturbs the far field only through the
        # near-charge structure; the measured drift sits at the
        # discretization scale (~1e-4..1e-3), not at solver tolerance.
        sups = []
        for m in (2, 4):
            problem = assemble_problem(SINGLE, -2, 2, 0.25, m, "radial-superposition")
            result = minimize_energy(problem, tol=1e-9)
            sups.append(_gradient_sup_by_meshgrid(result, 0.75)[0])
        assert sups[1] - sups[0] <= 1e-3


@pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
@pytest.mark.parametrize("m", [1, 2, 16])
@pytest.mark.parametrize(
    "lo, hi, h",
    [(-4.0, 4.0, 0.25), ((-1.0, -1.5, -2.0), (1.0, 1.5, 2.0), 0.25), (-1.0, 1.0, 1.0)],
    ids=["33-cube", "9x13x17", "3-cube"],
)
def test_flat_model_equals_the_3d_stencils(lo, hi, h, m, rule):
    config = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.3)])
    problem = assemble_problem(config, lo, hi, h, m, rule)
    rng = np.random.default_rng(m)
    U = problem.initial_guess()
    U += rng.normal(0.0, 0.05, U.shape) * problem.interior_mask()
    V = rng.normal(0.0, 1.0, U.shape)
    U_before, V_before = U.copy(), V.copy()
    model = _NewtonModel(problem, U).complete()
    old_energy, old_grad, old_hessp, old_node_sigma = newton_model_3d(problem, U)
    assert model.energy == old_energy
    assert np.array_equal(model.grad, old_grad)
    assert np.array_equal(model.node_sigma, old_node_sigma)
    assert np.array_equal(model.hessp(V), old_hessp(V))
    s, *diffs = _cell_s(U, h)
    old_s, *old_diffs = cell_s_3d(U, h)
    cells = s.reshape(U.shape[0] - 1, *U.shape[1:])
    assert np.array_equal(cells[:, :-1, :-1], old_s)
    # junk cells, whose stencil wraps into the next row or plane, read zero
    assert not cells[:, -1].any() and not cells[:, :, -1].any()
    for d, (e, old_e) in enumerate(zip(diffs, old_diffs)):
        padded = np.append(e, np.zeros(U.size - e.size)).reshape(U.shape)
        assert np.array_equal(padded[_shifted(d, _LO)], old_e)
    # U.ravel() is a view, so a stray in-place operation would show here
    assert np.array_equal(U, U_before)
    assert np.array_equal(V, V_before)


@pytest.mark.parametrize("m", [2, 16])
@pytest.mark.parametrize(
    "lo, hi, h",
    [(-4.0, 4.0, 0.25), ((-1.0, -1.5, -2.0), (1.0, 1.5, 2.0), 0.25), (-1.0, 1.0, 1.0)],
    ids=["33-cube", "9x13x17", "3-cube"],
)
def test_model_in_solve_buffers_equals_a_standalone_model(lo, hi, h, m):
    # a solve builds every model over the last one's arrays; another model
    # built there first must leave nothing behind
    config = ChargeConfig(3, [((0.0, 0.0, 0.0), 1.3)])
    problem = assemble_problem(config, lo, hi, h, m, "radial-superposition")
    rng = np.random.default_rng(m)
    U = problem.initial_guess()
    U += rng.normal(0.0, 0.05, U.shape) * problem.interior_mask()
    V = rng.normal(0.0, 1.0, U.shape)
    take = _Buffers(problem.shape)
    _NewtonModel(problem, 2.0 * U, take).complete().hessp(-V)
    model = _NewtonModel(problem, U, take).complete()
    alone = _NewtonModel(problem, U).complete()
    assert model.energy == alone.energy
    # the gradient and hessp share an array in a solve
    assert np.array_equal(model.grad, alone.grad)
    assert np.array_equal(model.node_sigma, alone.node_sigma)
    assert np.array_equal(model.hessp(V), alone.hessp(V))


def _gradient_sup_by_meshgrid(field, exclusion_radius):
    """(sup, argmax distance, cells) over cells farther than ``exclusion_radius``
    from every charge, by the stacked cell-centre formula ``gradient_sup``
    used to evaluate."""
    problem = field.problem
    s = cell_s_3d(field.values, problem.h)[0]
    nx, ny, nz = s.shape
    centers = (
        np.stack(
            np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)
        + 0.5
    ) * problem.h + np.asarray(problem.lo)
    dmin = np.full(len(centers), np.inf)
    for node, _ in problem.charges:
        dmin = np.minimum(
            dmin, np.linalg.norm(centers - problem.node_position(node), axis=1)
        )
    flat = np.sqrt(s).ravel()
    mask = dmin > exclusion_radius
    arg = int(np.argmax(np.where(mask, flat, -np.inf)))
    return float(flat[arg]), float(dmin[arg]), int(mask.sum())


@pytest.mark.filterwarnings("ignore:boundary clearance")
@pytest.mark.parametrize(
    "charges",
    [
        [((0.1, 0.05, 0.0), 1.0)],
        [((-1.0, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), -1.0)],
        [((-1.0, -1.0, 0.0), 1.0), ((1.0, -1.0, 0.0), 2.0), ((0.0, 1.0, 0.5), -1.0)],
    ],
    ids=["one", "two", "three"],
)
def test_gradient_sup_matches_the_meshgrid_formula_exactly(charges):
    problem = assemble_problem(
        ChargeConfig(3, charges), (-4.0, -3.0, -3.5), (4.0, 3.5, 3.0), 0.25, 2,
        "radial-superposition",
    )
    U = problem.initial_guess()
    U[1:-1, 1:-1, 1:-1] += np.random.default_rng(len(charges)).normal(
        0.0, 0.01, tuple(n - 2 for n in problem.shape)
    )
    result = GridField(
        problem=problem, values=U, energy=0.0, grad_norm=0.0, iterations=0,
        cg_per_step=(), tol=1e-9, stop_reason="max_iter",
    )
    # no cell centre sits on a charge node, so radius 0 keeps every cell
    sup, argmax_distance, cells = _gradient_sup_by_meshgrid(result, 0.0)
    assert cells == math.prod(n - 1 for n in problem.shape)
    report = gradient_sup(result)
    assert (report.sup, report.argmax_distance) == (sup, argmax_distance)


def _charge_distances_on_the_full_grid(problem):
    """Every cell centre's distance to its nearest charge, by broadcast
    cell-centre axes, as ``gradient_sup`` evaluated it before it took the
    distance at the argmax cell alone."""
    axes = [
        ((np.arange(n - 1) + 0.5) * problem.h + lo).reshape(
            [n - 1 if e == d else 1 for e in range(3)]
        )
        for d, (n, lo) in enumerate(zip(problem.shape, problem.lo))
    ]
    dmin = np.full(tuple(n - 1 for n in problem.shape), np.inf)
    for node, _ in problem.charges:
        dx, dy, dz = (x - c for x, c in zip(axes, problem.node_position(node)))
        dmin = np.minimum(dmin, np.sqrt((dx * dx + dy * dy) + dz * dz))
    return dmin


@pytest.mark.filterwarnings("ignore:boundary clearance")
@pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
@pytest.mark.parametrize(
    "lo, hi, h",
    [((-4.0, -3.0, -3.5), (4.0, 3.5, 3.0), 0.25), (-3.3, 3.3, 0.15)],
    ids=["dyadic", "h0.15"],
)
@pytest.mark.parametrize(
    "charges",
    [
        [((0.1, 0.05, 0.0), 1.0)],
        [((-1.0, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), -1.0)],
        [((-1.0, -1.0, 0.0), 1.0), ((1.0, -1.0, 0.0), 2.0), ((0.0, 1.0, 0.5), -1.0)],
    ],
    ids=["one", "two", "three"],
)
def test_gradient_sup_equals_the_full_grid_distances(charges, lo, hi, h, rule):
    problem = assemble_problem(ChargeConfig(3, charges), lo, hi, h, 2, rule)
    distances = _charge_distances_on_the_full_grid(problem)
    rng = np.random.default_rng(len(charges))
    U = problem.initial_guess()
    U[1:-1, 1:-1, 1:-1] += rng.normal(0.0, 0.01, tuple(n - 2 for n in problem.shape))
    fields = [U]
    # a unit spike at an interior node puts the sup on the first of the
    # node's eight cells; off dyadic grids about one such cell's distance in
    # ten depends on the summation order
    for node in rng.integers(1, np.array(problem.shape) - 1, (24, 3)):
        spike = np.zeros(problem.shape)
        spike[tuple(node)] = 1.0
        fields.append(spike)
    for U in fields:
        result = GridField(
            problem=problem, values=U, energy=0.0, grad_norm=0.0, iterations=0,
            cg_per_step=(), tol=1e-9, stop_reason="max_iter",
        )
        flat = np.sqrt(cell_s_3d(U, h)[0]).ravel()
        arg = int(np.argmax(flat))
        report = gradient_sup(result)
        assert (report.sup, report.argmax_distance) == (flat[arg], distances.flat[arg])


@pytest.fixture
def model_calls(monkeypatch):
    """Counts of Newton models made, completed and asked for charge blocks."""
    calls = {"models": 0, "completions": 0, "blocks": 0}
    for name, key in (("__init__", "models"), ("complete", "completions"),
                      ("blocks", "blocks")):
        def counted(self, *args, _method=getattr(_NewtonModel, name), _key=key):
            calls[_key] += 1
            return _method(self, *args)

        monkeypatch.setattr(_NewtonModel, name, counted)
    return calls


class TestNewtonSolver:
    NON_CUBIC = ((-1.0, -0.75, -0.5), (1.0, 1.0, 0.75))

    def test_node_sigma_is_the_nodal_edge_weight_sum_over_6h(self):
        cfg = ChargeConfig(3, [((0.0, 0.25, 0.0), 3.0)])
        problem = assemble_problem(cfg, *self.NON_CUBIC, 0.25, 16, "zero")
        h = problem.h
        U = problem.initial_guess()
        node_sigma = _NewtonModel(problem, U).complete().node_sigma
        sigma = _sigma_series(cell_s_3d(U, h)[0], taylor_coefficients(problem.m))[0]
        assert sigma.max() > 2.0  # far from the constant sigma of m = 1
        expected = np.zeros(tuple(n - 2 for n in problem.shape))
        for node in np.ndindex(*expected.shape):
            n = np.add(node, 1)
            weight_sum = 0.0
            for d in range(3):
                # the edges ending and starting at n along d, each weighted
                # by (h/4) times the sigma of its four cells
                for first in (n[d] - 1, n[d]):
                    cells = [slice(x - 1, x + 1) for x in n]
                    cells[d] = first
                    weight_sum += (h / 4.0) * sigma[tuple(cells)].sum()
            expected[node] = weight_sum / (6.0 * h)
        assert node_sigma.shape == expected.shape
        assert np.max(np.abs(node_sigma / expected - 1.0)) <= 1e-14

    def test_memory_of_a_solve_is_bounded_and_steady(self, monkeypatch):
        # every grid array of a solve is taken when it starts: the peak stays
        # under 25 node arrays at 33^3, and from the second Newton step on
        # nothing grid-sized comes and goes (the charge blocks' cell matrices
        # take about half a node array) and no step starts holding more than
        # the second did, but for numpy's small blocks of array shapes, a few
        # hundred bytes a step, for which 8 KB are allowed
        import tracemalloc

        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, "radial-superposition")
        problem._blocks, problem._coefficients  # cached before the trace
        node_array, starts, peaks = 8 * problem.n_nodes, [], []

        def traced(poisson, model, _setup=field._preconditioner):
            current, peak = tracemalloc.get_traced_memory()
            starts.append(current)
            peaks.append(peak)
            if len(starts) == 2:
                tracemalloc.reset_peak()
            return _setup(poisson, model)

        monkeypatch.setattr(field, "_preconditioner", traced)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = minimize_energy(problem, tol=1e-9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.converged and result.iterations >= 3
        assert max(peaks) - entry <= 25 * node_array
        assert peaks[-1] - starts[1] <= 0.75 * node_array
        assert max(starts[2:]) <= starts[1] + 8192

    def test_solves_leave_no_state(self):
        # nothing of a solve outlives it: two problems on different grids
        # give the same bits in either order
        cfg = ChargeConfig(3, [((0.25, 0.0, -0.25), -2.0)])
        problems = [
            assemble_problem(SINGLE, *self.NON_CUBIC, 0.25, 16, "zero"),
            assemble_problem(cfg, -2, 2, 0.25, 2, "radial-superposition"),
        ]
        first = [minimize_energy(p, tol=1e-9) for p in problems]
        second = [minimize_energy(p, tol=1e-9) for p in problems[::-1]][::-1]
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)
            assert (a.energy, a.cg_per_step) == (b.energy, b.cg_per_step)

    def test_node_sigma_is_one_at_order_one(self):
        problem = assemble_problem(SINGLE, *self.NON_CUBIC, 0.25, 1, "zero")
        U = problem.initial_guess()
        U[1:-1, 1:-1, 1:-1] += np.random.default_rng(6).normal(
            0.0, 0.3, tuple(n - 2 for n in problem.shape)
        )
        assert np.all(_NewtonModel(problem, U).complete().node_sigma == 1.0)

    @pytest.mark.parametrize(
        "rule, max_cg, energy",
        [
            ("radial-superposition", 45, -35.34868439372799),
            ("zero", 50, -28.56527475209062),
        ],
    )
    def test_sigma_scaling_cuts_cg_on_the_strong_charge(
        self, monkeypatch, rule, max_cg, energy
    ):
        # The sigma-scaled Poisson inverse alone, without charge blocks,
        # takes 38 and 43 CG iterations; with the plain Poisson inverse this
        # solve took 68 (superposition) and 79 (zero), to the same energies.
        monkeypatch.setattr("borninfeld.field._charge_blocks", lambda problem: ())
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, rule)
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert result.charge_blocks == ()
        assert result.cg_iterations <= max_cg
        assert sum(result.cg_per_step) == result.cg_iterations
        assert len(result.cg_per_step) == result.iterations
        assert result.energy == pytest.approx(energy, rel=1e-12)

    @pytest.mark.parametrize(
        "rule, max_cg, energy",
        [
            ("radial-superposition", 22, -35.34868439372799),
            ("zero", 27, -28.56527475209062),
        ],
    )
    def test_charge_blocks_cut_cg_on_the_strong_charge(self, rule, max_cg, energy):
        # Block, global, block: down from 38 and 43 CG iterations with the
        # sigma-scaled Poisson inverse alone, to the same energies.
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, rule)
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert result.cg_iterations <= max_cg
        assert sum(result.cg_per_step) == result.cg_iterations
        assert len(result.cg_per_step) == result.iterations
        assert result.energy == pytest.approx(energy, rel=1e-12)

    def test_charge_blocks_are_built_only_for_cg_solves(self, model_calls):
        # neither the gradient alone nor the converged iterate assembles H[E, B]
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, "radial-superposition")
        discrete_energy_gradient(problem, problem.initial_guess())
        assert model_calls["blocks"] == 0
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert model_calls["blocks"] == len(result.cg_per_step)

    def test_rejected_trials_compute_only_the_energy(self, model_calls):
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, "radial-superposition")
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        # the start and each accepted step complete their model; the line
        # search rejects two trials, which stop at the energy
        assert model_calls["completions"] == result.iterations + 1
        assert model_calls["models"] == model_calls["completions"] + 2

    def test_coefficients_are_computed_once_per_problem(self, model_calls, monkeypatch):
        # every model reads the problem's tuple, rejected trials included
        orders = []

        def counted(m):
            orders.append(m)
            return taylor_coefficients(m)

        monkeypatch.setattr("borninfeld.field.taylor_coefficients", counted)
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, "radial-superposition")
        assert minimize_energy(problem, tol=1e-9).converged
        assert model_calls["models"] > model_calls["completions"] > 1
        assert orders == [16]

    @pytest.mark.parametrize(
        "rule, energy",
        [("radial-superposition", -35.34868439372799), ("zero", -28.56527475209062)],
    )
    def test_truncated_cg_directions_still_converge(self, monkeypatch, rule, energy):
        # two CG iterations per Newton direction end most solves at the
        # budget, not at the forcing tolerance; Newton takes more steps to
        # the same energies (a budget of one fails the line search)
        monkeypatch.setattr("borninfeld.field._CG_MAX_ITER", 2)
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, rule)
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert max(result.cg_per_step) <= 2
        assert result.energy == pytest.approx(energy, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:boundary clearance")
    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    @pytest.mark.parametrize("m", [8, 16, 64])
    @pytest.mark.parametrize(
        "config",
        [DIPOLE, ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])],
        ids=["dipole", "strong"],
    )
    def test_same_solve_as_horner_everywhere(self, monkeypatch, config, m, rule):
        # the closed form replaces Horner where the two agree to rounding, so
        # the Newton path is the same and the energies agree to rounding
        problem = assemble_problem(config, -4, 4, 0.25, m, rule)
        fast = minimize_energy(problem, tol=1e-9)
        monkeypatch.setattr(core, "_CLOSED_FORM_MIN_ORDER", math.inf)
        horner = minimize_energy(problem, tol=1e-9)
        assert fast.converged and horner.converged
        assert fast.iterations == horner.iterations
        assert fast.cg_per_step == horner.cg_per_step
        assert abs(fast.energy - horner.energy) <= 1e-15 * abs(horner.energy)

    def test_horner_sees_under_one_percent_of_cells_at_order_64(self, monkeypatch):
        seen = {"cells": 0, "horner": 0}
        for name in ("energy", "sigma"):
            def counted(self, _method=getattr(_Density, name)):
                seen["cells"] += self.s.size
                return _method(self)

            monkeypatch.setattr(_Density, name, counted)
        for name in ("_energy_series", "_sigma_series"):
            def counted(s, alphas, _series=getattr(core, name)):
                seen["horner"] += np.size(s)
                return _series(s, alphas)

            monkeypatch.setattr(core, name, counted)
        cfg = ChargeConfig(3, [((0.1, 0.05, 0.0), 1.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 64, "radial-superposition")
        assert minimize_energy(problem, tol=1e-9).converged
        assert 0 < seen["horner"] < 0.01 * seen["cells"]

    def test_objective_beyond_binary64_rejected(self):
        # a = 1e300 makes the starting energy -inf; at a = 1e155 the energy
        # is finite but the squared gradient norm overflows
        for a, quantity in ((1e300, "energy"), (1e155, "gradient 2-norm")):
            cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), a)])
            problem = assemble_problem(cfg, -1, 1, 0.25, 2, "radial-superposition")
            with pytest.raises(InputError, match=f"starting {quantity} is"):
                minimize_energy(problem)

    def test_poisson_preconditioner_inverts_hessian_at_order_one(self):
        # sigma = 1 at m = 1, so the Hessian is h times the Dirichlet
        # Laplacian at every U; a non-cubic box exercises every axis.
        problem = assemble_problem(
            SINGLE, (-1.0, -0.75, -0.5), (1.0, 1.0, 0.75), 0.25, 1,
            "radial-superposition",
        )
        inner = (slice(1, -1),) * 3
        n_inner = tuple(n - 2 for n in problem.shape)
        rng = np.random.default_rng(4)
        U = problem.initial_guess()
        U[inner] = rng.normal(0.0, 0.3, n_inner)
        r = rng.normal(0.0, 1.0, n_inner)
        V = np.zeros(problem.shape)
        V[inner] = _poisson_inverse(n_inner, problem.h)(r)
        hv = _NewtonModel(problem, U).complete().hessp(V)[inner]
        assert np.max(np.abs(hv - r)) <= 1e-12 * np.max(np.abs(r))
        result = minimize_energy(problem, tol=1e-12)
        assert result.converged
        assert result.stop_reason == "converged"
        assert (result.iterations, result.cg_iterations) == (1, 1)

    @pytest.mark.parametrize("m", [1, 2, 16])
    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    @pytest.mark.parametrize(
        "lo, hi, pos, size",
        [
            (-4.0, 4.0, (0.0, 0.0, 0.0), 27),
            ((-1.0, -1.5, -2.0), (1.0, 1.5, 2.0), (0.0, 0.0, 0.0), 27),
            # one node from the x = -1 face: B loses a layer, E two
            ((-1.0, -1.5, -2.0), (1.0, 1.5, 2.0), (-0.75, 0.0, 1.5), 18),
        ],
        ids=["33-cube", "9x13x17", "9x13x17-face"],
    )
    def test_block_hessian_equals_probed_columns(self, lo, hi, pos, size, rule, m):
        problem = assemble_problem(ChargeConfig(3, [(pos, 1.3)]), lo, hi, 0.25, m, rule)
        inner = (slice(1, -1),) * 3
        n_inner = tuple(n - 2 for n in problem.shape)
        U = problem.initial_guess()
        U[inner] += np.random.default_rng(m).normal(0.0, 0.05, n_inner)
        model = _NewtonModel(problem, U).complete()
        (block,), (H,) = problem._blocks, model.blocks()
        numbers = np.arange(math.prod(n_inner)).reshape(n_inner)
        nodes, reach = numbers[block.nodes].ravel(), numbers[block.reach].ravel()
        assert len(nodes) == size
        assert H.shape == (len(reach), size)
        assert np.array_equal(reach[block.rows], nodes)
        columns = []
        for j in nodes:
            V = np.zeros(problem.shape)
            V[inner].flat[j] = 1.0
            columns.append(model.hessp(V)[inner].ravel())
        probed = np.array(columns).T
        # (H e_j) vanishes outside E, so the block residuals are local
        outside = np.ones(len(probed), dtype=bool)
        outside[reach] = False
        assert not probed[outside].any()
        scale = np.max(np.abs(probed))
        assert np.max(np.abs(H - probed[reach])) <= 1e-14 * scale
        assert np.array_equal(H[block.rows], H[block.rows].T)

    @pytest.mark.parametrize(
        "h, charges, sizes",
        [
            (0.25, [((-1.0, -1.0, 0.0), 20.0), ((1.0, -1.0, 0.0), -3.0),
                    ((0.0, 1.0, -1.5), 2.0)], [27, 27, 27]),
            (0.25, [((0.0, 0.0, -3.75), 20.0)], [18]),
            # 65^3 nodes: 5^3 blocks whose nodes (2, 2, 2) and (3, 3, 2) touch
            (0.125, [((0.0, 0.0, 0.0), 20.0), ((0.625, 0.625, 0.5), -3.0)],
             [125, 125]),
        ],
        ids=["33-cube", "33-cube-face", "65-cube-touching"],
    )
    def test_block_preconditioner_is_symmetric_and_positive(self, h, charges, sizes):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="boundary clearance")
            problem = assemble_problem(ChargeConfig(3, charges), -4, 4, h, 16, "zero")
        inner = (slice(1, -1),) * 3
        n_inner = tuple(n - 2 for n in problem.shape)
        model = _NewtonModel(problem, problem.initial_guess()).complete()
        assert [len(block.rows) for block in problem._blocks] == sizes
        precond = _preconditioner(_poisson_inverse(n_inner, h), model)
        rng = np.random.default_rng(7)
        xs = rng.normal(0.0, 1.0, (4, *n_inner))
        zs = [precond(x) for x in xs]
        for x, z in zip(xs, zs):
            assert np.vdot(x, z) > 0.0
            for y, w in zip(xs, zs):
                bound = 1e-13 * np.linalg.norm(x) * np.linalg.norm(w)
                assert abs(np.vdot(x, w) - np.vdot(y, z)) <= bound
        # the sweep ends with the first block's exact solve, which leaves no
        # residual there
        V = np.zeros(problem.shape)
        V[inner] = zs[0]
        residual = (model.hessp(V)[inner] - xs[0])[problem._blocks[0].nodes]
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(xs[0]))

    @pytest.mark.parametrize("shape", ["box", (31, 31, 31)])
    def test_poisson_inverse_matches_fft_sine_transform(self, shape):
        from scipy import fft

        if shape == "box":
            problem = assemble_problem(
                SINGLE, (-1.0, -0.75, -0.5), (1.0, 1.0, 0.75), 0.25, 1,
                "radial-superposition",
            )
            shape = tuple(n - 2 for n in problem.shape)
        h = 0.25
        eig = sum(
            (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))).reshape(
                [n if e == d else 1 for e in range(3)]
            )
            for d, n in enumerate(shape)
        )
        r = np.random.default_rng(5).normal(0.0, 1.0, shape)
        expected = fft.idstn(fft.dstn(r, type=1) / (h * eig), type=1)
        got = _poisson_inverse(shape, h)(r)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("a, m", [(20.0, 16), (1.0, 64)])
    def test_strong_charge_and_high_order_converge(self, a, m):
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), a)])
        problem = assemble_problem(cfg, -4, 4, 0.25, m, "radial-superposition")
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert all(r.matches_charge_sign for r in extremum_report(result))

    @pytest.mark.parametrize("m", [2, 16])
    def test_unreachable_tolerance_stops_early(self, m):
        # Below the energy's rounding the line search needs a falling
        # residual; at a tolerance under machine precision it soon fails.
        problem = small_problem(m=m, rule="radial-superposition")
        result = minimize_energy(problem, tol=1e-18, max_iter=500)
        assert not result.converged
        assert result.stop_reason == "line_search_failed"
        assert result.iterations < 50
        # the rejected last direction keeps its CG count
        assert len(result.cg_per_step) == result.iterations + 1
        assert result.grad_norm < 1e-13

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    def test_strong_charge_starts_near_its_central_value(self, rule):
        # From boundary data extended by zero the same solve took 25
        # (superposition) and 15 (zero) Newton steps.
        cfg = ChargeConfig(3, [((0.0, 0.0, 0.0), 20.0)])
        problem = assemble_problem(cfg, -4, 4, 0.25, 16, rule)
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert result.iterations <= 10

    @pytest.mark.parametrize("rule", ["radial-superposition", "zero"])
    def test_minimum_boundary_clearance_converges(self, rule):
        # The charge nodes clear the box by exactly the charge spacing, the
        # least assembly accepts.
        cfg = ChargeConfig(3, [((-1.0, 0, 0), 1.5), ((1.0, 0, 0), -1.5)])
        with pytest.warns(UserWarning, match="boundary clearance"):
            problem = assemble_problem(cfg, -3, 3, 0.25, 16, rule)
        result = minimize_energy(problem, tol=1e-9)
        assert result.converged
        assert all(r.matches_charge_sign for r in extremum_report(result))

    def test_newton_steps_mesh_independent(self, dipole_field):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="boundary clearance")
            fine = assemble_problem(DIPOLE, -4, 4, 0.125, 2, "radial-superposition")
        result = minimize_energy(fine, tol=1e-9)
        assert result.converged
        assert result.iterations - dipole_field.iterations <= 3


class TestBoundaryInsensitivity:
    def test_box_growth_drift_reported(self, capsys):
        # Box-doubling style study: reported, not asserted.
        values = {}
        for half in (1.0, 2.0):
            problem = assemble_problem(
                SINGLE, -half, half, 0.25, 2, "radial-superposition"
            )
            result = minimize_energy(problem, tol=1e-9)
            ((node, _),) = problem.charges
            values[half] = float(result.values[node])
        drift = abs(values[2.0] - values[1.0])
        print(f"boundary study: central value drift {drift:.3e} under box doubling")
        assert math.isfinite(drift)
