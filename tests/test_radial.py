"""Tests for the order-m radial solver, fits, and cone-plus-tail extremals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borninfeld import radial
from borninfeld.core import (
    InputError,
    asymptotics_spec,
    best_constant_cbar,
    density_series,
    sphere_measure,
    taylor_coefficients,
)
from borninfeld.quad import (
    adaptive_gauss_kronrod,
    exact_radial_profile,
    integrate_decaying,
)
from borninfeld.radial import (
    ConeTailCandidate,
    approx_radial_profile,
    cone_tail_energy,
    fit_singularity,
    flux_gradient_magnitude,
    spacelike_ratio,
)

OMEGA3 = sphere_measure(3)


class TestFluxRoot:
    def test_linear_order_is_exact(self):
        for r in (0.1, 1.0, 7.0):
            target = 1.0 / (OMEGA3 * r * r)
            assert flux_gradient_magnitude(r, 1.0, 1, 3) == pytest.approx(
                target, rel=1e-14
            )

    def test_far_field_dominated_by_linear_term(self):
        t = flux_gradient_magnitude(100.0, 1.0, 4, 3)
        newtonian = 1.0 / (OMEGA3 * 100.0**2)
        assert t == pytest.approx(newtonian, rel=1e-3)

    def test_near_field_dominated_by_top_term(self):
        alpha_m = taylor_coefficients(4).alphas[-1]
        t = flux_gradient_magnitude(1e-3, 1.0, 4, 3)
        predicted = (1.0 / (alpha_m * OMEGA3 * 1e-6)) ** (1.0 / 7.0)
        assert t == pytest.approx(predicted, rel=0.02)

    def test_residual_tolerance(self):
        alphas = taylor_coefficients(6).alphas
        for r in np.geomspace(1e-6, 1e3, 40):
            t = flux_gradient_magnitude(r, -2.5, 6, 4)
            g = math.fsum(a * t ** (2 * h - 1) for h, a in enumerate(alphas, 1))
            target = 2.5 / (sphere_measure(4) * r**3)
            assert abs(g - target) <= 1e-12 * max(1.0, target)

    def test_gradient_blowup_at_small_radius(self):
        assert flux_gradient_magnitude(1e-8, 1.0, 4, 3) > 10.0

    def test_approach_to_light_cone_in_order(self):
        # at fixed small radius the slope decreases toward the bound 1
        for r in (1e-3, 1e-4):
            gaps = [
                abs(flux_gradient_magnitude(r, 1.0, m, 3)) - 1.0
                for m in (2, 4, 8, 16, 32)
            ]
            assert all(g > 0 for g in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            flux_gradient_magnitude(0.0, 1.0, 2, 3)
        with pytest.raises(ValueError):
            flux_gradient_magnitude(np.array([1.0, -1.0]), 1.0, 2, 3)
        with pytest.raises(ValueError):
            flux_gradient_magnitude(1.0, 0.0, 2, 3)
        # omega_6 r^6 underflows to 0: the target |a|/0 is not a number
        with pytest.raises(InputError, match="binary64 cannot hold"):
            flux_gradient_magnitude(1e-300, 1.0, 2, 7)


@settings(max_examples=200)
@given(
    m=st.integers(1, 64),
    N=st.integers(3, 7),
    log_r=st.floats(-8.0, 8.0),
    a=st.floats(1e-2, 30.0),
    negative=st.booleans(),
)
def test_flux_root_residual_property(m, N, log_r, a, negative):
    r = 10.0**log_r
    strength = -a if negative else a
    t = flux_gradient_magnitude(r, strength, m, N)
    assert isinstance(t, float)
    target = a / (sphere_measure(N) * r ** (N - 1))
    alphas = taylor_coefficients(m).alphas
    residual = math.fsum(
        [al * t ** (2 * h - 1) for h, al in enumerate(alphas, 1)] + [-target]
    )
    assert abs(residual) <= 1e-12 * max(1.0, target)
    # one array call equals the scalar calls element for element
    radii = r * np.array([[1.0, 0.37, 2.9], [1e-3, 1e3, 1.0 + 1e-9]])
    slopes = flux_gradient_magnitude(radii, strength, m, N)
    assert slopes.shape == radii.shape
    scalar = [flux_gradient_magnitude(x, strength, m, N) for x in radii.flat]
    assert slopes.ravel().tolist() == scalar


class TestApproxProfile:
    def test_newtonian_closed_form(self):
        rgrid = np.geomspace(1e-2, 1e3, 300)
        profile = approx_radial_profile(1.0, 1, 3, rgrid)
        newton = 1.0 / (4 * math.pi * rgrid)
        assert np.max(np.abs(profile.u - newton)) < 1e-10
        assert profile.u0 is None  # diverges at the charge

    def test_far_field_tail(self):
        rgrid = np.geomspace(1e-2, 1e3, 300)
        profile = approx_radial_profile(1.0, 4, 3, rgrid)
        assert profile.u[-1] * rgrid[-1] == pytest.approx(1 / (4 * math.pi), rel=0.01)

    def test_finite_central_value_above_exact(self):
        rgrid = np.geomspace(1e-6, 1e2, 400)
        profile = approx_radial_profile(1.0, 4, 3, rgrid)
        exact = exact_radial_profile(1.0, 3, rgrid)
        assert profile.u0 is not None
        assert math.isfinite(profile.u0)
        assert profile.u0 > exact.u0  # order-m field overshoots at the charge
        assert np.all(np.diff(profile.u) < 0)

    def test_odd_symmetry(self):
        rgrid = np.geomspace(1e-4, 10, 100)
        plus = approx_radial_profile(2.0, 3, 3, rgrid)
        minus = approx_radial_profile(-2.0, 3, 3, rgrid)
        assert np.array_equal(plus.u, -minus.u)
        assert np.array_equal(plus.du, -minus.du)

    def test_flux_conservation_at_samples(self):
        rgrid = np.geomspace(1e-5, 50, 120)
        m, a = 5, -1.7
        profile = approx_radial_profile(a, m, 3, rgrid)
        alphas = taylor_coefficients(m).alphas
        for r, du in zip(profile.r, profile.du):
            t = abs(du)
            g = math.fsum(al * t ** (2 * h - 1) for h, al in enumerate(alphas, 1))
            assert OMEGA3 * r**2 * g == pytest.approx(abs(a), rel=1e-10)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            approx_radial_profile(1.0, 2, 3, np.array([2.0, 1.0]))

    def test_one_root_find_call_on_the_grid(self, monkeypatch):
        calls = []
        root = radial.flux_gradient_magnitude

        def counting(*args):
            calls.append(args)
            return root(*args)

        monkeypatch.setattr(radial, "flux_gradient_magnitude", counting)
        rgrid = np.geomspace(1e-6, 1e2, 37)
        approx_radial_profile(1.0, 4, 3, rgrid)
        # one call on the whole grid, and none at quadrature nodes
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], rgrid)

    @staticmethod
    def _adaptive_segments(profile, a, m, N):
        """u on the profile's radii by one adaptive quadrature per segment.

        The per-segment loop the batched panel pass replaced, on the
        profile's own slopes and first piece [0, t(r_max)].
        """
        q = N - 1
        c = abs(a) / sphere_measure(N)
        alphas = taylor_coefficients(m).alphas

        def integrand(tau):
            tau2 = tau * tau
            _, sigma, dsigma = density_series(tau2, alphas)
            r_tau = (c / (tau * sigma)) ** (1.0 / q)
            return r_tau * (1.0 + 2.0 * tau2 * dsigma / sigma) / q

        slopes = np.abs(profile.du).tolist()
        n = len(slopes)
        seg_tol = 1e-10 / (n + 1)
        u_mag = [abs(profile.u[-1])]
        for i in range(n - 2, -1, -1):
            seg, _ = adaptive_gauss_kronrod(
                integrand, slopes[i + 1], slopes[i], seg_tol, 200, rel_tol=1e-13
            )
            u_mag.append(u_mag[-1] + seg)
        return math.copysign(1.0, a) * np.array(u_mag[::-1])

    @pytest.mark.parametrize("N", [3, 4, 7])
    @pytest.mark.parametrize("m", [2, 4, 16, 64])
    def test_batched_segments_match_adaptive(self, m, N):
        a = -1.3
        rgrid = np.geomspace(1e-7, 1e3, 1200)
        profile = approx_radial_profile(a, m, N, rgrid)
        oracle = self._adaptive_segments(profile, a, m, N)
        np.testing.assert_allclose(profile.u, oracle, rtol=1e-13, atol=0)

    def test_coarse_grid_segments_fall_back_to_adaptive(self, monkeypatch):
        # 7 radii over ten decades: one GK15 panel per segment cannot reach
        # the 1e-13 relative floor, so segments go to the adaptive engine.
        a, m, N = 2.0, 8, 3
        rgrid = np.geomspace(1e-7, 1e3, 7)
        intervals = []
        engine = radial.adaptive_gauss_kronrod

        def recording(f, lo, hi, *args, **kwargs):
            intervals.append((lo, hi))
            return engine(f, lo, hi, *args, **kwargs)

        monkeypatch.setattr(radial, "adaptive_gauss_kronrod", recording)
        profile = approx_radial_profile(a, m, N, rgrid)
        slopes = np.abs(profile.du).tolist()
        segments = set(zip(slopes[1:], slopes[:-1]))
        assert segments & set(intervals)
        oracle = self._adaptive_segments(profile, a, m, N)
        np.testing.assert_allclose(profile.u, oracle, rtol=1e-13, atol=0)

    def test_central_value_of_a_huge_charge(self):
        # |a| = 1e100: u0 ~ 6.6e49, so the head piece needs the relative
        # floor; an absolute 1e-10 is far below its rounding.
        u0 = [
            approx_radial_profile(1e100, 4, 3, np.geomspace(1e-7, 1e3, n)).u0
            for n in (300, 1200, 4000)
        ]
        assert math.isfinite(u0[0]) and u0[0] > 1e49
        assert u0[1] == pytest.approx(u0[0], rel=1e-12)
        assert u0[2] == pytest.approx(u0[0], rel=1e-12)

    @pytest.mark.parametrize("m,N", [(64, 3), (16, 4), (4, 5)])
    def test_sparse_grid_far_from_the_charge(self, m, N):
        # r_min = 3 puts the first slope below 1; at r = 3e3 the field is the
        # Newtonian tail c/((N-2) r^(N-2)) to full relative precision.
        a = 1.7
        sparse = approx_radial_profile(a, m, N, np.array([3.0, 6.0, 3e3]))
        dense = approx_radial_profile(a, m, N, np.geomspace(1e-7, 1e3, 400))
        assert abs(sparse.du[0]) < 1.0
        assert sparse.u0 == pytest.approx(dense.u0, rel=1e-12)
        c = a / sphere_measure(N)
        newtonian = c / ((N - 2) * 3e3 ** (N - 2))
        assert sparse.u[-1] == pytest.approx(newtonian, rel=1e-12, abs=0)

    def test_single_radius_near_a_diverging_charge(self):
        # 2m < N: u(1e-5) ~ 4e4, so [0, t(r_max)] needs the relative floor the
        # segments have; an absolute 1e-10/2 alone is below its rounding.
        single = approx_radial_profile(1.0, 2, 7, [1e-5])
        dense = approx_radial_profile(1.0, 2, 7, np.geomspace(1e-5, 1e3, 400))
        assert single.u[0] == pytest.approx(dense.u[0], rel=1e-13)

    def test_flux_target_beyond_binary64(self):
        # omega_45 (1e-7)^45 underflows to 0: the flux root would divide by it
        with pytest.raises(InputError, match="binary64 cannot hold"):
            approx_radial_profile(1.0, 4, 46, np.geomspace(1e-7, 1e3, 50))

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_matches_r_space_quadrature(self, m, N):
        # Oracle: the field as the tail integral of the flux root in r, and
        # u0 as u(r_min) plus the head integral of the slope over (0, r_min],
        # taken after s = v^(1/(1-p)), p = (N-1)/(2m-1), which bounds it.
        a = 1.3
        rgrid = np.geomspace(1e-5, 1e2, 8)
        profile = approx_radial_profile(a, m, N, rgrid)

        def slope(s):
            return flux_gradient_magnitude(s, a, m, N)

        oracle = np.array([
            integrate_decaying(
                slope, r, 1e-15, split=r + max(10.0, r), max_subdivisions=400,
                rel_tol=1e-13,
            )
            for r in rgrid
        ])
        np.testing.assert_allclose(profile.u, oracle, rtol=1e-11, atol=0)
        if 2 * m <= N:
            assert profile.u0 is None
            return
        p = (N - 1) / (2 * m - 1)
        back = 1.0 / (1.0 - p)
        head, _ = adaptive_gauss_kronrod(
            lambda v: slope(v**back) * back * v ** (p * back),
            0.0, rgrid[0] ** (1.0 - p), 1e-15, 400, rel_tol=1e-13,
        )
        assert profile.u0 == pytest.approx(oracle[0] + head, rel=1e-11)


@pytest.fixture(scope="module")
def profile_m4():
    return approx_radial_profile(1.0, 4, 3, np.geomspace(1e-7, 1e3, 1500))


class TestFitSingularity:
    def test_exponents_and_coefficients(self, profile_m4):
        spec = asymptotics_spec(4, 3, 1.0)
        u_fit, du_fit = fit_singularity(profile_m4, (1e-6, 1e-4))
        assert u_fit.guaranteed and du_fit.guaranteed
        assert u_fit.exponent == pytest.approx(spec.u_exponent, rel=0.01)
        assert abs(u_fit.coefficient) == pytest.approx(abs(spec.K), rel=0.02)
        assert u_fit.coefficient < 0  # opposite sign to the charge
        assert du_fit.exponent == pytest.approx(spec.grad_exponent, rel=0.01)
        assert du_fit.coefficient == pytest.approx(spec.Kprime, rel=0.02)

    def test_window_shrink_reduces_exponent_error(self, profile_m4):
        spec = asymptotics_spec(4, 3, 1.0)
        wide, _ = fit_singularity(profile_m4, (1e-6, 1e-4))
        narrow, _ = fit_singularity(profile_m4, (1e-7, 1e-5))
        err_wide = abs(wide.exponent - spec.u_exponent)
        err_narrow = abs(narrow.exponent - spec.u_exponent)
        assert err_narrow < err_wide

    def test_newtonian_pole_flagged(self):
        profile = approx_radial_profile(1.0, 1, 3, np.geomspace(1e-7, 10, 400))
        u_fit, _ = fit_singularity(profile, (1e-6, 1e-4))
        assert u_fit.exponent == pytest.approx(-1.0, abs=1e-6)
        assert not u_fit.guaranteed

    def test_residual_reported(self, profile_m4):
        u_fit, du_fit = fit_singularity(profile_m4, (1e-6, 1e-4))
        assert u_fit.residual > 0
        assert du_fit.residual > 0

    def test_window_validation(self, profile_m4):
        with pytest.raises(ValueError):
            fit_singularity(profile_m4, (1e-9, 1e-4))  # below sampled range
        with pytest.raises(ValueError):
            fit_singularity(profile_m4, (1e-4, 1e-6))  # inverted
        with pytest.raises(ValueError):
            fit_singularity(profile_m4, (1e-3, 1e-1))  # not deep inside

    def test_too_few_samples(self):
        profile = approx_radial_profile(1.0, 4, 3, np.geomspace(1e-7, 10, 40))
        with pytest.raises(ValueError):
            fit_singularity(profile, (1e-6, 1e-5))


class TestConeTailFamily:
    def test_no_tail_energy(self):
        assert cone_tail_energy(1.0, 3) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_minimizer_energy_equals_best_constant(self):
        # E(1/2) = 1/24 + 1/8 = 1/6, and omega_2 E = Cbar(3)
        assert cone_tail_energy(0.5, 3) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert cone_tail_energy(0.5, 3) * OMEGA3 == pytest.approx(
            best_constant_cbar(3), abs=1e-10
        )

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_non_decreasing_on_admissible_interval(self, N):
        lo = (N - 2) / (N - 1)
        grid = np.linspace(lo, 1.0, 1000)
        values = [cone_tail_energy(float(R), N) for R in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_argmin_at_left_endpoint(self):
        grid = np.linspace(0.5, 1.0, 10_000)
        values = np.array([cone_tail_energy(float(R), 3) for R in grid])
        assert grid[int(np.argmin(values))] == pytest.approx(0.5, abs=grid[1] - grid[0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cone_tail_energy(0.4, 3)  # not 1-Lipschitz tail
        with pytest.raises(ValueError):
            cone_tail_energy(1.1, 3)

    def test_candidate_c1_constraint(self):
        cand = ConeTailCandidate(3, 0.5)
        assert cand.c1 == pytest.approx(0.25, rel=1e-15)
        # equality case of the 1-Lipschitz tail constraint at R = (N-2)/(N-1)
        assert cand.c1 == pytest.approx(cand.R ** (3 - 1) / (3 - 2), rel=1e-15)


class TestSpacelikeRatio:
    def test_minimizing_candidate_attains_best_constant(self):
        ratio = spacelike_ratio(ConeTailCandidate(3, 0.5))
        assert ratio == pytest.approx(best_constant_cbar(3), abs=1e-8)

    def test_non_minimizing_candidate_exceeds(self):
        assert spacelike_ratio(ConeTailCandidate(3, 0.8)) > best_constant_cbar(3)

    def test_rescaling_invariance(self):
        base = spacelike_ratio(ConeTailCandidate(3, 0.5))
        scaled = spacelike_ratio(ConeTailCandidate(3, 0.5), scale=2.0)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_random_candidates_and_scales_bounded_below(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            N = int(rng.integers(3, 6))
            lo = (N - 2) / (N - 1)
            R = float(rng.uniform(lo, 1.0))
            scale = float(rng.uniform(0.2, 5.0))
            ratio = spacelike_ratio(ConeTailCandidate(N, R), scale=scale)
            assert ratio >= best_constant_cbar(N) - 1e-6

    def test_exact_profile_bounded_below(self):
        profile = exact_radial_profile(1.0, 3, np.geomspace(1e-4, 1e3, 200))
        ratio = spacelike_ratio(profile)
        assert ratio >= best_constant_cbar(3) - 1e-6
        assert spacelike_ratio(profile, scale=2.0) == pytest.approx(ratio, abs=1e-10)

    def test_order_m_profile_rejected(self):
        profile = approx_radial_profile(1.0, 4, 3, np.geomspace(1e-4, 10, 50))
        with pytest.raises(ValueError):
            spacelike_ratio(profile)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            spacelike_ratio(ConeTailCandidate(3, 0.5), scale=0.0)
