"""Tests for the half-line quadrature engine and the exact radial field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borninfeld.core import sphere_measure
from borninfeld.quad import (
    AccuracyError,
    _gk15_panel,
    _gk15_panels,
    adaptive_gauss_kronrod,
    exact_radial_profile,
    flux_identity_residual,
    integrate_decaying,
    refined_constant_ctilde,
    shape_constant_A,
)
from borninfeld.core import best_constant_cbar


def quartic_oracle() -> float:
    # int_0^inf (1+s^4)^(-1/2) ds via the Beta identity, independently of
    # the quadrature under test.
    return math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))


class TestIntegrateDecaying:
    def test_arctan(self):
        value = integrate_decaying(lambda s: 1.0 / (1.0 + s * s), 0.0, 1e-10)
        assert value == pytest.approx(math.pi / 2, abs=1e-10)

    def test_inverse_quartic_root(self):
        value = integrate_decaying(lambda s: (1.0 + s**4) ** -0.5, 0.0, 1e-8)
        assert value == pytest.approx(quartic_oracle(), abs=1e-8)

    def test_inverse_square_from_one(self):
        value = integrate_decaying(lambda s: s**-2.0, 1.0, 1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_error_estimate_bounds_true_error(self):
        cases = [
            (lambda s: 1.0 / (1.0 + s * s), 0.0, math.pi / 2),
            (lambda s: (1.0 + s**4) ** -0.5, 0.0, quartic_oracle()),
            (lambda s: s**-2.0, 1.0, 1.0),
        ]
        for f, r0, truth in cases:
            value, bound = integrate_decaying(f, r0, 1e-9, with_error=True)
            assert abs(value - truth) <= bound
            assert bound <= 1e-9

    def test_accuracy_failure_carries_estimate(self):
        # an oscillatory-ish integrand and an absurd tolerance
        with pytest.raises(AccuracyError) as excinfo:
            adaptive_gauss_kronrod(
                lambda s: math.sin(40.0 * s) / (1.0 + s * s), 0.0, 50.0,
                abs_tol=1e-16, max_subdivisions=3,
            )
        err = excinfo.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 1e-16

    @pytest.mark.parametrize(
        "f",
        [
            lambda s: math.nan,
            lambda s: math.inf if s > 0.5 else 1.0,
            lambda s: 1.0 / (s - s) if s > 0.5 else 1.0,
            lambda s: 10.0 ** (1000.0 * s),
        ],
        ids=["nan", "inf", "zero-division", "overflow"],
    )
    def test_non_finite_integrand_is_an_accuracy_failure(self, f):
        # a NaN error bound used to pass the tolerance test and return NaN
        with pytest.raises(AccuracyError, match="not a finite binary64 number"):
            adaptive_gauss_kronrod(f, 0.0, 1.0)

    def test_batched_panels_equal_the_scalar_panel(self):
        # same nodes, same summation order: equal estimates; the bound's
        # power may round differently in numpy, so it is held to 4 ulp
        rng = np.random.default_rng(11)
        a = rng.uniform(-3.0, 3.0, 40)
        b = a + rng.uniform(1e-6, 5.0, 40)

        def f(x):
            return (1.0 + x * x * x) / (1.0 + x * x)

        values, bounds = _gk15_panels(f, a, b)
        for i in range(a.size):
            value, bound = _gk15_panel(f, float(a[i]), float(b[i]))
            assert values[i] == value
            assert bounds[i] == pytest.approx(bound, rel=4 * np.finfo(float).eps)

    def test_batched_panel_overflow_is_not_finite(self):
        values, bounds = _gk15_panels(
            lambda x: 10.0 ** (1000.0 * x), np.array([0.0, 0.0]), np.array([0.1, 1.0])
        )
        assert np.isfinite(values[0]) and np.isfinite(bounds[0])
        assert not np.isfinite(values[1])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_decaying(lambda s: 1.0, math.inf)
        with pytest.raises(ValueError):
            integrate_decaying(lambda s: 1.0, 0.0, abs_tol=-1.0)


class TestShapeConstantA:
    def test_against_beta_identity_oracle(self):
        oracle = quartic_oracle() / math.sqrt(sphere_measure(3))
        assert shape_constant_A(3) == pytest.approx(oracle, abs=1e-8)

    def test_integrand_normalization_at_zero(self):
        # the defining integrand equals 1 at s = 0
        assert (0.0 ** (2 * 2) + 1.0) ** -0.5 == 1.0

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_consistency_with_generic_path(self, N):
        p = 2 * (N - 1)
        direct = integrate_decaying(lambda s: (s**p + 1.0) ** -0.5, 0.0, 1e-12)
        assert shape_constant_A(N) == pytest.approx(
            direct * sphere_measure(N) ** (-1.0 / (N - 1)), abs=1e-10
        )

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            shape_constant_A(2)


class TestRefinedConstant:
    def test_reference_ratio(self):
        ct = refined_constant_ctilde(3)
        assert ct / sphere_measure(3) == pytest.approx(0.097, abs=0.001)

    def test_dominates_half_best_constant(self):
        assert refined_constant_ctilde(3) >= best_constant_cbar(3) / 2

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_positive(self, N):
        assert refined_constant_ctilde(N) > 0


class TestExactRadialProfile:
    def setup_method(self):
        self.rgrid = np.geomspace(1e-3, 1e3, 400)
        self.profile = exact_radial_profile(1.0, 3, self.rgrid)

    def test_flux_identity_on_resolvable_radii(self):
        grid = np.geomspace(1e-2, 1e3, 1000)
        profile = exact_radial_profile(1.0, 3, grid)
        residual = flux_identity_residual(profile)
        assert np.max(np.abs(residual)) < 1e-10

    def test_central_value_matches_shape_constant(self):
        assert self.profile.u0 == pytest.approx(shape_constant_A(3), abs=1e-6)

    def test_slope_inside_light_cone_and_approaching_it(self):
        assert np.all(np.abs(self.profile.du) <= 1.0)
        probe = exact_radial_profile(1.0, 3, np.array([1e-6, 1e-2, 1.0]))
        assert abs(probe.du[0]) > 1.0 - 1e-4

    def test_slope_value_at_unit_radius(self):
        c = 1.0 / (4 * math.pi)
        expected = -c / math.sqrt(1.0 + c * c)
        idx = np.argmin(np.abs(self.rgrid - 1.0))
        grid = np.array([0.5, 1.0, 2.0])
        profile = exact_radial_profile(1.0, 3, grid)
        assert profile.du[1] == pytest.approx(expected, rel=1e-14)
        assert abs(profile.du[1]) < 1.0

    def test_slope_consistent_with_field_differences(self):
        # centered finite differences of u reproduce du to O(h^2)
        r0 = 1.0
        h = 1e-4
        grid = np.array([r0 - h, r0, r0 + h])
        profile = exact_radial_profile(1.0, 3, grid)
        fd = (profile.u[2] - profile.u[0]) / (2 * h)
        assert fd == pytest.approx(profile.du[1], abs=1e-8)

    def test_odd_symmetry_in_strength(self):
        negated = exact_radial_profile(-1.0, 3, self.rgrid)
        assert np.array_equal(negated.u, -self.profile.u)
        assert np.array_equal(negated.du, -self.profile.du)
        assert negated.u0 == -self.profile.u0

    def test_newtonian_far_field(self):
        # u(r) * r^(N-2) -> a / ((N-2) omega_{N-1}), within 1% at r = 1e3
        target = 1.0 / (4 * math.pi)
        assert self.profile.u[-1] * self.rgrid[-1] == pytest.approx(target, rel=0.01)

    def test_monotone_decreasing_for_positive_charge(self):
        assert np.all(np.diff(self.profile.u) < 0)

    def test_strength_scaling_of_central_value(self):
        profile = exact_radial_profile(5.0, 3, self.rgrid)
        assert profile.u0 == pytest.approx(
            math.sqrt(5.0) * shape_constant_A(3), rel=1e-9
        )

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_central_value_matches_light_cone_extrapolation(self, N):
        # near the charge |u'| ~ 1 - (r^(N-1)/c)^2/2, so u(r) + r estimates
        # u0 to O(r^(2N-1)); Richardson over the two smallest radii removes
        # that term
        profile = exact_radial_profile(1.0, N, np.geomspace(1e-5, 10.0, 100))
        r0, r1 = profile.r[:2]
        est0, est1 = profile.u[0] + r0, profile.u[1] + r1
        k = 2 * N - 1
        est = est0 + (est0 - est1) * r0**k / (r1**k - r0**k)
        assert est == pytest.approx(profile.u0, abs=1e-10)

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_far_field_relative(self, N):
        # (N-2) omega r^(N-2) u(r) -> a, with relative correction O(r^(-2(N-1)))
        for a in (0.3, 1.0, -5.0):
            r = 1e6
            u = exact_radial_profile(a, N, np.array([r])).u[0]
            newton = (N - 2) * sphere_measure(N) * r ** (N - 2) * u
            assert newton == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_matches_quadrature_of_the_slope(self, N):
        # independent oracle: the tail integral of the closed-form slope
        a = 2.0
        c = a / sphere_measure(N)
        q = N - 1
        rgrid = np.geomspace(1e-3, 1e2, 12)
        profile = exact_radial_profile(a, N, rgrid)
        for r, u in zip(rgrid, profile.u):
            oracle = integrate_decaying(
                lambda s: c / math.hypot(s**q, c), float(r), 1e-13,
                max_subdivisions=200,
            )
            assert u == pytest.approx(oracle, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_radial_profile(0.0, 3, self.rgrid)
        with pytest.raises(ValueError):
            exact_radial_profile(1.0, 3, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            exact_radial_profile(1.0, 3, np.array([-1.0, 0.5]))


@settings(max_examples=40)
@given(
    N=st.integers(3, 7),
    a=st.floats(0.05, 20.0),
    r=st.floats(1e-6, 1e6),
)
def test_exact_profile_properties(N, a, r):
    rgrid = r * np.geomspace(1.0, 10.0, 5)
    profile = exact_radial_profile(a, N, rgrid)
    negated = exact_radial_profile(-a, N, rgrid)
    # odd in the strength
    assert np.array_equal(negated.u, -profile.u)
    assert negated.u0 == -profile.u0
    # strictly decreasing in r for a positive charge
    assert np.all(np.diff(profile.u) < 0)
    # the slope stays inside the light cone, so u0 - u(r) <= r up to the
    # rounding of u0
    assert np.all(profile.u0 - profile.u <= rgrid + 4 * math.ulp(profile.u0))
    # central value scaling
    assert profile.u0 == pytest.approx(
        a ** (1.0 / (N - 1)) * shape_constant_A(N), rel=1e-14
    )
