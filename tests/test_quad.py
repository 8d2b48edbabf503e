"""Tests for the batched quadrature engine and the exact radial field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from borninfeld import quad
from borninfeld.core import sphere_measure
from borninfeld.quad import (
    AccuracyError,
    _complete_beta,
    _gk15_panels,
    _incomplete_beta,
    _single_charge_field,
    adaptive_gauss_kronrod,
    exact_radial_profile,
    flux_identity_residual,
    refined_constant_ctilde,
    shape_constant_A,
)
from borninfeld.core import best_constant_cbar
from gk15_oracle import adaptive_gauss_kronrod as oracle_engine
from gk15_oracle import gk15_panel
from gk15_oracle import integrate_decaying as oracle_half_line


def quartic_oracle() -> float:
    # int_0^inf (1+s^4)^(-1/2) ds via the Beta identity, independently of
    # the quadrature under test.
    return math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))


def _half_line(f):
    """f on [0, inf) as an integrand on t in [0, 1), r = t/(1-t)."""
    return lambda t: f(t / (1.0 - t)) / (1.0 - t) ** 2


class TestIntegrateDecaying:
    """The engine ``adaptive_gauss_kronrod``, on finite and mapped half-lines."""

    def test_error_estimate_bounds_true_error(self):
        cases = [
            (lambda s: 1.0 / (1.0 + s * s), 0.0, 1.0, math.pi / 4),
            (_half_line(lambda s: 1.0 / (1.0 + s * s)), 0.0, 1.0, math.pi / 2),
            (_half_line(lambda s: (1.0 + s**4) ** -0.5), 0.0, 1.0, quartic_oracle()),
            (lambda s: s**-2.0, 1.0, 100.0, 0.99),
        ]
        for f, a, b, truth in cases:
            value, bound = adaptive_gauss_kronrod(f, a, b, 1e-9)
            assert abs(value - truth) <= bound
            assert bound <= 1e-9

    def test_accuracy_failure_carries_estimate(self):
        # an oscillatory-ish integrand and an absurd tolerance
        with pytest.raises(AccuracyError) as excinfo:
            adaptive_gauss_kronrod(
                lambda s: np.sin(40.0 * s) / (1.0 + s * s), 0.0, 50.0,
                abs_tol=1e-16, max_subdivisions=3,
            )
        err = excinfo.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 1e-16
        assert err.interval == 0

    @pytest.mark.parametrize(
        "f",
        [
            lambda s: np.full_like(s, np.nan),
            lambda s: np.where(s > 0.5, np.inf, 1.0),
            lambda s: np.where(s > 0.5, 1.0 / (s - s), 1.0),
            lambda s: 10.0 ** (1000.0 * s),
        ],
        ids=["nan", "inf", "zero-division", "overflow"],
    )
    def test_non_finite_integrand_is_an_accuracy_failure(self, f):
        # a NaN error bound used to pass the tolerance test and return NaN
        with pytest.raises(AccuracyError, match="not a finite binary64 number"):
            adaptive_gauss_kronrod(f, 0.0, 1.0)

    def test_batched_panels_equal_the_scalar_panel(self):
        # same nodes and weights; the batched sums are matrix products, whose
        # rounding differs from the scalar running sums by a few ulp.  The
        # bound scales |Kronrod - Gauss| by (200 |K - G|/asc)^1.5, whose slope
        # reaches 300, so it moves by up to 300 times a few ulp of the panel's
        # integral of |f| (measured: values 1.3 ulp apart, bounds 121 ulp of
        # that integral)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        a = rng.uniform(-3.0, 3.0, 40)
        b = a + rng.uniform(1e-6, 5.0, 40)

        def f(x):
            return (1.0 + x * x * x) / (1.0 + x * x)

        values, bounds = _gk15_panels(f, a, b)
        for i in range(a.size):
            value, bound = gk15_panel(f, float(a[i]), float(b[i]))
            l1, _ = gk15_panel(lambda x: abs(f(x)), float(a[i]), float(b[i]))
            assert values[i] == pytest.approx(value, rel=4 * eps)
            assert bounds[i] == pytest.approx(bound, abs=512 * eps * l1)

    def test_failure_names_its_interval(self):
        # the first interval whose panel leaves binary64, in flat order
        with pytest.raises(AccuracyError, match=r"on \[2, 3\]") as excinfo:
            adaptive_gauss_kronrod(
                lambda s: np.where(s > 2.5, np.inf, 1.0), [0.0, 1.0, 2.0, 3.0],
                [1.0, 2.0, 3.0, 4.0],
            )
        assert excinfo.value.interval == 2

    def test_split_budget_is_per_interval(self):
        # 15 nodes per panel: the first pass and at most 2 panels per split
        nodes = []

        def f(x):
            nodes.append(x.size)
            return np.sin(40.0 * x) / (1.0 + x * x)

        with pytest.raises(AccuracyError, match="within 3 subdivisions"):
            adaptive_gauss_kronrod(f, [0.0, 0.0], [1e-3, 50.0], 1e-16, 3)
        assert sum(nodes) <= 15 * (2 + 2 * 3)

    def test_intervals_match_the_scalar_engine(self):
        # each interval is its own integral, held to its own target
        lo = np.array([0.0, 0.5, 2.0, 7.0, 7.0])
        hi = np.array([0.5, 2.0, 7.0, 7.0, 30.0])

        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x) + np.sqrt(x)

        values, bounds = adaptive_gauss_kronrod(f, lo, hi, 1e-12, 200, 1e-13)
        assert values[3] == 0.0 and bounds[3] == 0.0
        for i in range(lo.size):
            value, _ = oracle_engine(f, lo[i], hi[i], 1e-12, 200, 1e-13)
            assert bounds[i] <= max(1e-12, 1e-13 * abs(values[i]))
            assert values[i] == pytest.approx(value, abs=2e-12)

    def test_batched_panel_overflow_is_not_finite(self):
        values, bounds = _gk15_panels(
            lambda x: 10.0 ** (1000.0 * x), np.array([0.0, 0.0]), np.array([0.1, 1.0])
        )
        assert np.isfinite(values[0]) and np.isfinite(bounds[0])
        assert not np.isfinite(values[1])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="inverted interval"):
            adaptive_gauss_kronrod(lambda s: s, [0.0, 2.0], [1.0, 1.0])


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
        direct, _ = oracle_half_line(lambda s: (s**p + 1.0) ** -0.5, 0.0, 1e-12)
        assert shape_constant_A(N) == pytest.approx(
            direct * sphere_measure(N) ** (-1.0 / (N - 1)), abs=1e-10
        )

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            shape_constant_A(2)

    def test_gamma_product_beta_against_mpmath(self):
        # On these arguments each math.gamma value is within 5.1e-16 of the
        # true Gamma; scipy.special.beta is off by up to 6.1e-16, the Gamma
        # product by up to 6.2e-16 (at N = 256).
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for N in range(3, 344):
                p = 2 * (N - 1)
                alpha, beta = 0.5 - 1.0 / p, 1.0 / p
                exact = mpmath.beta(mpmath.mpf(alpha), mpmath.mpf(beta))
                rel = abs((_complete_beta(alpha, beta) - exact) / exact)
                worst = max(worst, float(rel))
        assert worst <= 3 * math.ulp(1.0)


class TestRefinedConstant:
    def test_reference_ratio(self):
        ct = refined_constant_ctilde(3)
        assert ct / sphere_measure(3) == pytest.approx(0.097, abs=0.001)

    def test_dominates_half_best_constant(self):
        assert refined_constant_ctilde(3) >= best_constant_cbar(3) / 2

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_positive(self, N):
        assert refined_constant_ctilde(N) > 0

    def test_every_dimension_is_right_or_raises(self):
        # Ctilde(N) = omega [-Gamma(1 + 1/(2q)) Gamma(-1/2 - 1/(2q)) / (2q sqrt(pi))]
        # / B^N, q = N - 1.  The numerator quadrature once returned 2.6e-11 at
        # N = 92, against 0.011, with no error raised, and from N = 88 its
        # integrand overflowed to inf/inf; every N the dimension guard admits
        # must now give the Gamma form
        for N in range(3, 344):
            q = N - 1
            B = _complete_beta(0.5 - 1.0 / (2 * q), 1.0 / (2 * q)) / (2 * q)
            gamma_form = (
                sphere_measure(N)
                * -math.gamma(1 + 1 / (2 * q)) * math.gamma(-0.5 - 1 / (2 * q))
                / (2 * q * math.sqrt(math.pi)) / B**N
            )
            assert refined_constant_ctilde(N) == pytest.approx(gamma_form, rel=1e-9), N


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
            oracle, _ = oracle_half_line(
                lambda s: c / np.hypot(s**q, c), float(r), 1e-13, max_subdivisions=200
            )
            assert u == pytest.approx(oracle, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_radial_profile(0.0, 3, self.rgrid)
        with pytest.raises(ValueError):
            exact_radial_profile(1.0, 3, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            exact_radial_profile(1.0, 3, np.array([-1.0, 0.5]))


def _beta_pair(N):
    p = 2 * (N - 1)
    return 0.5 - 1.0 / p, 1.0 / p


def _charge_length(N):
    return (1.0 / sphere_measure(N)) ** (1.0 / (N - 1))


def _beta_accuracy(N):
    """Relative accuracy of u/u0 = I_w against scipy.special, by dimension."""
    return 4e-15 if N == 3 else 2e-14 if N <= 20 else 6e-14


class TestIncompleteBeta:
    """The numpy I_w of the exact field against scipy.special as oracle.

    The suite turns every RuntimeWarning into an error, so each case also
    shows that no overflow, underflow or division warning escapes.
    """

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 20, 65])
    def test_field_matches_scipy(self, N):
        # (r/L)^p over [1e-290, 1e290], denser where w = 1/(1 + (r/L)^p) is
        # near 1/2 and the reflected branch subtracts from 1
        alpha, beta = _beta_pair(N)
        length = _charge_length(N)
        xs = np.concatenate([np.logspace(-290, 290, 20001), np.linspace(0.25, 4.0, 20001)])
        r = np.unique(length * xs ** (1.0 / (2 * (N - 1))))
        u0, u = _single_charge_field(1.0, N, r)
        with np.errstate(over="ignore", divide="ignore"):
            x = (r / length) ** (2 * (N - 1))
            w, w_comp = 1.0 / (1.0 + x), 1.0 / (1.0 + 1.0 / x)
        oracle = np.where(
            w <= 0.5, special.betainc(alpha, beta, w), special.betaincc(beta, alpha, w_comp)
        )
        assert np.max(np.abs(u / u0 - oracle) / oracle) <= _beta_accuracy(N)

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 20, 65])
    def test_branches_agree_at_one_half(self, N):
        alpha, beta = _beta_pair(N)
        half = np.array([0.5])
        lower = _incomplete_beta(half, half, alpha, beta)[0]
        upper = 1.0 - _incomplete_beta(half, half, beta, alpha)[0]
        assert abs(lower - upper) <= 4 * math.ulp(1.0)
        assert lower == pytest.approx(special.betainc(alpha, beta, 0.5), abs=4 * math.ulp(1.0))

    @pytest.mark.parametrize("N", [3, 4, 7, 65])
    def test_end_points_are_exact(self, N):
        alpha, beta = _beta_pair(N)
        for a, b in ((alpha, beta), (beta, alpha)):
            assert _incomplete_beta(np.array([0.0]), np.array([1.0]), a, b)[0] == 0.0
        # a radius so far that (r/L)^p overflows gives w = 0, and one so
        # close that it underflows gives w_comp = 0: u = 0 and u = u0 exactly
        u0, u = _single_charge_field(1.0, N, np.array([1e-300, 1e300]))
        assert u[0] == u0
        assert u[1] == 0.0

    def test_non_convergence_is_an_accuracy_error(self, monkeypatch):
        # two terms settle no x > 0 to one ulp; the cap must raise, not
        # return the partial fraction
        monkeypatch.setattr(quad, "_BETA_MAX_TERMS", 2)
        with pytest.raises(AccuracyError, match="not converged after 2 terms"):
            exact_radial_profile(1.0, 3, np.array([0.5, 1.0, 2.0]))


@settings(max_examples=60)
@given(
    N=st.integers(3, 65),
    x=st.lists(st.floats(1e-12, 1e12), min_size=1, max_size=12),
)
def test_incomplete_beta_is_monotone_in_w(N, x):
    # u/u0 = I_w with w = 1/(1 + (r/L)^p), so I_w nondecreasing in w is u
    # nonincreasing in r.  Radii one ulp apart, here either side of r = L
    # where the reflected branch takes over at w = 1/2, can differ by less
    # than the rounding of I_w, so a step up is allowed up to twice its
    # accuracy; a wrong branch or reflection would step by far more.
    length = _charge_length(N)
    near = [np.nextafter(length, 0.0), length, np.nextafter(length, np.inf)]
    r = np.unique(np.concatenate([length * np.asarray(x) ** (1.0 / (2 * (N - 1))), near]))
    u0, u = _single_charge_field(1.0, N, r)
    assert np.all(np.diff(u) <= 2 * _beta_accuracy(N) * u[1:])
    assert np.all((0.0 <= u) & (u <= u0))


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
