"""Tests for domain types, expansion coefficients, and closed-form constants."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from borninfeld import field, quad, radial
from borninfeld.cli import ConfigError
from borninfeld.core import (
    ChargeConfig,
    GuaranteeRangeError,
    InputError,
    _Density,
    _energy_series,
    _sigma_series,
    asymptotics_spec,
    best_constant_cbar,
    min_order_for_guarantee,
    sphere_measure,
    taylor_coefficients,
)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TestChargeConfig:
    def test_basic_properties(self):
        cfg = ChargeConfig(3, [((0, 0, 0), 1.0), ((1, 0, 0), -2.0), ((0, 3, 0), 0.5)])
        assert cfg.n == 3
        assert cfg.sum_positive() == pytest.approx(1.5)
        assert cfg.sum_negative_abs() == pytest.approx(2.0)
        assert cfg.min_distance() == pytest.approx(1.0)

    def test_single_charge_min_distance_is_infinite(self):
        assert math.isinf(ChargeConfig(3, [((0, 0, 0), 1.0)]).min_distance())

    @pytest.mark.parametrize(
        "dim,charges",
        [
            (2, [((0, 0), 1.0)]),
            (3, []),
            (3, [((0, 0, 0), 0.0)]),
            (3, [((0, 0), 1.0)]),
            (3, [((0, 0, 0), 1.0), ((0.0, 0.0, 0.0), 2.0)]),
        ],
    )
    def test_invalid_configs_rejected(self, dim, charges):
        with pytest.raises(ValueError):
            ChargeConfig(dim, charges)


class TestTaylorCoefficients:
    def test_first_orders(self):
        assert taylor_coefficients(1) == (1.0,)
        assert taylor_coefficients(2) == (1.0, 0.5)
        assert taylor_coefficients(3) == (1.0, 0.5, 3.0 / 8.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            taylor_coefficients(0)

    def test_recurrence_matches_double_factorials_exactly(self):
        # Integer-ratio arithmetic: the ratio recurrence and the
        # double-factorial definition must agree exactly through h = 30.
        frac = Fraction(1)
        for h in range(2, 31):
            frac *= Fraction(2 * h - 3, 2 * h - 2)
            exact = Fraction(double_factorial(2 * h - 3), double_factorial(2 * h - 2))
            assert frac == exact
        # and the float table reproduces the correctly rounded values
        alphas = taylor_coefficients(30)
        for h in range(2, 31):
            exact = Fraction(double_factorial(2 * h - 3), double_factorial(2 * h - 2))
            assert alphas[h - 1] == float(exact)

    def test_strictly_decreasing(self):
        alphas = taylor_coefficients(200)
        assert all(a > b > 0 for a, b in zip(alphas, alphas[1:]))

    def test_large_order_no_overflow(self):
        alphas = taylor_coefficients(10_000)
        assert alphas[-1] > 0
        assert alphas[-1] < 1e-2


def _partial_sum(t: float, m: int) -> float:
    """Order-m truncation sum_{h<=m} (alpha_h/2h) t^(2h) of 1 - sqrt(1-t^2)."""
    return _energy_series(t * t, taylor_coefficients(m))


class TestLagrangianPartialSum:
    def test_zero_input(self):
        assert _partial_sum(0.0, 7) == 0.0

    def test_first_order_is_half_square(self):
        assert _partial_sum(0.6, 1) == pytest.approx(0.18, abs=1e-15)

    def test_converges_to_closed_form(self):
        target = 1.0 - math.sqrt(1.0 - 0.81)
        assert _partial_sum(0.9, 50) == pytest.approx(target, abs=1e-3)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.99])
    def test_monotone_in_order_and_bounded(self, t):
        closed = 1.0 - math.sqrt(1.0 - t * t)
        previous = -1.0
        for m in (1, 2, 5, 10, 40, 100):
            value = _partial_sum(t, m)
            assert value >= previous
            assert value <= closed + 1e-15
            previous = value

    def test_gap_small_at_order_100(self):
        closed = 1.0 - math.sqrt(1.0 - 0.81)
        assert closed - _partial_sum(0.9, 100) < 1e-4

    @pytest.mark.parametrize("m", [1, 2, 16, 64])
    def test_density_series_matches_fsum_definitions(self, m):
        # Horner over non-negative terms: relative error below 2m roundoffs,
        # plus the roundoff of the powers in the fsum reference.
        alphas = taylor_coefficients(m)
        s = np.linspace(0.0, 4.0, 41)
        W = _energy_series(s, alphas)
        sigma, dsigma = _sigma_series(s, alphas)
        # the in-place Horner updates its own accumulators, never the input
        assert np.array_equal(s, np.linspace(0.0, 4.0, 41))
        rel = 4 * m * 2.0**-53
        for i, x in enumerate(s.tolist()):
            for y in (x, np.float64(x)):
                assert _energy_series(y, alphas) == W[i]
                assert _sigma_series(y, alphas) == (sigma[i], dsigma[i])
            exact = (
                math.fsum(a / (2 * k) * x**k for k, a in enumerate(alphas, 1)),
                math.fsum(a * x ** (k - 1) for k, a in enumerate(alphas, 1)),
                math.fsum(
                    (k - 1) * a * x ** (k - 2) for k, a in enumerate(alphas, 1) if k > 1
                ),
            )
            for got, want in zip((W[i], sigma[i], dsigma[i]), exact):
                assert abs(got - want) <= rel * want


def closed_form_bound(m: int) -> float:
    """tau_m as ``_Density`` documents it."""
    return min(0.5, (2.0**-56 / m) ** (1.0 / (m - 1)))


def horner(s, alphas):
    return (_energy_series(s, alphas), *_sigma_series(s, alphas))


def density(s, alphas):
    d = _Density(s, alphas)
    return (d.energy(), *d.sigma())


class TestDensity:
    ORDERS = [4, 8, 16, 64, 1000, 10_000]

    @pytest.mark.parametrize("m", ORDERS)
    def test_closed_form_within_4_ulp_of_horner_up_to_tau(self, m):
        alphas, tau = taylor_coefficients(m), closed_form_bound(m)
        s = np.concatenate(
            [[0.0], np.geomspace(1e-300, tau, 1500), np.linspace(0.0, tau, 1500)]
        )
        assert _Density(s, alphas).near.size == 0
        for got, want in zip(density(s, alphas), horner(s, alphas)):
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("size", [3, 16, 17, 400])
    def test_horner_bit_for_bit_above_tau(self, m, size):
        # up to 16 entries Horner runs on Python floats, from 17 on arrays
        alphas, tau = taylor_coefficients(m), closed_form_bound(m)
        above = np.append(np.nextafter(tau, 2.0), np.linspace(tau, 1.05, size)[1:])
        below = np.linspace(0.0, tau, 7)
        s = np.concatenate([below, above])
        s = s[np.random.default_rng(m).permutation(s.size)]
        far, near = s <= tau, s > tau
        assert np.array_equal(_Density(s, alphas).near, np.flatnonzero(near))
        for got, want, closed in zip(density(s, alphas), horner(s[near], alphas),
                                     horner(s[far], alphas)):
            assert np.array_equal(got[near], want)
            assert np.all(np.abs(got[far] - closed) <= 4 * np.finfo(float).eps * closed)

    @pytest.mark.parametrize("m", ORDERS)
    def test_dropped_tail_at_tau_below_2_to_minus_56(self, m):
        # the tails of W, sigma and sigma' beyond order m, summed exactly
        # until the next term is below 2^-200 of the tail
        import mpmath as mp

        with mp.workdps(60):
            s = mp.mpf(closed_form_bound(m))
            alpha = mp.mpf(1)
            for h in range(1, m):
                alpha *= mp.mpf(2 * h - 1) / (2 * h)
            tails, k = [mp.mpf(0)] * 3, m
            while True:
                alpha *= mp.mpf(2 * k - 1) / (2 * k)
                k += 1
                power = s ** (k - 2)
                terms = [alpha / (2 * k) * power * s * s, alpha * power * s,
                         (k - 1) * alpha * power]
                tails = [t + x for t, x in zip(tails, terms)]
                if terms[2] < tails[2] * mp.mpf(2) ** -200:
                    break
            root = mp.sqrt(1 - s)
            for tail, value in zip(tails, [1 - root, 1 / root, 1 / (2 * root**3)]):
                assert tail <= value * mp.mpf(2) ** -56

    @pytest.mark.parametrize("size", [3, 40])
    def test_inf_and_nan_give_inf_or_nan_without_warning(self, size):
        alphas = taylor_coefficients(16)
        s = np.linspace(0.0, 2.0, size)
        s[:2] = np.inf, np.nan
        assert np.array_equal(_Density(s, alphas).near[:2], [0, 1])  # both to Horner
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = density(s, alphas)
        for v in values:
            assert not np.any(np.isfinite(v[:2]))
            assert np.all(np.isfinite(v[2:]))


class TestSphereMeasure:
    def test_known_values(self):
        assert sphere_measure(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_measure(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert sphere_measure(4) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sphere_measure(1)


class TestBestConstant:
    def test_three_dimensions(self):
        assert best_constant_cbar(3) == pytest.approx(2 * math.pi / 3, abs=1e-14)

    def test_four_dimensions(self):
        assert best_constant_cbar(4) == pytest.approx(8 * math.pi**2 / 27, rel=1e-14)

    @pytest.mark.parametrize("N", range(3, 12))
    def test_positive(self, N):
        assert best_constant_cbar(N) > 0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            best_constant_cbar(2)


class TestAsymptoticsSpec:
    def test_out_of_range_raises_then_overrides(self):
        assert min_order_for_guarantee(3) == 4
        with pytest.raises(GuaranteeRangeError):
            asymptotics_spec(2, 3, -1.0)
        spec = asymptotics_spec(2, 3, -1.0, override_guarantee=True)
        assert not spec.guaranteed
        # kappa_2(3) = -3 (4 pi)^(-1/3) = -1.290381...
        assert spec.kappa == pytest.approx(-3.0 * (4 * math.pi) ** (-1 / 3), rel=1e-12)
        assert spec.kappa == pytest.approx(-1.2904, abs=1e-4)

    def test_order_four_constants(self):
        spec = asymptotics_spec(4, 3, 1.0)
        assert spec.guaranteed
        assert spec.u_exponent == pytest.approx(5 / 7, rel=1e-15)
        assert spec.grad_exponent == pytest.approx(-2 / 7, rel=1e-15)
        gamma = (16 / 5) ** (1 / 7)
        kappa = -(7 / 5) * (4 * math.pi) ** (-1 / 7)
        assert spec.K == pytest.approx(gamma * kappa, rel=1e-12)
        assert spec.K == pytest.approx(-1.1515, abs=1e-4)
        assert spec.Kprime == pytest.approx(0.8225, abs=1e-4)
        assert spec.holder == pytest.approx(1 - 3 / 8, rel=1e-15)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("a", [-2.0, -1.0, 0.5, 1.0, 3.0])
    def test_sign_and_identity_invariants(self, N, a):
        for m in (4, 7, 12, 40):
            spec = asymptotics_spec(m, N, a)
            assert spec.K * a < 0
            assert spec.Kprime == pytest.approx(
                (2 * m - N) / (2 * m - 1) * abs(spec.K), rel=1e-15
            )

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_K_approaches_one_monotonically(self, N):
        values = [abs(asymptotics_spec(m, N, 1.0).K) for m in range(4, 201)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d < 0 for d in diffs)  # decreasing toward 1
        assert values[-1] > 1.0
        assert values[-1] - 1.0 < 0.1 * (values[0] - 1.0)

    def test_pole_at_2m_equal_N(self):
        with pytest.raises(ValueError):
            asymptotics_spec(2, 4, 1.0, override_guarantee=True)

    def test_zero_strength_rejected(self):
        with pytest.raises(ValueError):
            asymptotics_spec(4, 3, 0.0)


class TestInputError:
    """Each hypothesis is checked by one function and fails with one message."""

    RGRID = np.geomspace(1e-3, 1e2, 16)

    def test_hierarchy(self):
        assert issubclass(GuaranteeRangeError, InputError)
        assert issubclass(ConfigError, InputError)
        assert issubclass(InputError, ValueError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda N: ChargeConfig(N, [((0.0,) * 3, 1.0)]),
            best_constant_cbar,
            min_order_for_guarantee,
            lambda N: asymptotics_spec(4, N, 1.0),
            quad.shape_constant_A,
            quad.refined_constant_ctilde,
            lambda N: quad.exact_radial_profile(1.0, N, TestInputError.RGRID),
            lambda N: radial.approx_radial_profile(1.0, 4, N, TestInputError.RGRID),
            lambda N: radial.ConeTailCandidate(N, 0.9),
        ],
    )
    @pytest.mark.parametrize("N", [2, 3.0, True])
    def test_dimension(self, call, N):
        with pytest.raises(InputError, match="^dimension must be an integer >= 3, got"):
            call(N)

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: ChargeConfig(3, [((0.0,) * 3, a)]),
            lambda a: asymptotics_spec(4, 3, a),
            lambda a: quad.exact_radial_profile(a, 3, TestInputError.RGRID),
            lambda a: radial.flux_gradient_magnitude(1.0, a, 4, 3),
            lambda a: radial.approx_radial_profile(a, 4, 3, TestInputError.RGRID),
        ],
    )
    @pytest.mark.parametrize("a", [0.0, -0.0, math.inf, math.nan])
    def test_strength(self, call, a):
        with pytest.raises(
            InputError, match=r"^charge strength must be finite and nonzero, got "
        ):
            call(a)

    @pytest.mark.parametrize(
        "call",
        [
            taylor_coefficients,
            lambda m: asymptotics_spec(m, 3, 1.0),
            lambda m: radial.approx_radial_profile(1.0, m, 3, TestInputError.RGRID),
            lambda m: field.assemble_problem(
                ChargeConfig(3, [((0.0,) * 3, 1.0)]), -1.0, 1.0, 0.25, m
            ),
        ],
    )
    @pytest.mark.parametrize("m", [0, -2, 4.0, True])
    def test_order(self, call, m):
        with pytest.raises(InputError, match=r"^order m must be an integer >= 1, got "):
            call(m)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: quad.exact_radial_profile(1.0, 3, r),
            lambda r: radial.approx_radial_profile(1.0, 4, 3, r),
        ],
    )
    @pytest.mark.parametrize("rgrid", [[], [1.0, 0.5], [0.0, 1.0], [[1.0, 2.0]]])
    def test_radius_grid(self, call, rgrid):
        with pytest.raises(
            InputError, match=r"^rgrid must be strictly increasing and positive$"
        ):
            call(rgrid)

    def test_sphere_measure_beyond_binary64(self):
        # Gamma(344/2) ~ 1.2e309 is the first Gamma(N/2) past binary64
        assert math.isfinite(sphere_measure(343))
        with pytest.raises(InputError, match="Gamma"):
            sphere_measure(344)
