"""Tests for the solvability certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borninfeld.conditions import (
    NotApplicableError,
    VerdictLevel,
    check_global,
    check_refined,
    check_two_charge,
)
from borninfeld.core import ChargeConfig, best_constant_cbar, sphere_measure
from borninfeld.quad import refined_constant_ctilde, shape_constant_A


def dipole(distance: float, a1: float = 1.0, a2: float = -1.0) -> ChargeConfig:
    return ChargeConfig(3, [((0.0, 0.0, 0.0), a1), ((distance, 0.0, 0.0), a2)])


def _scaled(config: ChargeConfig, factor: float) -> ChargeConfig:
    """Same strengths with every position scaled by ``factor`` > 0."""
    return ChargeConfig(
        config.dim,
        [(tuple(factor * x for x in c.pos), c.strength) for c in config.charges],
    )


# Thresholds re-derived from scratch for the unit dipole in N = 3:
#   global:     (3/(4 pi))^(1/2) * 2 * (1 + 1)        = 1.954410...
#   refined:    (0.097 * 4 pi)^(-1/2) * (1 + 1)       = 1.811504...
#   two-charge: 2 * A(3)                               = 1.046050...
GLOBAL_LHS = math.sqrt(3.0 / (4.0 * math.pi)) * 2.0 * 2.0
REFINED_LHS = (0.097 * 4.0 * math.pi) ** -0.5 * 2.0
TWO_CHARGE_LHS = 2.0 * math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi)) / math.sqrt(
    4.0 * math.pi
)


class TestGlobalRule:
    def test_wide_dipole_is_classical(self):
        verdict = check_global(dipole(2.0))
        assert verdict.level is VerdictLevel.GLOBAL_CLASSICAL
        assert verdict.lhs == pytest.approx(GLOBAL_LHS, rel=1e-12)
        assert verdict.lhs == pytest.approx(1.95441, abs=5e-6)
        assert verdict.margin == pytest.approx(2.0 - GLOBAL_LHS, rel=1e-9)

    def test_narrow_dipole_is_inconclusive(self):
        verdict = check_global(dipole(1.5))
        assert verdict.level is VerdictLevel.INCONCLUSIVE
        assert verdict.margin < 0

    def test_single_charge_short_circuit(self):
        verdict = check_global(ChargeConfig(3, [((0, 0, 0), 5.0)]))
        assert verdict.level is VerdictLevel.GLOBAL_CLASSICAL
        assert math.isinf(verdict.margin)

    def test_empty_sign_class_contributes_zero(self):
        cfg = ChargeConfig(3, [((0, 0, 0), 1.0), ((9.0, 0, 0), 1.0)])
        verdict = check_global(cfg)
        expected = math.sqrt(3.0 / (4 * math.pi)) * 2.0 * (2.0**0.5 + 0.0)
        assert verdict.lhs == pytest.approx(expected, rel=1e-12)

    def test_guard_band_reports_inconclusive(self):
        lhs = check_global(dipole(2.0)).lhs
        verdict = check_global(dipole(lhs))  # margin identically ~0
        assert verdict.level is VerdictLevel.INCONCLUSIVE


class TestRefinedRule:
    def setup_method(self):
        self.ctilde = 0.097 * sphere_measure(3)

    def test_threshold_value(self):
        verdict = check_refined(dipole(5.0), self.ctilde)
        assert verdict.lhs == pytest.approx(REFINED_LHS, rel=1e-12)
        assert verdict.lhs == pytest.approx(1.81150, abs=5e-6)

    def test_weaker_than_global_on_window(self):
        # distance between the two thresholds: refined concludes, global not
        verdict_r = check_refined(dipole(1.9), self.ctilde)
        verdict_g = check_global(dipole(1.9))
        assert verdict_r.level is VerdictLevel.GLOBAL_CLASSICAL
        assert verdict_g.level is VerdictLevel.INCONCLUSIVE

    def test_refined_lhs_never_exceeds_global_lhs(self):
        ctilde = refined_constant_ctilde(3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            pts = rng.uniform(-3, 3, (n, 3))
            while len({tuple(p) for p in pts}) < n:
                pts = rng.uniform(-3, 3, (n, 3))
            strengths = rng.uniform(0.2, 3.0, n) * rng.choice([-1, 1], n)
            cfg = ChargeConfig(3, [(tuple(p), s) for p, s in zip(pts, strengths)])
            assert (
                check_refined(cfg, ctilde).lhs
                <= check_global(cfg).lhs * (1 + 1e-12)
            )

    def test_per_segment_detail(self):
        cfg = ChargeConfig(
            3,
            [((0, 0, 0), 1.0), ((1.0, 0, 0), -1.0), ((9.0, 0, 0), -1.0)],
        )
        verdict = check_refined(cfg, self.ctilde)
        assert verdict.level is VerdictLevel.INCONCLUSIVE  # min distance 1.0
        by_pair = {(p.j, p.l): p.level for p in verdict.per_segment}
        assert by_pair[(0, 1)] is VerdictLevel.INCONCLUSIVE
        assert by_pair[(0, 2)] is VerdictLevel.SEGMENT_CLASSICAL
        assert by_pair[(1, 2)] is VerdictLevel.SAME_SIGN_SEGMENT

    def test_invalid_ctilde(self):
        with pytest.raises(ValueError):
            check_refined(dipole(2.0), 0.0)


class TestTwoChargeRule:
    def test_threshold_and_outcomes(self):
        verdict = check_two_charge(dipole(1.2))
        assert verdict.level is VerdictLevel.TWO_CHARGE_CLASSICAL
        assert verdict.lhs == pytest.approx(TWO_CHARGE_LHS, abs=1e-8)
        assert verdict.lhs == pytest.approx(1.04605, abs=5e-6)
        assert check_two_charge(dipole(1.0)).level is VerdictLevel.INCONCLUSIVE

    def test_same_sign_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_two_charge(dipole(2.0, 1.0, 2.0))

    def test_wrong_count_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_two_charge(ChargeConfig(3, [((0, 0, 0), 1.0)]))

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_never_stricter_than_global(self, N):
        # 2 A(N) <= (2/Cbar)^(1/(N-1)) * 2 for the unit dipole
        two = 2.0 * shape_constant_A(N)
        glob = (2.0 / best_constant_cbar(N)) ** (1.0 / (N - 1)) * 2.0
        assert two <= glob


class TestOrderingAndInvariance:
    def test_threshold_ordering(self):
        assert TWO_CHARGE_LHS < REFINED_LHS < GLOBAL_LHS

    def test_scale_covariance(self):
        base = dipole(2.0)
        v0 = check_global(base)
        for lam in (1.0, 1.5, 4.0, 100.0):
            v = check_global(_scaled(base, lam))
            assert v.lhs == pytest.approx(v0.lhs, rel=1e-12)
            assert v.rhs == pytest.approx(lam * v0.rhs, rel=1e-12)
            assert v.level is VerdictLevel.GLOBAL_CLASSICAL

    def test_shrinking_strengths_preserves_classical(self):
        rng = np.random.default_rng(11)
        base = dipole(2.0)
        assert check_global(base).level is VerdictLevel.GLOBAL_CLASSICAL
        for _ in range(20):
            f1, f2 = rng.uniform(0.05, 1.0, 2)
            cfg = dipole(2.0, 1.0 * f1, -1.0 * f2)
            assert check_global(cfg).level is VerdictLevel.GLOBAL_CLASSICAL

    def test_verdicts_are_one_sided(self):
        # INCONCLUSIVE carries no assertion; conclusive levels require
        # a positive margin.
        for d in (0.5, 1.0, 1.5, 2.0, 3.0):
            v = check_global(dipole(d))
            if v.level is not VerdictLevel.INCONCLUSIVE:
                assert v.margin > 0
            ctilde = 0.097 * sphere_measure(3)
            vr = check_refined(dipole(d), ctilde)
            if vr.level is not VerdictLevel.INCONCLUSIVE:
                assert vr.margin > 0


class TestClassifySegments:
    def test_same_sign_always_classical(self):
        cfg = ChargeConfig(3, [((0, 0, 0), 1.0), ((0.05, 0, 0), 2.0)])
        pairs = check_refined(cfg, 0.097 * sphere_measure(3)).per_segment
        assert len(pairs) == 1
        assert pairs[0].level is VerdictLevel.SAME_SIGN_SEGMENT

    def test_mixed_pair_far_apart(self):
        pairs = check_refined(dipole(50.0), 0.097 * sphere_measure(3)).per_segment
        assert pairs[0].level is VerdictLevel.SEGMENT_CLASSICAL

    def test_single_charge_empty(self):
        single = ChargeConfig(3, [((0, 0, 0), 1.0)])
        assert check_refined(single, refined_constant_ctilde(3)).per_segment is None

    def test_triple_mixed(self):
        cfg = ChargeConfig(
            3, [((0, 0, 0), 1.0), ((0.2, 0, 0), 2.0), ((5.0, 0, 0), -1.0)]
        )
        pairs = check_refined(cfg, 0.097 * sphere_measure(3)).per_segment
        levels = {(p.j, p.l): p.level for p in pairs}
        assert levels[(0, 1)] is VerdictLevel.SAME_SIGN_SEGMENT
        assert levels[(0, 2)] is VerdictLevel.SEGMENT_CLASSICAL
        assert levels[(1, 2)] is VerdictLevel.SEGMENT_CLASSICAL

    def test_equals_the_refined_per_segment_levels(self):
        # one pair of each level: same sign, cleared, inside the threshold
        cfg = ChargeConfig(
            3, [((0, 0, 0), 1.0), ((0.2, 0, 0), 2.0), ((5.0, 0, 0), -1.0),
                ((0, 1.0, 0), -0.5)]
        )
        ctilde = refined_constant_ctilde(3)
        pairs = check_refined(cfg, ctilde).per_segment
        assert {p.level for p in pairs} == {
            VerdictLevel.SAME_SIGN_SEGMENT,
            VerdictLevel.SEGMENT_CLASSICAL,
            VerdictLevel.INCONCLUSIVE,
        }


# ---------------------------------------------------------------------------
# Properties: every certificate compares a strength bracket with distances
# ---------------------------------------------------------------------------

CTILDE = {N: refined_constant_ctilde(N) for N in range(3, 8)}


@st.composite
def charge_configs(draw):
    """2-5 charges in N = 3..7 with |a| in [0.05, 5] of either sign, on a
    small lattice whose spacing, 0.05 to 1, puts separations on both sides
    of the certificate thresholds (about 1 to 3 here)."""
    N = draw(st.integers(3, 7))
    n = draw(st.integers(2, 5))
    spacing = draw(st.floats(0.05, 1.0))
    lattice = st.tuples(*[st.integers(-3, 3)] * N)
    positions = [
        tuple(spacing * k for k in point)
        for point in draw(st.lists(lattice, min_size=n, max_size=n, unique=True))
    ]
    strengths = draw(
        st.lists(
            st.tuples(st.floats(0.05, 5.0), st.booleans()).map(
                lambda t: -t[0] if t[1] else t[0]
            ),
            min_size=n,
            max_size=n,
        )
    )
    return ChargeConfig(N, list(zip(positions, strengths)))


def certificates(config: ChargeConfig) -> dict:
    """Every verdict that applies to ``config``, by rule."""
    out = {
        "global": check_global(config),
        "refined": check_refined(config, CTILDE[config.dim]),
    }
    if config.n == 2 and config.strengths[0] * config.strengths[1] < 0:
        out["two-charge"] = check_two_charge(config)
    return out


def with_strengths(config: ChargeConfig, factor: float) -> ChargeConfig:
    return ChargeConfig(
        config.dim, [(c.pos, factor * c.strength) for c in config.charges]
    )


@settings(max_examples=50)
@given(config=charge_configs(), lam=st.floats(1.01, 10.0))
def test_spreading_charges_never_hurts(config, lam):
    before, after = certificates(config), certificates(_scaled(config, lam))
    for rule, v in before.items():
        assert after[rule].margin >= v.margin, rule
        if v.conclusive:
            assert after[rule].conclusive, rule
    kept = {
        (p.j, p.l) for p in before["refined"].per_segment
        if p.level is VerdictLevel.SEGMENT_CLASSICAL
    }
    for p in after["refined"].per_segment:
        if (p.j, p.l) in kept:
            assert p.level is VerdictLevel.SEGMENT_CLASSICAL
    assert kept <= {
        (p.j, p.l) for p in after["refined"].per_segment
        if p.level is VerdictLevel.SEGMENT_CLASSICAL
    }


@settings(max_examples=50)
@given(config=charge_configs(), lam=st.floats(1.01, 10.0))
def test_stronger_charges_never_help(config, lam):
    before, after = certificates(config), certificates(with_strengths(config, lam))
    for rule, v in before.items():
        assert after[rule].margin <= v.margin, rule


@settings(max_examples=50)
@given(config=charge_configs())
def test_negating_every_strength_changes_nothing(config):
    # levels, thresholds, margins and per-segment detail, bit for bit
    assert certificates(with_strengths(config, -1.0)) == certificates(config)
