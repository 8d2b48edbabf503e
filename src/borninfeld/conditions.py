"""Solvability certificates from charge strengths and positions alone.

The energy minimizer of the point-charge problem is known to solve the
field equation away from the segments joining charges; trouble can only
hide on a segment, where the field would have to be affine with light-like
slope.  Each certificate here bounds the potential gap between two charges
strictly below their separation, which rules that out:

  * global rule ("sum-threshold"):
        (N/omega_{N-1})^(1/(N-1)) * (N-1)/(N-2)
            * [ (sum_+ a_k)^(1/(N-1)) + (sum_- |a_k|)^(1/(N-1)) ]
        < min pairwise distance,
    derived from the best constant of the gradient/sup-norm inequality;

  * refined rule: the same bracket against Ctilde^(-1/(N-1)), a weaker
    threshold since Ctilde >= Cbar/2, applied globally or per segment;

  * two-charge rule: for one positive and one negative charge,
        (|a_1|^(1/(N-1)) + |a_2|^(1/(N-1))) * A(N) < |x_1 - x_2|,
    using the exact single-charge central values;

  * same-sign pairs are classical on their segment unconditionally.

Verdicts are one-sided: INCONCLUSIVE never asserts failure, only that no
implemented sufficient condition applies.  Comparisons carry a relative
guard band of 1e-12; margins inside the band report INCONCLUSIVE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import ChargeConfig, sphere_measure
from .quad import shape_constant_A

__all__ = [
    "VerdictLevel",
    "PairVerdict",
    "Verdict",
    "NotApplicableError",
    "check_global",
    "check_refined",
    "check_two_charge",
]

_GUARD_REL = 1e-12


class NotApplicableError(ValueError):
    """The requested certificate does not apply to this configuration."""


class VerdictLevel(enum.Enum):
    GLOBAL_CLASSICAL = "GLOBAL_CLASSICAL"
    SEGMENT_CLASSICAL = "SEGMENT_CLASSICAL"
    TWO_CHARGE_CLASSICAL = "TWO_CHARGE_CLASSICAL"
    SAME_SIGN_SEGMENT = "SAME_SIGN_SEGMENT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class PairVerdict:
    """Outcome for one charge pair (indices into the configuration)."""

    j: int
    l: int
    level: VerdictLevel
    separation: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solvability certificate.

    ``margin`` is rhs - lhs in length units; a non-INCONCLUSIVE level
    requires the margin to clear the guard band, so margins inside the band
    are reported INCONCLUSIVE on the safe side.
    """

    level: VerdictLevel
    rule: str
    lhs: float
    rhs: float
    margin: float
    per_segment: tuple[PairVerdict, ...] | None = None

    @property
    def conclusive(self) -> bool:
        return self.level is not VerdictLevel.INCONCLUSIVE


def _clears_guard(lhs: float, rhs: float) -> bool:
    if math.isinf(rhs):
        return True
    return rhs - lhs > _GUARD_REL * max(abs(lhs), abs(rhs))


def _verdict(level, rule: str, lhs: float, rhs: float, per_segment=None) -> Verdict:
    """``level`` if rhs clears lhs by the guard band, else INCONCLUSIVE."""
    if not _clears_guard(lhs, rhs):
        level = VerdictLevel.INCONCLUSIVE
    return Verdict(level, rule, lhs, rhs, rhs - lhs, per_segment)


def _threshold(config: ChargeConfig, lhs: float, rule: str, per_segment=None) -> Verdict:
    """``rule``'s verdict of lhs against the minimum pairwise distance."""
    if config.n < 2:  # no segment for the minimizer to be affine on
        rule, per_segment = "single-charge", None
    return _verdict(VerdictLevel.GLOBAL_CLASSICAL, rule, lhs, config.min_distance(), per_segment)


def _strength_bracket(config: ChargeConfig) -> float:
    """(sum_+ a_k)^(1/(N-1)) + (sum_- |a_k|)^(1/(N-1)); empty class -> 0."""
    e = 1.0 / (config.dim - 1)
    return config.sum_positive() ** e + config.sum_negative_abs() ** e


def check_global(config: ChargeConfig) -> Verdict:
    """Global sum-threshold certificate against the min pairwise distance.

    A single charge short-circuits to GLOBAL_CLASSICAL with infinite
    margin.
    """
    N = config.dim
    lhs = (
        (N / sphere_measure(N)) ** (1.0 / (N - 1))
        * (N - 1)
        / (N - 2)
        * _strength_bracket(config)
    )
    return _threshold(config, lhs, "global-sum-threshold")


def check_refined(config: ChargeConfig, ctilde: float) -> Verdict:
    """Refined certificate using the energy constant Ctilde.

    The threshold Ctilde^(-1/(N-1)) * bracket is never larger than the
    global rule's.  The verdict is GLOBAL_CLASSICAL when it clears the
    minimum distance; otherwise each pair is compared against its own
    separation and recorded in ``per_segment`` (same-sign pairs are
    classical regardless).
    """
    if not ctilde > 0 or not math.isfinite(ctilde):
        raise ValueError(f"ctilde must be positive and finite, got {ctilde}")
    N = config.dim
    lhs = ctilde ** (-1.0 / (N - 1)) * _strength_bracket(config)
    return _threshold(config, lhs, "refined-energy-threshold", _pairwise_levels(config, lhs))


def check_two_charge(config: ChargeConfig) -> Verdict:
    """Exact-profile certificate for one positive and one negative charge."""
    if config.n != 2:
        raise NotApplicableError(
            f"the two-charge certificate needs exactly 2 charges, got {config.n}"
        )
    a1, a2 = config.strengths
    if a1 * a2 > 0:
        raise NotApplicableError(
            "the two-charge certificate needs opposite signs; "
            "same-sign pairs are classical on their segment unconditionally"
        )
    N = config.dim
    e = 1.0 / (N - 1)
    lhs = (abs(a1) ** e + abs(a2) ** e) * shape_constant_A(N)
    return _verdict(
        VerdictLevel.TWO_CHARGE_CLASSICAL, "two-charge-exact", lhs, config.distance(0, 1)
    )


def _pairwise_levels(config: ChargeConfig, lhs: float) -> tuple[PairVerdict, ...]:
    out = []
    for j, l in config.pairs():
        aj = config.charges[j].strength
        al = config.charges[l].strength
        sep = config.distance(j, l)
        if aj * al > 0:
            level = VerdictLevel.SAME_SIGN_SEGMENT
        elif _clears_guard(lhs, sep):
            level = VerdictLevel.SEGMENT_CLASSICAL
        else:
            level = VerdictLevel.INCONCLUSIVE
        out.append(PairVerdict(j=j, l=l, level=level, separation=sep))
    return tuple(out)
