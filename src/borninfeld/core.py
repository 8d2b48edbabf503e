"""Domain types, Lagrangian expansion coefficients, and closed-form constants.

The Born-Infeld electrostatic model replaces the Maxwell energy density
|E|^2/2 by 1 - sqrt(1 - |E|^2), which caps field strengths at the light-cone
bound |E| = 1.  Expanding that density in powers of |E|^2 gives

    1 - sqrt(1 - t^2) = sum_h (alpha_h / 2h) t^(2h),
    alpha_1 = 1,  alpha_h = (2h-3)!!/(2h-2)!!  for h >= 2,

and truncating the sum at order m yields the smooth approximating energy
used by the radial and grid solvers.  This module owns the shared
vocabulary: charge configurations, the expansion coefficients, the
unit-sphere measure, the best constant of the gradient/sup-norm inequality,
and the closed-form constants governing how an order-m field behaves next
to a point charge.

All functions here are pure and operate on immutable inputs; they are safe
to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Charge",
    "ChargeConfig",
    "CoefficientTable",
    "AsymptoticsSpec",
    "InputError",
    "GuaranteeRangeError",
    "taylor_coefficients",
    "density_series",
    "lagrangian_partial_sum",
    "sphere_measure",
    "best_constant_cbar",
    "asymptotics_spec",
    "min_order_for_guarantee",
]


class InputError(ValueError):
    """An input outside the problem's hypotheses or outside binary64.

    The hypotheses are a dimension N >= 3, finite nonzero strengths at
    distinct finite points and an order m >= 1; each has one checker below.
    The command line reports this error as invalid input (exit 2).
    """


def _check_dim(N) -> None:
    if not isinstance(N, int) or N < 3:
        raise InputError(f"dimension must be an integer >= 3, got {N!r}")


def _check_strength(a) -> float:
    a = float(a)
    if a == 0.0 or not math.isfinite(a):
        raise InputError(f"charge strength must be finite and nonzero, got {a}")
    return a


def _check_order(m) -> None:
    if not isinstance(m, int) or m < 1:
        raise InputError(f"order m must be an integer >= 1, got {m!r}")


def _check_radii(rgrid) -> np.ndarray:
    r = np.asarray(rgrid, dtype=float)
    if r.ndim != 1 or r.size < 1 or not np.all(r > 0) or not np.all(np.diff(r) > 0):
        raise InputError("rgrid must be strictly increasing and positive")
    return r


def _strength_sum(name: str, values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise InputError(f"the sum of the {name} exceeds binary64") from None


class GuaranteeRangeError(InputError):
    """Asymptotic formulas requested outside the range where they are backed.

    The constants are still well defined; pass ``override_guarantee=True``
    to compute them flagged as unguaranteed.
    """


# ---------------------------------------------------------------------------
# Charge configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Charge:
    """A single point charge: position in R^N and a nonzero strength."""

    pos: tuple[float, ...]
    strength: float


@dataclass(frozen=True)
class ChargeConfig:
    """A finite superposition of point charges in dimension N >= 3.

    Invariants enforced at construction: the dimension is at least three,
    the charge list is non-empty, every strength is nonzero, every position
    has length N, and the positions are pairwise distinct.
    """

    dim: int
    charges: tuple[Charge, ...]

    def __init__(self, dim: int, charges) -> None:
        _check_dim(dim)
        normalized = []
        for entry in charges:
            if isinstance(entry, Charge):
                pos, a = entry.pos, entry.strength
            else:
                pos, a = entry
            pos = tuple(float(x) for x in pos)
            if len(pos) != dim:
                raise InputError(
                    f"charge position {pos} has length {len(pos)}, expected {dim}"
                )
            a = _check_strength(a)
            if not all(math.isfinite(x) for x in pos):
                raise InputError(f"charge position must be finite, got {pos}")
            normalized.append(Charge(pos, a))
        if not normalized:
            raise InputError("at least one charge is required")
        for i in range(len(normalized)):
            for j in range(i + 1, len(normalized)):
                if normalized[i].pos == normalized[j].pos:
                    raise InputError(
                        f"charges {i} and {j} share the position {normalized[i].pos}"
                    )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "charges", tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.charges)

    @property
    def strengths(self) -> tuple[float, ...]:
        return tuple(c.strength for c in self.charges)

    @property
    def positive_indices(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.charges) if c.strength > 0)

    @property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.charges) if c.strength < 0)

    def sum_positive(self) -> float:
        return _strength_sum(
            "positive strengths", (c.strength for c in self.charges if c.strength > 0)
        )

    def sum_negative_abs(self) -> float:
        return _strength_sum(
            "negative strengths", (-c.strength for c in self.charges if c.strength < 0)
        )

    def distance(self, j: int, l: int) -> float:
        pj, pl = self.charges[j].pos, self.charges[l].pos
        return math.dist(pj, pl)

    def pairs(self) -> list[tuple[int, int]]:
        return [(j, l) for j in range(self.n) for l in range(j + 1, self.n)]

    def min_distance(self) -> float:
        """Smallest pairwise separation; +inf for a single charge."""
        if self.n < 2:
            return math.inf
        return min(self.distance(j, l) for j, l in self.pairs())

    def scaled(self, factor: float) -> "ChargeConfig":
        """Same strengths with all positions scaled by ``factor`` > 0."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ChargeConfig(
            self.dim,
            [(tuple(factor * x for x in c.pos), c.strength) for c in self.charges],
        )


# ---------------------------------------------------------------------------
# Taylor coefficients of the energy density
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients alpha_1..alpha_m of the energy-density expansion."""

    order: int
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.order < 1 or len(self.alphas) != self.order:
            raise ValueError("coefficient table length must equal its order")

    def alpha(self, h: int) -> float:
        """alpha_h for 1 <= h <= order."""
        if not 1 <= h <= self.order:
            raise ValueError(f"h must be in 1..{self.order}, got {h}")
        return self.alphas[h - 1]


def taylor_coefficients(m: int) -> CoefficientTable:
    """Coefficients alpha_1..alpha_m via the ratio recurrence.

    alpha_1 = 1 and alpha_{h+1} = alpha_h * (2h-1)/(2h).  The recurrence
    avoids double-factorial overflow entirely (each alpha_h is a ratio of
    numbers of comparable size) and reproduces the exact dyadic values at
    machine precision; it is safe for m up to 10^4 and beyond.
    """
    _check_order(m)
    alphas = [1.0]
    a = 1.0
    for h in range(1, m):
        a *= (2 * h - 1) / (2 * h)
        alphas.append(a)
    return CoefficientTable(m, tuple(alphas))


def density_series(s, alphas: tuple[float, ...]):
    """W(s) = sum (alpha_k/2k) s^k, sigma(s) = 2 W'(s) and sigma'(s) by Horner.

    ``s`` is a squared slope t^2, a float or an ndarray.  The radial flux
    function is g(t) = t sigma(t^2), with g'(t) = sigma + 2 t^2 sigma'.
    """
    W = sigma = dsigma = 0.0
    for k in range(len(alphas), 0, -1):
        a = alphas[k - 1]
        W = W * s + a / (2 * k)
        dsigma = dsigma * s + sigma
        sigma = sigma * s + a
    return W * s, sigma, dsigma


def lagrangian_partial_sum(t: float, m: int) -> float:
    """Order-m truncation sum_{h<=m} (alpha_h/2h) t^(2h) of 1 - sqrt(1-t^2).

    Monotone non-decreasing in m and bounded by the closed form for t < 1.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return density_series(t * t, taylor_coefficients(m).alphas)[0]


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------


def sphere_measure(N: int) -> float:
    """Measure of the unit sphere S^(N-1) in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    if not isinstance(N, int) or N < 2:
        raise InputError(f"dimension must be an integer >= 2, got {N!r}")
    try:
        return 2.0 * math.pi ** (N / 2) / math.gamma(N / 2)
    except OverflowError:
        raise InputError(f"Gamma(N/2) exceeds binary64 at dimension N={N}") from None


def best_constant_cbar(N: int) -> float:
    """Best constant of  ||grad u||_2^2 >= C ||u||_inf^N  over 1-Lipschitz
    finite-energy decaying fields:  (2/N) ((N-2)/(N-1))^(N-1) * omega_{N-1}.

    The extremal profile is the unit cone matched to a harmonic tail; see
    ``radial.cone_tail_energy`` for the one-parameter family it minimizes.
    """
    _check_dim(N)
    return 2.0 / N * ((N - 2) / (N - 1)) ** (N - 1) * sphere_measure(N)


def min_order_for_guarantee(N: int) -> int:
    """Smallest m with 2m > max(N, 2N/(N-2)), the range the asymptotics cover."""
    _check_dim(N)
    bound = max(N, 2.0 * N / (N - 2))
    m = int(bound // 2) + 1
    while 2 * m <= bound:
        m += 1
    return m


@dataclass(frozen=True)
class AsymptoticsSpec:
    """Predicted behavior of the order-m field near a charge of strength a.

    The field minus its central value grows like K * r^u_exponent and the
    gradient magnitude like Kprime * r^grad_exponent, where

        kappa   = -((2m-1)/(2m-N)) * omega_{N-1}^(-1/(2m-1))   (< 0),
        gamma   = sign(a) * (|a|/alpha_m)^(1/(2m-1)),
        K       = gamma * kappa              (opposite sign to a),
        Kprime  = ((2m-N)/(2m-1)) * |K|,

    alongside the Holder exponent 1 - N/(2m) of the global field.  The
    ``guaranteed`` flag records whether 2m > max(N, 2N/(N-2)) held when the
    spec was built.
    """

    m: int
    dim: int
    kappa: float
    gamma: float
    K: float
    Kprime: float
    u_exponent: float
    grad_exponent: float
    holder: float
    guaranteed: bool


def asymptotics_spec(
    m: int, N: int, a: float, *, override_guarantee: bool = False
) -> AsymptoticsSpec:
    """Closed-form singularity constants for order m, dimension N, strength a.

    Outside the covered range 2m > max(N, 2N/(N-2)) the formulas are still
    well defined (except at 2m = N); by default that raises
    GuaranteeRangeError, while ``override_guarantee=True`` returns the
    values flagged ``guaranteed=False``.
    """
    _check_order(m)
    _check_dim(N)
    a = _check_strength(a)
    guaranteed = 2 * m > max(N, 2.0 * N / (N - 2))
    if not guaranteed:
        if not override_guarantee:
            raise GuaranteeRangeError(
                f"order m={m} is outside the covered range for N={N} "
                f"(needs m >= {min_order_for_guarantee(N)}); "
                "pass override_guarantee=True to compute unguaranteed values"
            )
        if 2 * m == N:
            raise InputError(f"constants are undefined at 2m == N (m={m}, N={N})")
    omega = sphere_measure(N)
    alpha_m = taylor_coefficients(m).alphas[-1]
    p = 2 * m - 1
    kappa = -((2 * m - 1) / (2 * m - N)) * omega ** (-1.0 / p)
    gamma = math.copysign(abs(a / alpha_m) ** (1.0 / p), a)
    K = gamma * kappa
    Kprime = (2 * m - N) / (2 * m - 1) * abs(K)
    return AsymptoticsSpec(
        m=m,
        dim=N,
        kappa=kappa,
        gamma=gamma,
        K=K,
        Kprime=Kprime,
        u_exponent=(2 * m - N) / (2 * m - 1),
        grad_exponent=(1 - N) / (2 * m - 1),
        holder=1.0 - N / (2.0 * m),
        guaranteed=guaranteed,
    )
