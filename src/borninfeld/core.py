"""Domain types, Lagrangian expansion coefficients, and closed-form constants.

The Born-Infeld electrostatic model replaces the Maxwell energy density
|E|^2/2 by 1 - sqrt(1 - |E|^2), which caps field strengths at the light-cone
bound |E| = 1.  Expanding that density in powers of |E|^2 gives

    1 - sqrt(1 - t^2) = sum_h (alpha_h / 2h) t^(2h),
    alpha_1 = 1,  alpha_h = (2h-3)!!/(2h-2)!!  for h >= 2,

and truncating the sum at order m yields the smooth approximating energy
used by the radial and grid solvers.  This module owns the shared
vocabulary: charge configurations, the expansion coefficients, the
truncated density (by Horner, and in closed form where it is 1 - sqrt(1 -
t^2) to rounding), the unit-sphere measure, the best constant of the
gradient/sup-norm inequality, and the closed-form constants governing how an
order-m field behaves next to a point charge.

All functions here are pure and operate on immutable inputs; they are safe
to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Charge",
    "ChargeConfig",
    "AsymptoticsSpec",
    "InputError",
    "GuaranteeRangeError",
    "taylor_coefficients",
    "sphere_measure",
    "best_constant_cbar",
    "asymptotics_spec",
    "min_order_for_guarantee",
]


class InputError(ValueError):
    """An input outside the problem's hypotheses or outside binary64.

    The hypotheses are a dimension N >= 3, finite nonzero strengths at
    distinct finite points and an order 1 <= m <= 10^5; each has one checker.
    The command line reports this error as invalid input (exit 2).
    """


def _check_dim(N) -> None:
    if not isinstance(N, int) or isinstance(N, bool) or N < 3:
        raise InputError(f"dimension must be an integer >= 3, got {N!r}")


def _check_strength(a) -> float:
    a = float(a)
    if a == 0.0 or not math.isfinite(a):
        raise InputError(f"charge strength must be finite and nonzero, got {a}")
    return a


def _check_order(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputError(f"order m must be an integer >= 1, got {m!r}")
    if m > 10**5:  # m = 10^5: a 7 s ``radial``, a 0.7 s 17^3 ``solve``
        raise InputError(f"order m must be at most 100000, got {m}")


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

    ``charges`` is an iterable of (position, strength) pairs.  Invariants
    enforced at construction: the dimension is at least three, the charge
    list is non-empty, every strength is nonzero, every position
    has length N, and the positions are pairwise distinct.
    """

    dim: int
    charges: tuple[Charge, ...]

    def __init__(self, dim: int, charges) -> None:
        _check_dim(dim)
        normalized = []
        for pos, a in charges:
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


# ---------------------------------------------------------------------------
# Taylor coefficients of the energy density
# ---------------------------------------------------------------------------


def taylor_coefficients(m: int) -> tuple[float, ...]:
    """The tuple (alpha_1, ..., alpha_m), of length m, by the ratio recurrence.

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
    return tuple(alphas)


@functools.lru_cache(maxsize=4)
def _horner_terms(alphas: tuple[float, ...]):
    """alpha_k/2k and alpha_k from k = m down, as floats and as 0-d arrays,
    which numpy's in-place operators take without converting a float."""
    floats = ([alphas[k - 1] / (2 * k) for k in range(len(alphas), 0, -1)], alphas[::-1])
    return floats, tuple([np.array(c) for c in terms] for terms in floats)


def _fresh(name: str, shape, dtype=float) -> np.ndarray:
    """A new array for every take: a standalone evaluation's ``take``.  A grid
    solve passes ``_Buffers``, one array per name for the solve."""
    return np.empty(shape, dtype)


class _Buffers(dict):
    """Arrays by name, views of one block allocated at once, ``sizes[name]``
    float64 elements each: the ``take`` of a grid solve
    (``field._solve_buffers``).  A take returns the head of the name's array
    in the shape and type asked for, as one view made at the first take of
    that (name, shape, dtype) and handed back at every later one.  Any other
    name, such as a charge block's, or a take larger than the name's array
    gets an array of its own at its first take, kept in the same way.
    """

    def __init__(self, sizes: dict):
        ends = np.cumsum(list(sizes.values()))
        super().__init__(zip(sizes, np.split(np.empty(ends[-1]), ends[:-1])))
        self.views = {}

    def __call__(self, name, shape, dtype=float) -> np.ndarray:
        key = name, shape, dtype
        if key not in self.views:
            array, size = self.get(name, np.empty(0)).view(dtype), np.prod(shape)
            fits = array.size >= size
            self.views[key] = array[:size].reshape(shape) if fits else np.empty(shape, dtype)
        return self.views[key]


def _zeroed(a: np.ndarray) -> np.ndarray:
    a[...] = 0.0
    return a


def _energy_series(s, alphas: tuple[float, ...], out=None):
    """W(s) = sum_k (alpha_k/2k) s^k by Horner, for a squared slope s = t^2.

    ``s``, a float or an ndarray, is never written: the first step makes a
    new accumulator, 0 * s (nan for an infinite s), updated in place later;
    for an ndarray s, ``out`` zeroed is that accumulator.
    """
    W = 0.0 if out is None else _zeroed(out)  # the floats, or the 0-d arrays
    for c in _horner_terms(alphas)[isinstance(s, np.ndarray)][0]:
        W *= s
        W += c
    W *= s
    return W


def _sigma_series(s, alphas: tuple[float, ...], *out):
    """sigma(s) = 2 W'(s) and sigma'(s) by Horner, as ``_energy_series``,
    into the two arrays ``out`` if given.

    The radial flux is g(t) = t sigma(t^2), with g'(t) = sigma + 2 t^2 sigma'.
    """
    terms = _horner_terms(alphas)[isinstance(s, np.ndarray)][1]
    sigma, dsigma = map(_zeroed, out) if out else (0.0, 0.0)
    for a in terms:
        dsigma *= s
        dsigma += sigma
        sigma *= s
        sigma += a
    return sigma, dsigma


# Below this order tau_m lies under every s a grid solve meets, so
# ``_Density`` leaves every entry to Horner.
_CLOSED_FORM_MIN_ORDER = 4


class _Density:
    """W, sigma and sigma' of the order-m density at a flat array of squared
    slopes s, split once between a closed form and Horner.

    Where the dropped tail sum_{k>m} is below binary64 resolution, the order-m
    truncation is the Born-Infeld density to rounding: W = s / (1 + sqrt(1 -
    s)), sigma = (1 - s)^(-1/2) and sigma' = (1/2) (1 - s)^(-3/2), from one
    square root whatever m.  That holds for s <= tau_m = min(1/2, (2^-56/m)^(1
    / (m-1))), where each tail of W, sigma and sigma' is at most 2^-56 of its
    value, the 1/(1 - s) factors of the tail bounds included; s is clamped at
    tau_m under the root, so the closed form never warns.  The rest, s > tau_m
    or not finite, keeps ``_energy_series`` and ``_sigma_series``.

    Arrays come from ``take`` (``_fresh`` by default): "rest" and "root"
    (1 - s and its root), which ``sigma()`` overwrites with sigma' and sigma,
    so it comes after ``energy()``; "cells" for W; "mask" for the split;
    the heads of "edges", "pairs" and "adjoint" for the Horner entries.
    """

    def __init__(self, s: np.ndarray, alphas: tuple[float, ...], take=_fresh):
        m, self.s, self.alphas, self.near, self.take = len(alphas), s, alphas, None, take
        if m >= _CLOSED_FORM_MIN_ORDER:
            tau = min(0.5, (2.0**-56 / m) ** (1.0 / (m - 1)))
            mask = np.less_equal(s, tau, out=take("mask", s.shape, bool))
            self.near = np.flatnonzero(np.logical_not(mask, out=mask))
            rest = take("rest", s.shape)
            self.rest = np.subtract(1.0, np.minimum(s, tau, out=rest), out=rest)
            self.root = np.sqrt(self.rest, out=take("root", s.shape))

    def _horner(self, series, *names: str):
        """``series`` at the near entries.  Past 16 of them, they are gathered
        into the head of "edges" and ``series`` writes into the heads of the
        arrays ``names``, all idle while the density is evaluated."""
        n = len(self.near)
        if n <= 16:  # a few entries cost less as Python floats than 2-4 ufunc calls a term
            return np.array([series(x, self.alphas) for x in self.s[self.near].tolist()]).T
        s, *out = (self.take(name, self.s.shape)[:n] for name in ("edges", *names))
        with np.errstate(invalid="ignore"):  # 0 * inf in the first step
            return series(self.s.take(self.near, out=s, mode="clip"), self.alphas, *out)

    def energy(self) -> np.ndarray:
        W = self.take("cells", self.s.shape)
        if self.near is None:
            return _energy_series(self.s, self.alphas, W)
        np.add(self.root, 1.0, out=W)
        np.divide(self.s, W, out=W)
        W[self.near] = self._horner(_energy_series, "pairs")
        return W

    def sigma(self) -> tuple[np.ndarray, np.ndarray]:
        if self.near is None:
            out = self.take("root", self.s.shape), self.take("rest", self.s.shape)
            return _sigma_series(self.s, self.alphas, *out)
        dsigma = np.multiply(self.rest, self.root, out=self.rest)
        np.divide(0.5, dsigma, out=dsigma)
        sigma = np.divide(1.0, self.root, out=self.root)
        for out, values in zip((sigma, dsigma), self._horner(_sigma_series, "pairs", "adjoint")):
            out[self.near] = values  # no rows at all when no entry is near
        return sigma, dsigma


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


def _is_guaranteed(m: int, N: int) -> bool:
    """Whether 2m > max(N, 2N/(N-2)), the range the asymptotics cover."""
    return 2 * m > max(N, 2.0 * N / (N - 2))


def min_order_for_guarantee(N: int) -> int:
    """Smallest m with 2m > max(N, 2N/(N-2)), the range the asymptotics cover."""
    _check_dim(N)
    m = N // 2  # 2N/(N-2) <= N from N = 4 on
    while not _is_guaranteed(m, N):
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
    guaranteed = _is_guaranteed(m, N)
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
    alpha_m = taylor_coefficients(m)[-1]
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
