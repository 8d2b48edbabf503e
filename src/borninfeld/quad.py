"""Batched adaptive quadrature and the exact single-charge field.

Two things in this package still integrate numerically: the order-m
radial profile (``radial.approx_radial_profile``) and the numerator of the
refined constant Ctilde below.  Both run on one engine,
``adaptive_gauss_kronrod``, which takes arrays of intervals and evaluates
all new Gauss-Kronrod 7-15 panels of a pass in one vectorized call.  The
Kronrod nodes are interior, so integrable endpoint singularities never get
evaluated directly.

The exact single-charge field needs no quadrature.  Its slope is pinned at
every radius by the flux identity r^(N-1) u' / sqrt(1 - u'^2) =
-a/omega_{N-1}; with q = N-1, p = 2q, c = |a|/omega_{N-1}, L = c^(1/q) and
w = 1/(1 + (r/L)^p) the substitution s = L ((1-w)/w)^(1/p) turns
u(r) = int_r^inf c/sqrt(s^p + c^2) ds into a regularized incomplete Beta
function (DLMF 8.17),

    u(r) = sign(a) L B I_w(1/2 - 1/p, 1/p),    B = B(1/2 - 1/p, 1/p) / p,

so the central value is u(0+) = sign(a) L B and the central-value scale is

    A(N) = omega_{N-1}^(-1/(N-1)) * int_0^inf ds / sqrt(s^(2(N-1)) + 1)
         = omega_{N-1}^(-1/(N-1)) * B.

I_w is evaluated with numpy alone, from the continued fraction of DLMF
8.17.22 on w <= 1/2 and from its reflection above (``_incomplete_beta``).
Over (r/L)^p in [1e-290, 1e290], u/u0 agrees with scipy.special's
betainc/betaincc to 1.4e-15 relative at N = 3, 4.1e-15 up to N = 7,
9.0e-15 at N = 20 and 4.0e-14 at N = 65; the worst cases sit near w = 1/2,
where the reflected branch subtracts from 1.

The energy of that field is a closed form too (``radial.spacelike_ratio``),
and so is the denominator of the refined energy constant, which is B.  Its
numerator is still integrated, on r = t/(1-t), to the fixed absolute
tolerance ``_CTILDE_TOL``, so Ctilde is a function of N alone:

    Ctilde(N) = omega_{N-1} * int r^(N-1) (1 - r^(N-1)/sqrt(r^(2(N-1))+1)) dr / B^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _check_dim, _check_radii, _check_strength, sphere_measure

__all__ = [
    "AccuracyError",
    "RadialProfile",
    "adaptive_gauss_kronrod",
    "shape_constant_A",
    "refined_constant_ctilde",
    "exact_radial_profile",
    "flux_identity_residual",
]

_EPS = math.ulp(1.0)

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
# Columns: abscissa, Gauss weight (0 on Kronrod-only nodes), Kronrod weight.
_GK15 = (
    (+0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (-0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (+0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (-0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (+0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (-0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (+0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (-0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (+0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (-0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (+0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (-0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (+0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (-0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (0.0, 0.417959183673469387755102040816327, 0.209482141084727828012999174891714),
)


class AccuracyError(RuntimeError):
    """Quadrature failed to meet the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial answer is still useful.  ``interval`` is the
    flat index of the interval that failed when ``adaptive_gauss_kronrod``
    raised it, else None.
    """

    interval: int | None = None

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


_GK15_NODES, _GK15_GAUSS, _GK15_KRONROD = (np.array(col) for col in zip(*_GK15))


def _gk15_panels(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Kronrod 7-15 panel on every [a_i, b_i]: (estimates, error bounds).

    The error bound is QUADPACK's QK15 estimate (Piessens, de
    Doncker-Kapenga, Ueberhuber & Kahaner, 1983).  ``f`` maps an array of
    nodes to an array of values; it is called once, on the (n, 15) node
    matrix, and each sum over the nodes is a product with a weight vector.
    An overflowing integrand gives a non-finite estimate or bound, which the
    caller must reject.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    with np.errstate(all="ignore"):
        fx = f(mid[:, None] + half[:, None] * _GK15_NODES)
        resk = fx @ _GK15_KRONROD
        resg = fx @ _GK15_GAUSS
        resabs = np.abs(fx) @ _GK15_KRONROD
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK15_KRONROD
        value = resk * half
        err = np.abs((resk - resg) * half)
        asc = resasc * np.abs(half)
        scaled = asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5)
        err = np.where((asc != 0.0) & (err != 0.0), scaled, err)
        err = np.maximum(err, 50.0 * _EPS * resabs * np.abs(half))
    return value, err


def _failure(message: str, value, bound, interval) -> AccuracyError:
    exc = AccuracyError(message, estimate=float(value), error_bound=float(bound))
    exc.interval = int(interval)
    return exc


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    abs_tol: float = 1e-10,
    max_subdivisions: int = 60,
    rel_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over every interval [a_i, b_i] by adaptive bisection.

    ``f`` maps an array of nodes to an array of values.  Returns (values,
    error bounds) in the shape of ``a`` and ``b``.  An interval is done once
    its panels' bounds sum to at most max(abs_tol, rel_tol * |value|); a
    nonzero ``rel_tol`` keeps large integrals from chasing an absolute
    target below their roundoff.  Each pass halves the panels of unfinished
    intervals whose bound exceeds an equal share of the target, all in one
    ``_gk15_panels`` call.  Raises AccuracyError, ``interval`` its flat
    index, for the first interval with a non-finite panel or in need of
    more than ``max_subdivisions`` splits.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(b >= a):
        raise ValueError(f"inverted interval in [{a}, {b}]")
    n = a.size
    lo, hi = a.ravel(), b.ravel()
    owner = np.arange(n)  # the interval of each panel
    value, err = _gk15_panels(f, lo, hi)
    splits = np.zeros(n, dtype=int)
    while True:
        bad = ~(np.isfinite(value) & np.isfinite(err))
        if bad.any():
            i = np.flatnonzero(bad)[np.argmin(owner[bad])]
            raise _failure(
                f"integrand is not a finite binary64 number on [{lo[i]:g}, {hi[i]:g}]",
                value[i], err[i], owner[i],
            )
        total, bound = np.bincount(owner, value, n), np.bincount(owner, err, n)
        target = np.maximum(abs_tol, rel_tol * np.abs(total))
        share = target[owner] / np.bincount(owner)[owner]
        split = (bound > target)[owner] & (err > share)
        if not split.any():
            return total.reshape(a.shape), bound.reshape(a.shape)
        splits += np.bincount(owner[split], minlength=n)
        if np.any(splits > max_subdivisions):
            i = np.argmax(splits > max_subdivisions)
            raise _failure(
                f"tolerance {abs_tol:g} not reached on [{a.flat[i]:g}, {b.flat[i]:g}] "
                f"within {max_subdivisions} subdivisions (error bound {bound[i]:g})",
                total[i], bound[i], i,
            )
        mid = 0.5 * (lo[split] + hi[split])
        halves = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_value, new_err = _gk15_panels(f, *halves)
        kept = ~split
        lo, hi = np.concatenate((lo[kept], halves[0])), np.concatenate((hi[kept], halves[1]))
        owner = np.concatenate((owner[kept], owner[split], owner[split]))
        value = np.concatenate((value[kept], new_value))
        err = np.concatenate((err[kept], new_err))


# ---------------------------------------------------------------------------
# Shape constants
# ---------------------------------------------------------------------------


def _complete_beta(alpha: float, beta: float) -> float:
    """B(alpha, beta) as the Gamma product, as accurate as scipy.special.beta.

    The lgamma-exp form is off by up to 2.1e-15 relative on the arguments
    of the single-charge field.
    """
    return math.gamma(alpha) * math.gamma(beta) / math.gamma(alpha + beta)


# Terms of the incomplete Beta continued fraction allowed before it counts
# as not converging; on 0 <= x <= 1/2 every x needs at most 21.
_BETA_MAX_TERMS = 100


def _beta_fraction_coefficient(k: int, alpha: float, beta: float) -> float:
    """d_k / x, the k-th partial numerator of DLMF 8.17.22 over x."""
    m = k // 2
    if k % 2:
        return -(alpha + m) * (alpha + beta + m) / ((alpha + 2 * m) * (alpha + 2 * m + 1))
    return m * (beta - m) / ((alpha + 2 * m - 1) * (alpha + 2 * m))


def _incomplete_beta(
    x: np.ndarray, x_comp: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Regularized incomplete Beta I_x(alpha, beta) for 0 <= x <= 1/2.

    ``x_comp`` is 1 - x, formed by the caller without cancellation; alpha
    and beta are the field's pair (both in (0, 1/2), summing to 1/2).  DLMF
    8.17.22 gives

        I_x = x^alpha (1-x)^beta / (alpha B(alpha, beta)) / F,
        F = 1 + d_1/(1 + d_2/(1 + ...)).

    Lentz's method finds, element by element, the number of terms after
    which a further one moves the convergent F by at most one ulp; F is then
    summed backward to that depth, which keeps its rounding error near one
    ulp where the Lentz product itself is off by up to ten.  Every
    |d_k| <= x/2 <= 1/4 here, so each partial denominator stays in
    [1/2, 3/2] and Lentz's tiny guard against a zero one is never needed.
    Raises ``AccuracyError`` if some element has not converged after
    ``_BETA_MAX_TERMS`` terms.
    """
    c = np.ones_like(x)
    d = np.zeros_like(x)
    converged = np.zeros(x.shape, dtype=bool)
    for depth in range(1, _BETA_MAX_TERMS + 1):
        t = _beta_fraction_coefficient(depth, alpha, beta) * x
        d = 1.0 / (1.0 + t * d)
        c = 1.0 + t / c
        converged |= np.abs(c * d - 1.0) <= _EPS
        if converged.all():
            break
    else:
        raise AccuracyError(
            f"incomplete Beta I_x({alpha:g}, {beta:g}) not converged after "
            f"{_BETA_MAX_TERMS} terms at {np.count_nonzero(~converged)} of {x.size} points",
            estimate=math.nan,
            error_bound=math.inf,
        )
    fraction = np.ones_like(x)
    for k in range(depth, 0, -1):
        fraction = 1.0 + _beta_fraction_coefficient(k, alpha, beta) * x / fraction
    scale = alpha * _complete_beta(alpha, beta)
    return np.power(x, alpha) * np.power(x_comp, beta) / scale / fraction


def _single_charge_field(a: float, N: int, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Central value u(0+) and field u(r) of one charge, in closed form.

    I_w(alpha, beta) with w -> 1 near the charge loses every digit of the
    small complement 1 - w, so w = 1/(1+x) and 1 - w = 1/(1+1/x) are formed
    separately, and once w exceeds 1/2 the reflection
    I_w(alpha, beta) = 1 - I_{1-w}(beta, alpha) is evaluated instead.  Both
    come from ``_incomplete_beta``; the field is within 4e-14 relative of
    scipy.special's incomplete Beta for N <= 65 (see the module docstring).
    """
    q = N - 1
    p = 2 * q
    alpha, beta = 0.5 - 1.0 / p, 1.0 / p
    length = (abs(a) / sphere_measure(N)) ** (1.0 / q)
    u0 = math.copysign(length * _complete_beta(alpha, beta) / p, a)
    if r.size == 0:
        return u0, np.empty(0)
    with np.errstate(over="ignore", divide="ignore"):
        x = (r / length) ** p
        w = 1.0 / (1.0 + x)
        w_comp = 1.0 / (1.0 + 1.0 / x)
    near = w > 0.5
    ratio = np.empty_like(w)
    ratio[~near] = _incomplete_beta(w[~near], w_comp[~near], alpha, beta)
    ratio[near] = 1.0 - _incomplete_beta(w_comp[near], w[near], beta, alpha)
    return u0, u0 * ratio


def shape_constant_A(N: int) -> float:
    """Central-value scale A(N) of the single-charge field.

    A unit charge produces a field of central value A(N); strength a scales
    it by sign(a) |a|^(1/(N-1)).
    """
    _check_dim(N)
    return _single_charge_field(1.0, N, np.empty(0))[0]


# absolute tolerance of Ctilde's numerator integral
_CTILDE_TOL = 1e-10


def refined_constant_ctilde(N: int) -> float:
    """Refined constant of the energy/sup-norm inequality.

    Sharper than half the gradient-norm best constant: Ctilde >= Cbar/2,
    with Ctilde(3)/omega_2 ~= 0.097.  The denominator is B, a Gamma product
    (see the module docstring).  The numerator maps [0, inf) to t in [0, 1)
    through r = t/(1-t), 16 equal intervals of ``adaptive_gauss_kronrod``
    each held to _CTILDE_TOL/16, and is evaluated in the cancellation- and
    overflow-free form 1/(sqrt(R+1) (sqrt(1+1/R) + 1)), R = r^(2(N-1)).
    """
    _check_dim(N)
    p = 2 * (N - 1)

    def numerator(t: np.ndarray) -> np.ndarray:
        onem = 1.0 - t
        R = (t / onem) ** p
        return 1.0 / (np.sqrt(R + 1.0) * (np.sqrt(1.0 + 1.0 / R) + 1.0) * onem * onem)

    t = np.linspace(0.0, 1.0, 17)
    num, _ = adaptive_gauss_kronrod(numerator, t[:-1], t[1:], _CTILDE_TOL / 16)
    B = _complete_beta(0.5 - 1.0 / p, 1.0 / p) / p
    return sphere_measure(N) * float(num.sum()) / B**N


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial field of a single charge at the origin.

    ``kind`` is "exact-bi" for the exact model (slope strictly inside the
    light cone, approaching it as r -> 0) or "approximant" for the order-m
    truncation (finite central value for 2m > N, unbounded slope).  ``u0``
    holds the central value u(0+) when it is finite, else None.  Samples are
    strictly increasing in r; near the light cone the stored slope may round
    to +-1.0 even though the underlying value is strictly inside.
    """

    dim: int
    strength: float
    kind: str
    order: int | None
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    u0: float | None

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        du = np.asarray(self.du, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or r.shape != du.shape:
            raise ValueError("r, u, du must be 1-d arrays of equal length")
        if r.size < 1 or not np.all(r > 0) or not np.all(np.diff(r) > 0):
            raise ValueError("radii must be positive and strictly increasing")
        if self.kind not in ("exact-bi", "approximant"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "approximant" and (self.order is None or self.order < 1):
            raise ValueError("approximant profiles need an order m >= 1")
        sign = math.copysign(1.0, self.strength)
        if np.any(sign * du > 0):
            raise ValueError("slope must have the sign of -strength at every radius")
        if self.kind == "exact-bi" and np.any(np.abs(du) > 1.0):
            raise ValueError("exact profile slope exceeds the light-cone bound")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "du", du)

    @property
    def n_samples(self) -> int:
        return int(self.r.size)


def exact_radial_profile(a: float, N: int, rgrid) -> RadialProfile:
    """Exact single-charge radial field sampled on ``rgrid``.

    The slope comes from the flux identity in closed form,

        u'(r) = -(a/omega) / sqrt(r^(2(N-1)) + (a/omega)^2),

    odd in a, and u, with u -> 0 at infinity, is its incomplete Beta
    antiderivative (see the module docstring).  The central value u(0+) =
    sign(a) |a|^(1/(N-1)) A(N) is attached as ``u0``.
    """
    a = _check_strength(a)
    _check_dim(N)
    r = _check_radii(rgrid)
    c = a / sphere_measure(N)
    u0, u = _single_charge_field(a, N, r)
    return RadialProfile(
        dim=N,
        strength=a,
        kind="exact-bi",
        order=None,
        r=r,
        u=u,
        du=-c / np.hypot(r ** (N - 1), c),
        u0=u0,
    )


def flux_identity_residual(profile: RadialProfile) -> np.ndarray:
    """Per-sample residual of r^(N-1) u'/sqrt(1-u'^2) + a/omega_{N-1}.

    Meaningful for exact profiles at radii where 1 - u'^2 is resolvable in
    binary64; exactly at the light cone the expression degenerates.
    """
    if profile.kind != "exact-bi":
        raise ValueError("flux identity in this form applies to exact profiles")
    omega = sphere_measure(profile.dim)
    du = profile.du
    with np.errstate(divide="ignore", invalid="ignore"):
        flux = profile.r ** (profile.dim - 1) * du / np.sqrt((1.0 - du) * (1.0 + du))
    return flux + profile.strength / omega
