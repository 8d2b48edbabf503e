"""Radial solver for the order-m problem and the cone-plus-tail extremals.

A single charge at the origin makes the order-m problem radial, and
integrating the divergence over balls turns the PDE into a root find per
radius: with g(t) = sum_{h<=m} alpha_h t^(2h-1), the slope magnitude
t = |u'(r)| is pinned by

    g(t) = |a| / (omega_{N-1} r^(N-1)).

g is strictly increasing and convex on t >= 0, so a guarded Newton
iteration from an explicit upper bound converges monotonically; a radius
stops once its Newton correction is below one ulp of the slope, so the
rounding of a steep g never holds it in the loop, and bisection only
guards steps that leave their bracket.  All sample radii run through one
array iteration.  The field itself follows by quadrature of the slope with
u -> 0 at infinity, which avoids integrating a stiff ODE through the
singularity: the segments between neighbouring slopes go through the
batched adaptive Gauss-Kronrod engine together, most of them in one panel.

The same module hosts the measurement side: log-log fits of the field and
slope against radius inside the charge-dominated window (recovering the
growth exponent (2m-N)/(2m-1) and the coefficients K_m, K'_m), and the
one-parameter cone-plus-tail family

    ubar(r) = 1 - r          on (0, R),
              c1 r^(2-N)     on [R, inf),      c1 = R^(N-2) (1 - R),

whose Dirichlet energy E(R) = R^N/N + (N-2) R^(N-2) (1-R)^2 is minimized at
R = (N-2)/(N-1), where omega_{N-1} E(R) equals the best constant of the
gradient/sup-norm inequality.  ``spacelike_ratio`` checks that inequality
on these candidates and on the exact single-charge field, both in closed
form: only the order-m profile is integrated numerically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, _check_dim, _check_order, _check_radii, _check_strength
from .core import _is_guaranteed, _sigma_series, sphere_measure, taylor_coefficients
from .quad import AccuracyError, RadialProfile, _complete_beta, adaptive_gauss_kronrod

__all__ = [
    "ConeTailCandidate",
    "FitResult",
    "flux_gradient_magnitude",
    "approx_radial_profile",
    "fit_singularity",
    "cone_tail_energy",
    "spacelike_ratio",
]


# ---------------------------------------------------------------------------
# Flux root find
# ---------------------------------------------------------------------------


def flux_gradient_magnitude(r, a: float, m: int, N: int):
    """Slope magnitude |u'(r)| of the order-m single-charge field.

    ``r`` is a radius or an ndarray of radii; a float comes back as a float,
    an array as an array of its shape.  Each element solves
    g(t) = |a| / (omega_{N-1} r^(N-1)) to a residual below
    1e-12 * max(1, target).  All elements run one guarded Newton iteration
    together, each inside its own bracket [lo, hi]: from the explicit upper
    bound min(target, (target/alpha_m)^(1/(2m-1))) Newton decreases
    monotonically on the convex g, a step leaving the bracket is replaced by
    its midpoint, and elements still open after 100 steps go on by plain
    bisection, so termination is unconditional.  An element is done, and
    leaves the iteration, at the first of three tests: its residual
    |g - target| is at most 4 ulp of the target, its bracket is one ulp
    wide, or its Newton correction |(g - target)/g'| is at most one ulp of
    t with g' finite.  The last one stops the steep radii (t g'/g up to
    2m-1), where the rounding of g alone exceeds the 4-ulp residual.
    A dimension below 3, a radius that is not positive (or NaN) and a zero
    or non-finite strength raise InputError.
    """
    radii = np.asarray(r, dtype=float)
    if not np.all(radii > 0):  # NaN fails this too
        raise InputError(f"radius must be positive, got {r}")
    a = _check_strength(a)
    _check_dim(N)
    alphas = taylor_coefficients(m)
    with np.errstate(over="ignore", divide="ignore"):
        target = abs(a) / (sphere_measure(N) * radii ** (N - 1))
    if not np.all(np.isfinite(target)):
        raise InputError(
            f"binary64 cannot hold |a|/(omega r^(N-1)) (a = {a:g}, N = {N})"
        )
    # Aim for machine-relative residuals (the flux identity then holds to
    # ~1e-15 relative at every sample); the documented guarantee is the
    # looser 1e-12 * max(1, target).  A target of 0 (r^(N-1) overflowed)
    # stops at once on its root 0.
    tol = 4.0 * np.spacing(target)
    # g(t) >= t and g(t) >= alpha_m t^(2m-1) give two upper bounds for the
    # root; the second is formed as a product, since target/alpha_m can
    # overflow where its root does not.
    p = 1.0 / (2 * m - 1)
    hi = np.minimum(target, target**p * alphas[-1] ** -p)
    lo = np.zeros_like(hi)
    t = hi
    slope = np.empty(radii.size)
    idx = np.arange(radii.size).reshape(radii.shape)  # where each element goes
    # g overflows for targets near the top of binary64, as the float
    # arithmetic did silently; such steps fail the bracket test.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(300):
            newton = step < 100  # then plain bisection on the kept bracket
            if not newton:
                t = 0.5 * (lo + hi)
            sigma, dsigma = _sigma_series(t * t, alphas)
            excess = t * sigma - target
            gprime = sigma + 2.0 * t * t * dsigma
            # the Newton correction counts only where g' is finite: an
            # overflowed g' gives excess/inf = 0 wherever t is (and inf/inf
            # = nan where g overflows too)
            correction = excess / gprime
            done = (
                (np.abs(excess) <= tol)
                | (hi - lo <= np.spacing(hi))
                | ((np.abs(correction) <= np.spacing(t)) & (gprime < np.inf))
            )
            n_done = np.count_nonzero(done)
            if n_done == done.size:  # a scalar only ends here: never indexed
                slope[idx] = t
                break
            if n_done:
                slope[idx[done]] = t[done]
            above = excess > 0
            hi = np.where(above, t, hi)
            lo = np.where(above, lo, t)
            if newton:
                t_new = t - correction
                t = np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi))
            if n_done:  # converged elements leave the iteration
                keep = ~done
                idx, t, lo, hi, target, tol = (
                    x[keep] for x in (idx, t, lo, hi, target, tol)
                )
        else:
            slope[idx] = 0.5 * (lo + hi)
    if radii.ndim == 0:
        return float(slope[0])
    return slope.reshape(radii.shape)


# ---------------------------------------------------------------------------
# Order-m radial profile
# ---------------------------------------------------------------------------

# absolute tolerance of the order-m profile's quadratures: the central
# value's head integral gets all of it, every other piece 1/(n+1)
_PROFILE_TOL = 1e-10


# Slope segments per engine call in ``approx_radial_profile``, so the panel
# arrays of 10^5 radii take a few MB instead of about 60.
_SEGMENT_BLOCK = 8192


def approx_radial_profile(a: float, m: int, N: int, rgrid) -> RadialProfile:
    """Order-m single-charge radial field sampled on ``rgrid``.

    The slope is the flux root at each radius with the sign of -a.  The
    field, vanishing at infinity, is integrated in the slope variable, where
    the radius r(tau) = (c/g(tau))^(1/q), c = |a|/omega_{N-1}, q = N-1, is
    explicit:

        u(r) = (1/q) int_0^{t(r)} tau r(tau) g'(tau)/g(tau) dtau,

    so the root find runs once, on the whole grid.  Every piece runs on
    the batched engine, held to its absolute tolerance or 1e-13 relative,
    whichever is looser: [0, t(r_max)] after tau = v^(q/(q-1)), which
    bounds the integrand; the segments [t(r_{i+1}), t(r_i)], 8,192 a call,
    each to 1e-10/(n+1), where an AccuracyError names the segment; and, for
    2m > N, the central value u(0+), attached as ``u0``, whose head beyond
    T = max(t(r_min), 1) takes tau = T x^(-q/(2m-N)) on intervals of
    x in (0, 1] graded toward 0, to 1e-10 in all.  For 2m <= N the field
    diverges at the charge and ``u0`` is None.  The absolute tolerance is
    fixed: under the relative floor a tighter one would not bind.
    """
    a = _check_strength(a)
    _check_dim(N)
    _check_order(m)
    r = _check_radii(rgrid)
    omega = sphere_measure(N)
    q = N - 1
    # The flux root divides |a| by omega r^(N-1): binary64 must hold that
    # divisor at r_max and the quotient at r_min.
    try:
        finite = math.isfinite(
            abs(a) / (omega * float(r[0]) ** q) + omega * float(r[-1]) ** q
        )
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise InputError(
            f"binary64 cannot hold |a|/(omega r^(N-1)) at r = {r[0]:g} or "
            f"r^(N-1) at r = {r[-1]:g} (a = {a:g}, N = {N})"
        )
    sign = math.copysign(1.0, a)
    slopes = flux_gradient_magnitude(r, a, m, N)
    alphas = taylor_coefficients(m)
    c = abs(a) / omega

    def integrand(tau):
        # tau g'/g = 1 + 2 tau^2 sigma'/sigma with g(tau) = tau sigma(tau^2)
        tau2 = tau * tau
        sigma, dsigma = _sigma_series(tau2, alphas)
        r_tau = (c / (tau * sigma)) ** (1.0 / q)
        return r_tau * (1.0 + 2.0 * tau2 * dsigma / sigma) / q

    n = r.size
    seg_tol = _PROFILE_TOL / (n + 1)
    k = q / (q - 1)
    (first,), _ = adaptive_gauss_kronrod(
        lambda v: integrand(v**k) * k * v ** (k - 1),
        0.0, slopes[-1:] ** (1.0 / k), seg_tol, 200, rel_tol=1e-13,
    )
    # The segments [t(r_{i+1}), t(r_i)] and, for 2m > N, `mid` = [t(r_min), T]
    # with T = max(t(r_min), 1): below tau = 1 the top term of g does not
    # dominate, and the range of the head's substituted integrand would grow
    # like T^(-(2m-2)/q).  For 2m <= N `mid` is empty.
    T = max(slopes[0], 1.0) if 2 * m > N else slopes[0]
    lo, hi, seg = np.append(slopes[1:], slopes[0]), np.append(slopes[:-1], T), np.empty(n)
    for start in range(0, n, _SEGMENT_BLOCK):
        block = slice(start, start + _SEGMENT_BLOCK)
        try:
            seg[block], _ = adaptive_gauss_kronrod(
                integrand, lo[block], hi[block], seg_tol, 200, rel_tol=1e-13
            )
        except AccuracyError as exc:
            exc.interval = i = start + exc.interval
            if i == n - 1:  # `mid`
                raise
            raise AccuracyError(
                f"slope segment [{slopes[i + 1]:g}, {slopes[i]:g}] of the radii "
                f"[{r[i]:g}, {r[i + 1]:g}]: {exc}",
                estimate=exc.estimate, error_bound=exc.error_bound,
            ) from exc
    # summed from the outer radius inward, as u vanishes at infinity
    u_mag = np.cumsum(np.concatenate(([first], seg[-2::-1])))[::-1]

    u0 = None
    if 2 * m > N:
        # tau = T x^(-j), x in (0, 1], on intervals graded toward x -> 0
        j = q / (2 * m - N)
        x = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 8)))
        head, _ = adaptive_gauss_kronrod(
            lambda x: integrand(T * x**-j) * j * T * x ** (-j - 1),
            x[:-1], x[1:], _PROFILE_TOL / 8, 200, rel_tol=1e-13,
        )
        u0 = sign * (u_mag[0] + seg[-1] + head.sum())
    return RadialProfile(dim=N, strength=a, kind="approximant", order=m, r=r,
                         u=sign * u_mag, du=-sign * slopes, u0=u0)


# ---------------------------------------------------------------------------
# Singularity fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Power law fitted in log-log coordinates over a radial window.

    ``coefficient`` is signed for field fits (carrying the direction of
    approach to the central value) and positive for slope-magnitude fits.
    ``residual`` is the max absolute log-space deviation from the fitted
    line, never hidden.  ``guaranteed`` records whether the profile's order
    satisfies the hypothesis backing the predicted exponents.
    """

    exponent: float
    coefficient: float
    residual: float
    window: tuple[float, float]
    n_samples: int
    guaranteed: bool


def _loglog_fit(x: np.ndarray, y_abs: np.ndarray) -> tuple[float, float, float]:
    lx = np.log(x)
    ly = np.log(y_abs)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), residual


def fit_singularity(
    profile: RadialProfile, window: tuple[float, float]
) -> tuple[FitResult, FitResult]:
    """Measure the near-charge power laws of a sampled profile.

    Fits log|u(r) - u(0+)| and log|u'(r)| against log r over
    ``window = (r_min, r_max)`` and returns (field fit, slope fit).  The
    central value is the profile's ``u0``; profiles without a finite one
    (order 2m <= N) are centered at zero, which turns the field fit into a
    measurement of the divergence rate, and are flagged unguaranteed.
    Requires at least 8 samples inside the window, and the window must sit
    inside the sampled range and well below the charge's own length scale.
    """
    w_lo, w_hi = float(window[0]), float(window[1])
    if not 0 < w_lo < w_hi:
        raise InputError(f"window must satisfy 0 < r_min < r_max, got {window}")
    r = profile.r
    if w_lo < r[0] or w_hi > r[-1]:
        raise InputError("window must lie inside the sampled radius range")
    scale = (abs(profile.strength) / sphere_measure(profile.dim)) ** (
        1.0 / (profile.dim - 1)
    )
    if w_hi > 1e-2 * scale:
        raise InputError(
            f"window top {w_hi:g} is not deep inside the charge region "
            f"(needs <= {1e-2 * scale:g})"
        )
    mask = (r >= w_lo) & (r <= w_hi)
    if int(np.count_nonzero(mask)) < 8:
        raise InputError("fewer than 8 samples inside the fit window")

    guaranteed = (
        profile.kind == "approximant"
        and profile.u0 is not None
        and _is_guaranteed(profile.order, profile.dim)
    )
    center = profile.u0 if profile.u0 is not None else 0.0

    rw = r[mask]
    diff = profile.u[mask] - center
    if np.any(diff == 0):
        raise InputError("field equals its central value inside the window")
    u_sign = 1.0 if np.median(diff) > 0 else -1.0
    slope_u, intercept_u, res_u = _loglog_fit(rw, np.abs(diff))
    u_fit = FitResult(
        exponent=slope_u,
        coefficient=u_sign * math.exp(intercept_u),
        residual=res_u,
        window=(w_lo, w_hi),
        n_samples=int(rw.size),
        guaranteed=guaranteed,
    )
    du_w = np.abs(profile.du[mask])
    if np.any(du_w == 0):
        raise InputError("slope vanishes inside the window")
    slope_d, intercept_d, res_d = _loglog_fit(rw, du_w)
    du_fit = FitResult(
        exponent=slope_d,
        coefficient=math.exp(intercept_d),
        residual=res_d,
        window=(w_lo, w_hi),
        n_samples=int(rw.size),
        guaranteed=guaranteed,
    )
    return u_fit, du_fit


# ---------------------------------------------------------------------------
# Cone-plus-tail candidates and the spacelike energy ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeTailCandidate:
    """Unit cone matched to a harmonic tail at radius R.

    ubar(r) = 1 - r on (0, R) and c1 r^(2-N) on [R, inf) with
    c1 = R^(N-2)(1-R); continuity holds by construction and the tail stays
    1-Lipschitz exactly when R >= (N-2)/(N-1).
    """

    dim: int
    R: float

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        lo = (self.dim - 2) / (self.dim - 1)
        if not lo <= self.R <= 1.0:
            raise ValueError(
                f"matching radius must lie in [{lo:.6g}, 1], got {self.R}"
            )


def cone_tail_energy(R: float, N: int) -> float:
    """Radial Dirichlet energy E(R) of the cone-plus-tail candidate.

    E(R) = int_0^R r^(N-1) dr + c1^2 (N-2)^2 int_R^inf r^(1-N) dr
         = R^N/N + (N-2) R^(N-2) (1-R)^2,

    defined for R in [(N-2)/(N-1), 1] (outside, the candidate is either not
    1-Lipschitz or has a singular tail).  E is non-decreasing there, so the
    minimum sits at R = (N-2)/(N-1) and omega_{N-1} E at that point equals
    the best constant of the gradient/sup-norm inequality.
    """
    candidate = ConeTailCandidate(N, float(R))  # validates the admissible range
    R = candidate.R
    return R**N / N + (N - 2) * R ** (N - 2) * (1.0 - R) ** 2


def spacelike_ratio(profile) -> float:
    """Energy/sup-norm ratio  ||grad u||_2^2 / ||u||_inf^N  of a radial field.

    Accepts a ConeTailCandidate or an exact-model RadialProfile; both are
    1-Lipschitz with finite energy, so the ratio is bounded below by the
    best constant.  Both energies are closed forms.  The candidate has
    sup-norm 1, so its ratio is omega_{N-1} E(R) (``cone_tail_energy``).
    The exact slope is c/sqrt(r^(2q) + c^2), c = |a|/omega_{N-1}, q = N-1,
    and r = c^(1/q) x turns its energy into

        int_0^inf c^2 r^q / (r^(2q) + c^2) dr = c^(N/q) pi / (2q sin(pi N/(2q))),

    while |u0| = c^(1/q) B with B = B(1/2 - 1/p, 1/p)/p, p = 2q, so the
    ratio omega_{N-1} pi / (2q sin(pi N/(2q)) B^N) depends on N alone: the
    invariance u -> t u(./t) and the strength scaling hold exactly.  Order-m
    profiles are rejected: their slope leaves the light cone near the
    charge, and the bound does not apply to them.
    """
    if isinstance(profile, ConeTailCandidate):
        return sphere_measure(profile.dim) * cone_tail_energy(profile.R, profile.dim)
    if isinstance(profile, RadialProfile):
        if profile.kind != "exact-bi":
            raise ValueError(
                "the energy/sup-norm bound needs a 1-Lipschitz field; "
                "order-m profiles leave the light cone near the charge"
            )
        if profile.u0 is None or profile.u0 == 0.0:
            raise ValueError("profile has no nonzero central value")
        N = profile.dim
        q = N - 1
        p = 2 * q
        B = _complete_beta(0.5 - 1.0 / p, 1.0 / p) / p
        unit_energy = math.pi / (2 * q * math.sin(math.pi * N / (2 * q)))  # c = 1
        return sphere_measure(N) * unit_energy / B**N
    raise ValueError(f"unsupported profile type {type(profile).__name__}")
