"""Adaptive quadrature on half-lines and the exact single-charge field.

Every integral in this package lives on [r0, inf) with algebraic decay, so
the engine splits the range into a finite part handled by adaptive
Gauss-Kronrod (7-15 pair) and a tail mapped to [0, 1) through
s = split + tau/(1 - tau), after which the transformed integrand is again
mild enough for the same rule.  The Kronrod nodes are interior, so
integrable endpoint singularities never get evaluated directly.

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

The refined energy constant still runs through the engine:

    Ctilde(N) = omega_{N-1} * int r^(N-1) (1 - r^(N-1)/sqrt(r^(2(N-1))+1)) dr
                / (int (r^(2(N-1))+1)^(-1/2) dr)^N.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .core import _check_dim, _check_radii, _check_strength, sphere_measure

__all__ = [
    "AccuracyError",
    "RadialProfile",
    "integrate_decaying",
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
    decide whether the partial answer is still useful.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _gk15_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel on [a, b]: (estimate, error bound)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    resk = 0.0
    resg = 0.0
    resabs = 0.0
    values = []
    for x, wg, wk in _GK15:
        try:
            fx = f(mid + half * x)
        except (OverflowError, ZeroDivisionError):
            fx = math.nan  # the integrand left binary64
        values.append((fx, wk))
        resk += wk * fx
        resg += wg * fx
        resabs += wk * abs(fx)
    reskh = 0.5 * resk
    resasc = sum(wk * abs(fx - reskh) for fx, wk in values)
    value = resk * half
    err = abs((resk - resg) * half)
    asc = resasc * abs(half)
    if asc != 0.0 and err != 0.0:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(half))
    if not (math.isfinite(value) and math.isfinite(err)):
        # a NaN bound would end the adaptive loop as if it had converged
        raise AccuracyError(
            f"integrand is not a finite binary64 number on [{a:g}, {b:g}]",
            estimate=value,
            error_bound=err,
        )
    return value, err


_GK15_NODES, _GK15_GAUSS, _GK15_KRONROD = (np.array(col) for col in zip(*_GK15))


def _gk15_panels(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_gk15_panel`` on every [a_i, b_i] at once: (estimates, error bounds).

    ``f`` maps an array of nodes to an array of values; it is called once,
    on the (n, 15) node matrix.  The sums run over the nodes in the order of
    ``_GK15``, so each panel equals the scalar one on the same values.  An
    overflowing integrand gives a non-finite estimate or bound, which the
    caller must reject.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    with np.errstate(all="ignore"):
        fx = f(mid[:, None] + half[:, None] * _GK15_NODES)
        resk = resg = resabs = resasc = 0.0
        for j in range(len(_GK15)):
            resk = resk + _GK15_KRONROD[j] * fx[:, j]
            resg = resg + _GK15_GAUSS[j] * fx[:, j]
            resabs = resabs + _GK15_KRONROD[j] * np.abs(fx[:, j])
        reskh = 0.5 * resk
        for j in range(len(_GK15)):
            resasc = resasc + _GK15_KRONROD[j] * np.abs(fx[:, j] - reskh)
        value = resk * half
        err = np.abs((resk - resg) * half)
        asc = resasc * np.abs(half)
        scaled = asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5)
        err = np.where((asc != 0.0) & (err != 0.0), scaled, err)
        err = np.maximum(err, 50.0 * _EPS * resabs * np.abs(half))
    return value, err


def adaptive_gauss_kronrod(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_subdivisions: int = 60,
    rel_tol: float = 0.0,
) -> tuple[float, float]:
    """Adaptive bisection driven by per-panel Kronrod error estimates.

    Returns (value, error_bound).  Accepts once the bound drops below
    max(abs_tol, rel_tol * |value|); raises AccuracyError when that still
    fails after ``max_subdivisions`` splits of the worst panel.  A nonzero
    ``rel_tol`` keeps large-magnitude integrals from chasing an absolute
    target below the binary64 roundoff floor.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError(f"inverted interval [{a}, {b}]")
    value, err = _gk15_panel(f, a, b)
    # heap entries: (-err, tiebreak, a, b, value, err)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value, total_err = value, err
    splits = 0
    while total_err > max(abs_tol, rel_tol * abs(total_value)):
        if splits >= max_subdivisions:
            raise AccuracyError(
                f"tolerance {abs_tol:g} not reached after {splits} subdivisions "
                f"(error bound {total_err:g})",
                estimate=total_value,
                error_bound=total_err,
            )
        neg_err, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            raise AccuracyError(
                "interval too small to subdivide further "
                f"(error bound {total_err:g})",
                estimate=total_value,
                error_bound=total_err,
            )
        lv, le = _gk15_panel(f, pa, pm)
        rv, re = _gk15_panel(f, pm, pb)
        total_value += lv + rv - pv
        total_err += le + re - pe
        counter += 1
        heapq.heappush(heap, (-le, counter, pa, pm, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, pm, pb, rv, re))
        splits += 1
    return total_value, total_err


def integrate_decaying(
    f: Callable[[float], float],
    r0: float,
    abs_tol: float = 1e-10,
    *,
    split: float | None = None,
    max_subdivisions: int = 60,
    rel_tol: float = 0.0,
    with_error: bool = False,
):
    """Integral of f over [r0, inf) for continuous f with O(s^-p), p > 1 decay.

    The finite part [r0, split] uses adaptive Gauss-Kronrod directly; the
    tail substitutes s = split + tau/(1-tau) and integrates over tau in
    [0, 1).  Returns the value, or (value, error_bound) with
    ``with_error=True``; raises AccuracyError if the bound cannot be brought
    below ``abs_tol``.
    """
    r0 = float(r0)
    if not math.isfinite(r0):
        raise ValueError(f"lower limit must be finite, got {r0}")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    if split is None:
        split = r0 + 10.0
    if split < r0:
        raise ValueError("split point lies below the lower limit")

    def tail(tau: float) -> float:
        onem = 1.0 - tau
        return f(split + tau / onem) / (onem * onem)

    pieces = []
    if split > r0:
        pieces.append((f, r0, split))
    pieces.append((tail, 0.0, 1.0))
    total_value = 0.0
    total_err = 0.0
    try:
        for pf, pa, pb in pieces:
            v, e = adaptive_gauss_kronrod(
                pf, pa, pb, abs_tol / len(pieces), max_subdivisions, rel_tol
            )
            total_value += v
            total_err += e
    except AccuracyError as exc:
        raise AccuracyError(
            f"half-line quadrature from {r0:g} failed: {exc}",
            estimate=total_value + exc.estimate,
            error_bound=total_err + exc.error_bound,
        ) from exc
    if with_error:
        return total_value, total_err
    return total_value


# ---------------------------------------------------------------------------
# Shape constants
# ---------------------------------------------------------------------------


def _single_charge_field(a: float, N: int, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Central value u(0+) and field u(r) of one charge, in closed form.

    I_w(alpha, beta) with w -> 1 near the charge loses every digit of the
    small complement 1 - w, so w = 1/(1+x) and 1 - w = 1/(1+1/x) are formed
    separately, and once w exceeds 1/2 the reflection
    I_w(alpha, beta) = 1 - I_{1-w}(beta, alpha) is evaluated instead.
    """
    q = N - 1
    p = 2 * q
    alpha, beta = 0.5 - 1.0 / p, 1.0 / p
    length = (abs(a) / sphere_measure(N)) ** (1.0 / q)
    u0 = math.copysign(length * special.beta(alpha, beta) / p, a)
    with np.errstate(over="ignore", divide="ignore"):
        x = (r / length) ** p
        w = 1.0 / (1.0 + x)
        w_comp = 1.0 / (1.0 + 1.0 / x)
    ratio = np.where(
        w <= 0.5, special.betainc(alpha, beta, w), special.betaincc(beta, alpha, w_comp)
    )
    return u0, u0 * ratio


def shape_constant_A(N: int) -> float:
    """Central-value scale A(N) of the single-charge field.

    A unit charge produces a field of central value A(N); strength a scales
    it by sign(a) |a|^(1/(N-1)).
    """
    _check_dim(N)
    return _single_charge_field(1.0, N, np.empty(0))[0]


def refined_constant_ctilde(N: int, abs_tol: float = 1e-10) -> float:
    """Refined constant of the energy/sup-norm inequality.

    Sharper than half the gradient-norm best constant: Ctilde >= Cbar/2,
    with Ctilde(3)/omega_2 ~= 0.097.  Both integrals run through the
    half-line engine; the numerator is evaluated in the cancellation-free
    form r^(N-1) / (sqrt(R+1) (sqrt(R+1) + r^(N-1))) with R = r^(2(N-1)).
    """
    _check_dim(N)
    q = N - 1
    p = 2 * q

    def numerator(r: float) -> float:
        x = r**q
        root = math.sqrt(x * x + 1.0)
        return x / (root * (root + x))

    def denominator(s: float) -> float:
        return 1.0 / math.sqrt(s**p + 1.0)

    num = integrate_decaying(numerator, 0.0, abs_tol)
    den = integrate_decaying(denominator, 0.0, abs_tol)
    return sphere_measure(N) * num / den**N


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
