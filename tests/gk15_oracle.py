"""Scalar adaptive Gauss-Kronrod 7-15, the test oracle for ``quad``'s engine.

One panel at a time on floats, with the worst panel bisected next from a
heap, as QUADPACK's QAG does.  It shares only the node and weight table with
``quad.adaptive_gauss_kronrod``, which evaluates whole arrays of panels per
pass, so the two agree only as far as both meet their tolerances.
"""

import heapq
import math

from borninfeld.quad import _GK15, AccuracyError

_EPS = math.ulp(1.0)


def gk15_panel(f, a: float, b: float) -> tuple[float, float]:
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
        raise AccuracyError(
            f"integrand is not a finite binary64 number on [{a:g}, {b:g}]",
            estimate=value,
            error_bound=err,
        )
    return value, err


def adaptive_gauss_kronrod(
    f, a: float, b: float, abs_tol: float = 1e-10, max_subdivisions: int = 60,
    rel_tol: float = 0.0,
) -> tuple[float, float]:
    """Bisect the worst panel until the summed bounds meet
    max(abs_tol, rel_tol * |value|): (value, error bound)."""
    if b == a:
        return 0.0, 0.0
    value, err = gk15_panel(f, a, b)
    heap = [(-err, 0, a, b, value, err)]  # (-err, tiebreak, a, b, value, err)
    total_value, total_err = value, err
    splits = 0
    while total_err > max(abs_tol, rel_tol * abs(total_value)):
        if splits >= max_subdivisions:
            raise AccuracyError(
                f"tolerance {abs_tol:g} not reached after {splits} subdivisions",
                estimate=total_value,
                error_bound=total_err,
            )
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = gk15_panel(f, pa, pm)
        rv, re = gk15_panel(f, pm, pb)
        total_value += lv + rv - pv
        total_err += le + re - pe
        splits += 1
        heapq.heappush(heap, (-le, 2 * splits - 1, pa, pm, lv, le))
        heapq.heappush(heap, (-re, 2 * splits, pm, pb, rv, re))
    return total_value, total_err


def integrate_decaying(
    f, r0: float, abs_tol: float, max_subdivisions: int = 60, rel_tol: float = 0.0
) -> tuple[float, float]:
    """Integral of f over [r0, inf): [r0, split] directly, split = r0 +
    max(10, r0), and the tail through s = split + tau/(1 - tau)."""
    split = r0 + max(10.0, r0)

    def tail(tau: float) -> float:
        onem = 1.0 - tau
        return f(split + tau / onem) / (onem * onem)

    value = err = 0.0
    for g, lo, hi in ((f, r0, split), (tail, 0.0, 1.0)):
        v, e = adaptive_gauss_kronrod(g, lo, hi, abs_tol / 2, max_subdivisions, rel_tol)
        value += v
        err += e
    return value, err
