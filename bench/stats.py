"""Order statistics and failure accounting for benchmark samples."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of a non-empty sample.

    Position (n - 1) * q in the sorted sample, the rule numpy uses by
    default, so a median of an even-sized sample is the mean of the two
    middle values.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def samples_beyond(n: int, q: float) -> int:
    """Number of samples of an n-sample that lie strictly above its q-quantile
    position; a percentile is reported only when this is at least ten."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * q)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; the base must be positive."""
    if attempted < 1:
        raise ValueError("failed fraction needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted
