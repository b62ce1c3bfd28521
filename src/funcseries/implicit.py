"""The implicit bases c1 .. c6 and the numeric inversion they run on.

These six families have no explicit basis formula: g is the solution y of
ginv(y) = x, found by :func:`_invert_monotone`, capped Newton on the
inverse basis with a bisection walk (:func:`_bisect_monotone`) as its
fallback and a reported (never silent) failure mode.  For c1 .. c5 the
domain and image are not written down either: :func:`_scan_pieces` scans
the slope of the inverse basis for its first sign change on each side of
zero (:func:`_find_flip`).

The module loads on first use: :func:`funcseries.catalog.get_expansion`
imports it for one of these six keys, and
:func:`funcseries.catalog.invert_numeric` on its first call, so an
explicit family's build and evaluation, a bare ``import funcseries`` and
``import funcseries.cli`` never compile it.  A builder here gives the
value-and-slope pair ``ginv_d``, as the explicit builders of
:mod:`funcseries.catalog` do, and ``ginv`` alone in place of ``g``: the
value-only inverse basis that the bisection walk reads, bit-identical to
the pair's value, raising where the pair raises.  The series branches of
c3, c4 and c6 sum their tables through ``catalog._series_kernel``.
"""

from __future__ import annotations

import math
from typing import Callable

from .catalog import ConvergenceError, Interval, _series_kernel

# -- numeric inversion of a monotone inverse basis ----------------------------


def _invert_monotone(
    x: float,
    ginv: Callable,
    ginv_d: Callable,
    image: Interval,
    increasing: bool,
    d1: float,
    context: str,
) -> float:
    """Solve ginv(y) = x for y inside `image` (monotone there).

    Newton takes value and slope from one ginv_d call per step and hands
    over to bisection when the pair raises, the slope is 0 or not finite,
    or a step leaves the image.
    """
    if x == 0.0:
        return 0.0
    tol = 1e-14 * max(1.0, abs(x))
    lo, hi = image.lo, image.hi
    inf = math.inf
    y = x / d1
    if y <= lo:
        y = 0.75 * lo
    elif y >= hi:
        y = 0.75 * hi
    # Each step tests by comparisons, not calls: mtol <= f <= tol is
    # abs(f) <= tol and -inf < d < inf is isfinite(d), both False for NaN.
    mtol = -tol
    for _ in range(60):
        try:
            v, d = ginv_d(y)
        except (OverflowError, ValueError):
            break
        f = v - x
        if mtol <= f <= tol:
            return y
        if d == 0.0 or not -inf < d < inf:
            break
        yn = y - f / d
        if not lo < yn < hi:
            break
        if yn == y:
            break
        y = yn
    return _bisect_monotone(x, ginv, image, increasing, tol, context)


def _bisect_monotone(x, ginv, image, increasing, tol, context) -> float:
    # Walk outward from 0 toward the end where ginv passes x, then bisect.
    # Where ginv overflows, it counts as the infinity it tends to, which
    # lies beyond the finite x: f is +-inf.  The tests are comparisons,
    # as in _invert_monotone.  A walk that stalls next to a closed end
    # tries the end itself, where the solution may lie (a7 at x = -2);
    # when f changes sign between the last point and the end, the root
    # lies between two adjacent floats, and the one with the smaller
    # residual is returned (a7 a hair above -2, where g' = 0 and no float
    # meets the tolerance).
    pos0 = -x > 0  # the sign of f = ginv(0) - x
    mtol = -tol
    inf = math.inf
    direction = 1.0 if (x > 0.0) == increasing else -1.0
    if direction > 0:
        end, closed = image.hi, image.hi_closed
    else:
        end, closed = image.lo, image.lo_closed
    bounded = -inf < end < inf
    good, fgood = 0.0, -x
    bad = None
    y = 0.5 * direction
    for _ in range(200):
        if bounded and (y >= end if direction > 0 else y <= end):
            y = 0.5 * (good + end)
        try:
            f = ginv(y) - x
        except OverflowError:
            f = inf if (y > 0.0) == increasing else -inf
        if mtol <= f <= tol:
            return y
        if f == 0.0 or (f > 0) != pos0:
            bad = y
            break
        good, fgood = y, f
        if bounded:
            y = 0.5 * (y + end)
            if y == good:
                break
        else:
            y *= 2.0
    if bad is None and closed:
        fend = ginv(end) - x  # a closed end maps to a finite x, so this is finite
        if mtol <= fend <= tol:
            return end
        if (fend > 0) != pos0:
            return end if abs(fend) < abs(fgood) else good
    if bad is None:
        raise ConvergenceError(f"{context}: could not bracket a solution for x={x!r}")
    a, b = good, bad
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        try:
            f = ginv(mid) - x
        except OverflowError:
            f = inf if (mid > 0.0) == increasing else -inf
        if mtol <= f <= tol:
            return mid
        if (f > 0) == pos0:
            a = mid
        else:
            b = mid
    y = 0.5 * (a + b)
    try:
        f = ginv(y) - x
    except OverflowError:
        f = inf
    if abs(f) <= 100.0 * tol:
        return y
    raise ConvergenceError(f"{context}: inversion stalled at x={x!r}")


# -- monotone-interval scan for the series-defined families -------------------


def _find_flip(ginv_d: Callable, s0: float, sgn: float) -> float:
    """First sign change of the slope ginv' * s0 in direction sgn, or +-inf."""
    prev = 0.0
    steps = [0.125 * k for k in range(1, 129)] + [32.0, 64.0]
    for mag in steps:
        y = sgn * mag
        if ginv_d(y)[1] * s0 <= 0.0:
            a, b = prev, y
            for _ in range(100):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                if ginv_d(mid)[1] * s0 > 0.0:
                    a = mid
                else:
                    b = mid
            return a
        prev = y
    return sgn * math.inf


def _scan_pieces(ginv_d, d1: float, tail_neg: float):
    """Domain and image for a family defined only through its inverse.

    tail_neg is the limit of ginv as y -> -inf, used when the slope keeps
    its sign on the whole negative half-line; towards +inf the exp(y) term
    of every scanned inverse basis (c1 .. c5) sends ginv to +inf.
    """
    s0 = 1.0 if d1 > 0 else -1.0
    ylo = _find_flip(ginv_d, s0, -1.0)
    yhi = _find_flip(ginv_d, s0, 1.0)
    x_at_ylo = ginv_d(ylo)[0] if math.isfinite(ylo) else tail_neg
    x_at_yhi = ginv_d(yhi)[0] if math.isfinite(yhi) else math.inf
    if d1 > 0:
        domain = Interval(x_at_ylo, x_at_yhi)
    else:
        domain = Interval(x_at_yhi, x_at_ylo)
    return domain, Interval(ylo, yhi)


# -- family builders -----------------------------------------------------------
#
# A builder gives the pair ginv_d, ginv alone for the bisection walk of g,
# and either tail_neg (c1 .. c5, see _scan_pieces) or, for c6, the domain
# and image with its side.


def _make_c1(p):
    wf = float(p["w"])

    def ginv(y):
        return y * (math.exp(y) + wf - 1.0)

    def ginv_d(y):
        ey = math.exp(y)
        return y * (ey + wf - 1.0), (y + 1.0) * ey + wf - 1.0

    if wf > 1.0:
        tail_neg = -math.inf
    elif wf == 1.0:
        tail_neg = 0.0  # unreachable: the w=1 branch has a critical point first
    else:
        tail_neg = math.inf
    return dict(tail_neg=tail_neg, ginv=ginv, ginv_d=ginv_d)


def _make_c2(p):
    def ginv(y):
        return (y - 2.0) * math.exp(y) - y + 2.0

    def ginv_d(y):
        ey = math.exp(y)
        return (y - 2.0) * ey - y + 2.0, (y - 1.0) * ey - 1.0

    return dict(tail_neg=math.inf, ginv=ginv, ginv_d=ginv_d)


def _make_c3(p):
    series, series_d = _series_kernel("c3", 20), _series_kernel("c3", 20, True)

    def ginv(y):
        if abs(y) < 0.25:
            return series(y)
        return (2.0 * math.exp(y) - 2.0 - 2.0 * y - y * y) / (2.0 * y * y)

    def ginv_d(y):
        if abs(y) < 0.25:
            return series_d(y)
        ey = math.exp(y)
        num = 2.0 * ey - 2.0 - 2.0 * y - y * y
        nump = 2.0 * ey - 2.0 - 2.0 * y
        try:
            return num / (2.0 * y * y), (y * nump - 2.0 * num) / (2.0 * y ** 3)
        except OverflowError:  # y ** 3 for y < -5e102, where the slope is below 1e-200
            return num / (2.0 * y * y), 0.0

    return dict(tail_neg=-0.5, ginv=ginv, ginv_d=ginv_d)


def _make_c4(p):
    series, series_d = _series_kernel("c4", 24), _series_kernel("c4", 24, True)

    def ginv(y):
        if abs(y) < 0.5:
            return series(y)
        ey = math.exp(y)
        y3 = y ** 3
        return (6.0 * y * ey - 12.0 * ey - y3 + 6.0 * y + 12.0) / (6.0 * y3)

    def ginv_d(y):
        if abs(y) < 0.5:
            return series_d(y)
        ey = math.exp(y)
        y3 = y ** 3
        num = 6.0 * y * ey - 12.0 * ey - y3 + 6.0 * y + 12.0
        nump = (6.0 * y - 6.0) * ey - 3.0 * y * y + 6.0
        try:
            return num / (6.0 * y3), (y * nump - 3.0 * num) / (6.0 * y ** 4)
        except OverflowError:  # y ** 4 for y < -1.3e77, where the slope is below 1e-200
            return num / (6.0 * y3), 0.0

    return dict(tail_neg=-1.0 / 6.0, ginv=ginv, ginv_d=ginv_d)


def _make_c5(p):
    af = float(p["alpha"])
    a1f = float(p["w"])
    a2f = float(p["beta"])

    q = af + a2f - 2.0
    lin = af + a1f - 1.0

    def ginv(y):
        return af + lin * y + 0.5 * q * y * y + (y - af) * math.exp(y)

    def ginv_d(y):
        ey = math.exp(y)
        return af + lin * y + 0.5 * q * y * y + (y - af) * ey, lin + q * y + (1.0 + y - af) * ey

    if q != 0.0:
        tail_neg = math.copysign(math.inf, q)
    elif lin != 0.0:
        tail_neg = -math.copysign(math.inf, lin)
    else:
        tail_neg = af
    return dict(tail_neg=tail_neg, ginv=ginv, ginv_d=ginv_d)


def _make_c6(p):
    series, series_d = _series_kernel("c6", 20), _series_kernel("c6", 20, True)

    def ginv(y):
        if abs(y) < 0.0625:
            return series(y)
        a = math.acos(1.0 + y)
        return -a * a / (2.0 * y) - 1.0

    def ginv_d(y):
        if abs(y) < 0.0625:
            return series_d(y)
        a = math.acos(1.0 + y)
        ap = -1.0 / math.sqrt(max(-y * (2.0 + y), 5e-324))
        return -a * a / (2.0 * y) - 1.0, (a * a - 2.0 * a * ap * y) / (2.0 * y * y)

    hi = 0.25 * math.pi * math.pi - 1.0
    return dict(
        domain=Interval(0.0, hi, True, True),
        image=Interval(-2.0, 0.0, True, True),
        side="right_of_zero", ginv=ginv, ginv_d=ginv_d,
    )


_BUILDERS = {
    "c1": _make_c1, "c2": _make_c2, "c3": _make_c3,
    "c4": _make_c4, "c5": _make_c5, "c6": _make_c6,
}
