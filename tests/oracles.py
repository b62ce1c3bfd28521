"""Independent reference implementations used to cross-check the package.

Nothing in here imports from funcseries.  The oracles are deliberately
naive: set partitions enumerated one element at a time, polynomial
arithmetic as nested loops over Fraction lists, series reversion by the
Lagrange inversion formula, Stirling numbers by their recurrences,
derivatives by central differences.  Slow is fine; the point
is that a bug in the package and a bug here would have to coincide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import math


# -- set partitions and Bell values -----------------------------------------


def set_partitions(n):
    """Yield every partition of {0, .., n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def bell_by_partitions(n, k, args):
    """B(n, k) as a sum of block-size products over set partitions.

    ``args`` lists x_1, x_2, .. with x_j weighting blocks of size j; the
    list must reach x_{n-k+1}, the largest block size possible with k
    blocks.  Exponential cost, usable up to n around 9.
    """
    if n == 0 and k == 0:
        return Fraction(1)
    total = Fraction(0)
    for part in set_partitions(n):
        if len(part) != k:
            continue
        prod = Fraction(1)
        for block in part:
            prod *= Fraction(args[len(block) - 1])
        total += prod
    return total


# -- Stirling numbers by recurrence ------------------------------------------


def stirling2_rec(n, m):
    if m < 0 or m > n:
        return 0
    row = [1]
    for i in range(1, n + 1):
        new = [0] * (i + 1)
        for j in range(1, i + 1):
            upper = row[j] if j < len(row) else 0
            new[j] = j * upper + row[j - 1]
        row = new
    return row[m] if n else (1 if m == 0 else 0)


def stirling1_rec(n, m):
    """Signed first kind: s(n, m) = s(n-1, m-1) - (n-1) s(n-1, m)."""
    if m < 0 or m > n:
        return 0
    row = [1]
    for i in range(1, n + 1):
        new = [0] * (i + 1)
        for j in range(1, i + 1):
            new[j] = row[j - 1] - (i - 1) * (row[j] if j < len(row) else 0)
        new[0] = -(i - 1) * row[0]
        row = new
    return row[m]


# -- naive polynomial arithmetic over Fraction lists -------------------------


def poly_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def poly_compose(outer, inner, order):
    """Coefficients of outer(inner(y)) truncated at ``order``."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for c in outer:
        for idx in range(order + 1):
            out[idx] += Fraction(c) * power[idx]
        power = poly_mul(power, inner, order)
    return out


def poly_eval(coeffs, x):
    total = Fraction(0)
    xf = Fraction(x)
    for c in reversed(list(coeffs)):
        total = total * xf + Fraction(c)
    return total


def poly_eval_float(coeffs, x):
    total = 0.0
    for c in reversed(list(coeffs)):
        total = total * x + float(c)
    return total


def poly_reciprocal(a, order):
    """Coefficients of 1/a(y) truncated at ``order``; a[0] must be nonzero."""
    out = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = Fraction(int(n == 0))
        for i in range(1, min(n, len(a) - 1) + 1):
            acc -= Fraction(a[i]) * out[n - i]
        out[n] = acc / Fraction(a[0])
    return out


def revert_by_lagrange(y, order):
    """Compositional inverse t of y (y[0] = 0, y[1] != 0) to ``order``.

    Lagrange inversion: [u^n] t(u) = (1/n) [s^(n-1)] (s / y(s))^n, with
    the powers of phi = s / y(s) built one naive product at a time.  Each
    power is an integer list over one common denominator, reduced by the
    gcd of all its entries after every product.
    """
    phi = poly_reciprocal(y[1:], order)
    d = math.lcm(*(c.denominator for c in phi))
    p = [int(c * d) for c in phi]
    t = [Fraction(0)] * (order + 1)
    num, den = [1] + [0] * order, 1
    for n in range(1, order + 1):
        num = [sum(num[i] * p[k - i] for i in range(k + 1)) for k in range(order + 1)]
        den *= d
        g = math.gcd(den, *num)
        num = [v // g for v in num]
        den //= g
        t[n] = Fraction(num[n - 1], n * den)
    return t


def sq_arccos_shift_by_reversion(order):
    """c_0 .. c_order of -[arccos(1+y)]^2 / (2y) - 1, by reversion.

    s = [arccos(1+y)]^2 solves cos(sqrt(s)) - 1 = y, so s(y) reverts
    y(s) = sum_{j>=1} (-1)^j s^j / (2j)!.
    """
    y = [Fraction(0)] + [
        Fraction((-1) ** j, math.factorial(2 * j)) for j in range(1, order + 2)
    ]
    s = revert_by_lagrange(y, order + 1)
    coeffs = [-c / 2 for c in s[1:]]
    coeffs[0] -= 1
    return coeffs


def _rational_sqrt(x):
    """The square root of a rational square, exactly."""
    x = Fraction(x)
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise ValueError(f"{x} is not the square of a rational")
    return Fraction(num, den)


def _binomial(a, n):
    """C(a, n) for rational a, one factor at a time."""
    out = Fraction(1)
    for i in range(n):
        out = out * (a - i) / (i + 1)
    return out


# The name under which elementary_series knows each a-family's inverse basis.
KINDS = {
    "a1": "exp_m1", "a2": "neg_ln_1m", "a3": "sinh", "a4": "sin", "a5": "pow_alpha_m1",
    "a6": "half_sq_plus_wx", "a7": "sqrt_shift", "a8": "inv_sq_m1", "a9": "odd_geom",
    "a10": "lambert_pair", "a11": "log_ratio", "a12": "expm1_ratio", "a13": "arcsin",
}


def elementary_series(kind, order, alpha=None, beta=None, w=None):
    """c_0 .. c_order of a named inverse basis, each from its textbook term.

    The kinds are the inverse bases of families a1 .. a13 with a standalone
    Maclaurin series; sqrt_shift needs alpha to be a rational square.
    """
    terms = range(1, order + 1)
    zero = [Fraction(0)]
    if kind == "exp_m1":  # e^y - 1
        return zero + [Fraction(1, math.factorial(n)) for n in terms]
    if kind == "neg_ln_1m":  # -ln(1 - y)
        return zero + [Fraction(1, n) for n in terms]
    if kind == "sinh":
        return zero + [Fraction(n % 2, math.factorial(n)) for n in terms]
    if kind == "sin":
        return zero + [Fraction(n % 2 * (-1) ** (n // 2), math.factorial(n)) for n in terms]
    if kind == "pow_alpha_m1":  # (1 + y)^alpha - 1
        return zero + [_binomial(Fraction(alpha), n) for n in terms]
    if kind == "half_sq_plus_wx":  # y^2 / 2 + w y
        return (zero + [Fraction(w), Fraction(1, 2)] + [Fraction(0)] * order)[: order + 1]
    if kind == "sqrt_shift":  # sqrt(alpha + beta y) - sqrt(alpha)
        root, ratio = _rational_sqrt(alpha), Fraction(beta) / Fraction(alpha)
        return zero + [root * _binomial(Fraction(1, 2), n) * ratio**n for n in terms]
    if kind == "inv_sq_m1":  # 1 / (1 - y)^2 - 1
        return zero + [Fraction(n + 1) for n in terms]
    if kind == "odd_geom":  # y / (1 - y^2)
        return zero + [Fraction(n % 2) for n in terms]
    if kind == "lambert_pair":  # (w + y - 1) e^y + 1 - w
        return zero + [(Fraction(w) - 1 + n) / math.factorial(n) for n in terms]
    if kind == "log_ratio":  # -ln(1 - y) / y - 1
        return zero + [Fraction(1, n + 1) for n in terms]
    if kind == "expm1_ratio":  # (e^y - 1) / y - 1
        return zero + [Fraction(1, math.factorial(n + 1)) for n in terms]
    if kind == "arcsin":
        return zero + [
            Fraction(math.comb(n - 1, n // 2), 4 ** (n // 2) * n) if n % 2 else Fraction(0)
            for n in terms
        ]
    raise ValueError(f"no elementary series {kind!r}")


def composite_inverse_series(key, order, alpha=0, w=1, beta=0):
    """c_0 .. c_order of the inverse basis of family c1 .. c5, by products.

    Each basis is built from the series of e^y with naive products, sums
    and divisions by a power of y, never from a per-coefficient formula.
    For c5, alpha is the constant shift and w, beta the first and second
    derivatives of the inverse basis.
    """
    alpha, w, beta = Fraction(alpha), Fraction(w), Fraction(beta)

    def exp(n):
        return [Fraction(1, math.factorial(k)) for k in range(n + 1)]

    def plus(a, b):
        return [x + y for x, y in zip(a, b + [0] * len(a))]

    def divided_by_y_power(num, k, den):
        if any(num[:k]):
            raise ValueError("leading coefficients do not vanish")
        return [c / den for c in num[k:]]

    if key == "c1":  # y (e^y + w - 1)
        return poly_mul([0, 1], plus(exp(order), [w - 1]), order)
    if key == "c2":  # (y - 2) e^y - y + 2
        return plus(poly_mul([-2, 1], exp(order), order), [2, -1])
    if key == "c3":  # (2 e^y - y^2 - 2y - 2) / (2 y^2)
        num = plus([2 * c for c in exp(order + 2)], [-2, -2, -1])
        return divided_by_y_power(num, 2, 2)
    if key == "c4":  # (6y e^y - 12 e^y - y^3 + 6y + 12) / (6 y^3)
        m = order + 3
        num = plus(poly_mul([0, 6], exp(m), m), [-12 * c for c in exp(m)])
        return divided_by_y_power(plus(num, [12, 6, 0, -1]), 3, 6)
    if key == "c5":  # alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y - alpha) e^y
        head = [alpha, alpha + w - 1, (alpha + beta - 2) / 2]
        return plus(poly_mul([-alpha, 1], exp(order), order), head)
    raise ValueError(f"no composite inverse basis for {key!r}")


# -- numerical derivatives ----------------------------------------------------


def nth_derivative_fd(f, n, h=1e-2):
    """n-th derivative of f at 0: central differences plus one Richardson step.

    Accuracy is roughly h^4 times higher derivatives, so keep comparisons
    loose (1e-5 relative is realistic for n <= 4 on smooth functions).
    """

    def central(step):
        acc = 0.0
        for i in range(n + 1):
            x = (n / 2 - i) * step
            acc += (-1) ** i * math.comb(n, i) * f(x)
        return acc / step**n

    d1 = central(h)
    d2 = central(h / 2)
    return (4.0 * d2 - d1) / 3.0


# -- numeric inversion of the implicit bases ----------------------------------
#
# The Newton loop and the bisection walk as they stood before the package
# compiled one solver per basis, with the inverse bases c1 .. c6 as the
# closures it then called: the value-only ginv and the value-and-slope pair
# ginv_d, each series branch summed by the Horner loop over the table of the
# exact series above.  The package's compiled g must return these floats
# bit for bit, and raise where they raise with the same class and message.


class ConvergenceError(RuntimeError):
    """The reference solver's failure; compared by class name and message."""


def _invert_monotone(
    x: float,
    ginv: Callable,
    ginv_d: Callable,
    image,
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


def _series_loops(table):
    """The Horner loops over a float table c_0 .. c_N: its value at y, and
    the pair (value, slope)."""
    order = len(table) - 1

    def value(y):
        acc = 0.0
        for c in reversed(table):
            acc = acc * y + c
        return acc

    def pair(y):
        acc = dacc = 0.0
        for n in range(order, 0, -1):
            acc = acc * y + table[n]
            dacc = dacc * y + n * table[n]
        return acc * y + table[0], dacc

    return value, pair


def implicit_inverse_basis(key, alpha=0, w=1, beta=0):
    """(ginv, ginv_d) of the implicit basis c1 .. c6 at float parameters:
    c1 reads w, c5 alpha (the constant shift), w and beta (the first and
    second derivatives), and the others none."""
    if key == "c1":
        wf = float(w)

        def ginv(y):
            return y * (math.exp(y) + wf - 1.0)

        def ginv_d(y):
            ey = math.exp(y)
            return y * (ey + wf - 1.0), (y + 1.0) * ey + wf - 1.0

    elif key == "c2":
        def ginv(y):
            return (y - 2.0) * math.exp(y) - y + 2.0

        def ginv_d(y):
            ey = math.exp(y)
            return (y - 2.0) * ey - y + 2.0, (y - 1.0) * ey - 1.0

    elif key == "c3":
        series, series_d = _series_loops([float(c) for c in composite_inverse_series("c3", 20)])

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
            except OverflowError:
                return num / (2.0 * y * y), 0.0

    elif key == "c4":
        series, series_d = _series_loops([float(c) for c in composite_inverse_series("c4", 24)])

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
            except OverflowError:
                return num / (6.0 * y3), 0.0

    elif key == "c5":
        af, a1f, a2f = float(alpha), float(w), float(beta)
        q = af + a2f - 2.0
        lin = af + a1f - 1.0

        def ginv(y):
            return af + lin * y + 0.5 * q * y * y + (y - af) * math.exp(y)

        def ginv_d(y):
            ey = math.exp(y)
            return (af + lin * y + 0.5 * q * y * y + (y - af) * ey,
                    lin + q * y + (1.0 + y - af) * ey)

    elif key == "c6":
        series, series_d = _series_loops([float(c) for c in sq_arccos_shift_by_reversion(20)])

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

    else:
        raise ValueError(f"no implicit inverse basis {key!r}")
    return ginv, ginv_d
