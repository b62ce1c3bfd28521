"""Independent reference implementations used to cross-check the package.

Nothing in here imports from funcseries.  The oracles are deliberately
naive: set partitions enumerated one element at a time, polynomial
arithmetic as nested loops over Fraction lists, series reversion by the
Lagrange inversion formula, Stirling numbers by their recurrences,
derivatives by central differences.  Slow is fine; the point
is that a bug in the package and a bug here would have to coincide.
"""

from fractions import Fraction

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
