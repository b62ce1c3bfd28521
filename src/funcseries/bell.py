"""Partial Bell polynomials: the triangle, and the paper's closed forms as checks.

Every Bell value here comes from the standard recurrence (Comtet,
*Advanced Combinatorics*, section 3.3)

    B(n, k) = sum_{j=1}^{n-k+1} C(n-1, j-1) * x_j * B(n-j, k-1),

with B(0, 0) = 1, over the argument vector x_j = d_j of the family's
inverse-basis derivatives, by the column kernel :func:`_columns`.  A float
d_j (a5 with a float alpha, a7 with an irrational root) enters as its
exact binary value, and a nonzero cell with a float factor in one of its
products rounds once.  :func:`bell_values` and :func:`bell_generic` read
the triangle.  Coefficient assembly never forms it: the composition
recurrence of :mod:`funcseries.approx` gives the sums over k of
f^(k) B(n, k) directly, so no model build loads this module.

The paper's special-value formulas for fifteen families ("a1" .. "a13",
"c1", "c2") live here as :func:`bell_closed_form`.  They are checks, not
a route: on the first :func:`bell_values` call per parameter set, a
verification gate compares each formula with the kernel up to n = 10,
records the outcome (see :func:`gate_report`) and warns with a
RuntimeWarning on a mismatch.  A closed-form cell without a finite float
is left unchecked.  Returned values never depend on the outcome.

Every family's argument vector, closed form or not, is the derivative
formula of its record in the registry :data:`funcseries.pseries.FAMILIES`,
which also validates the family's parameters.

The rest of the package's verifier-only code lives here too, so that it
compiles only when a check runs: the Stirling numbers and the double
factorial that the closed forms read, and the bodies of the series
operations :meth:`funcseries.pseries.TruncatedSeries.mul`, ``compose``,
``reversion`` and ``derivatives``, which the methods call.  The module
loads on first use: through a name of its own, through the package's
``funcseries.stirling2`` and the like, or through one of those methods.
"""

from __future__ import annotations

import math
import threading
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exact import (ONE, ZERO, ExactScalar, _binary, _round, _supports, _tagged,
                    falling_factorial, scalar)
# family_series is not used here; it is bound in this namespace for callers
# that wrap it per module (perfbench/tracer.py).
from .pseries import (FAMILY_KEYS, MAX_ORDER, TruncatedSeries, _check_order, family_series,
                      get_family)

__all__ = [
    "CLOSED_FORM_FAMILIES",
    "bell_generic",
    "bell_closed_form",
    "derivative_sequence",
    "bell_values",
    "gate_report",
    "stirling2",
    "stirling1",
    "double_factorial",
]

_GATE_DEPTH = 10


def bell_generic(n: int, k: int, args: Sequence) -> ExactScalar:
    """B(n, k) over the derivative values args, with args[j-1] holding d_j.

    Computed over the exact binary values of float arguments, and rounded
    once if a nonzero product has a float factor; zero arguments are
    skipped.  A non-finite argument raises ValueError.
    """
    if n < 0 or k < 0:
        raise ValueError("bell_generic requires n >= 0 and k >= 0")
    if k >= 1 and len(args) < n - k + 1:
        raise ValueError(
            f"need at least {n - k + 1} derivative values for B({n},{k}), got {len(args)}"
        )
    if k == 0:
        return ONE if n == 0 else ZERO
    if k > n:
        return ZERO
    # B(n, k) reads only d_1 .. d_{n-k+1}; the zero padding feeds cells of
    # the triangle that B(n, k) does not depend on.
    values = [scalar(a)._v for a in args[: n - k + 1]] + [0] * (k - 1)
    return ExactScalar(_triangle(values, n, k)[n][k])


def _columns(values: list, nmax: int, kmax: Optional[int] = None) -> tuple:
    """(cols, scales): cols[k][n] for 0 <= k <= kmax and 0 <= n <= nmax.

    values[j-1] holds d_j as an int or Fraction.  Bell's recurrence runs in
    integers over D * d_j, with D the lcm of the denominators, and B(n, k)
    = cols[k][n] / scales[k]: column k is computed over the scale D *
    scales[k-1], and its content, the gcd of that scale and its entries,
    is divided out before column k + 1 starts (Knuth's primitive part,
    *TAOCP* vol. 2, section 4.6.1), which keeps the integers near the size
    of the Bell values instead of D^k.  Zero factors are skipped.
    """
    kmax = nmax if kmax is None else kmax
    values = values[:nmax]
    scale = math.lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    # (m, [C(i-1, m-1) * d_m for i <= nmax]) for the nonzero d_m, m ascending
    weighted = [(m, [0] * m + [math.comb(i - 1, m - 1) * x for i in range(m, nmax + 1)])
                for m, x in enumerate(values, 1) if x]
    cols, scales = [[1] + [0] * nmax], [1]
    for k in range(1, kmax + 1):
        prev = cols[-1]
        col = [0] * (nmax + 1)
        for m, w in weighted:
            for i in range(m + k - 1, nmax + 1):
                below = prev[i - m]
                if below:
                    col[i] += w[i] * below
        top = scale * scales[-1]
        content = math.gcd(top, *col) if top > 1 else 1
        if content > 1:
            col = [c // content for c in col]
        scales.append(top // content)
        cols.append(col)
    return cols, scales


def _triangle(values: list, nmax: int, kmax: Optional[int] = None) -> list:
    """Rows B(i, j) for 0 <= j <= min(i, kmax), i <= nmax, as raw numbers.

    values[j-1] holds d_j as an int, Fraction or finite float; at least
    nmax of them are needed.  Cell (i, j) is P_j[i] / S_j from the kernel
    :func:`_columns` over the exact binary values, as a
    Fraction, or as its correctly rounded float where
    :func:`funcseries.exact._supports` finds a float factor.  Serves
    :func:`bell_generic`, :func:`bell_values` and the gate.
    """
    values, floats = _binary(values, "Bell argument d_{}", 1)
    cols, scales = _columns(values, nmax, kmax)
    reads = [read for _, read in _supports(values, floats, nmax, len(cols) - 1)]
    cols = [[(_round(p, s) if read >> i & 1 else Fraction(p, s)) if p else 0
             for i, p in enumerate(col)] for col, s, read in zip(cols, scales, reads)]
    return [[col[i] for col in cols[: i + 1]] for i in range(nmax + 1)]


# -- series operations: the bodies of TruncatedSeries' verifier methods ------
#
# They compose and revert series, a second route to the coefficients that
# assembly never takes; the methods call them here, so the bodies load with
# the rest of the checks.


def _same_order(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if not isinstance(b, TruncatedSeries):
        raise TypeError("expected a TruncatedSeries operand")
    if b.order != a.order:
        raise ValueError(
            f"order mismatch: {a.order} vs {b.order}; "
            "binary operations require equal orders"
        )


def _series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the shared order.

    Zero factors are skipped so that exact zero coefficients stay exact
    even when the other series carries approximate (float) entries.
    """
    _same_order(a, b)
    x = [c._v for c in a.coeffs]
    y = [c._v for c in b.coeffs]
    out = []
    for m in range(len(x)):
        acc = 0
        for i in range(m + 1):
            u, v = x[i], y[m - i]
            if u and v:
                acc += u * v
        out.append(acc)
    return TruncatedSeries(out)


def _series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of outer(inner(y)) to the shared order.

    Horner-style accumulation over the outer coefficients; the inner
    series must have zero constant term so that truncation is sound.
    """
    _same_order(outer, inner)
    if inner[0] != 0:
        raise ValueError("composition requires inner constant term 0")
    c = outer.coeffs
    n = outer.order
    acc = TruncatedSeries((c[n],) + (ZERO,) * n)
    for k in range(n - 1, -1, -1):
        acc = _series_mul(acc, inner)
        acc = TruncatedSeries((acc[0] + c[k],) + acc.coeffs[1:])
    return acc


def _series_reversion(series: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse t with series(t(y)) = y to the same order.

    Triangular scheme: walking the target order m upward, the table
    pw[k][m] = [y^m] t(y)^k is filled for k >= 2 from already-known
    t_1 .. t_{m-1}, after which t_m drops out of the requirement that
    [y^m] series(t(y)) vanishes for m >= 2.
    """
    if series[0] != 0:
        raise ValueError("reversion requires constant term 0")
    if series.order < 1 or not series[1]:
        raise ValueError("reversion requires a nonzero linear term")
    s = [c._v for c in series.coeffs]
    n = series.order
    t = [0] * (n + 1)
    t[1] = 1 / s[1]
    pw = [[0] * (n + 1) for _ in range(n + 1)]
    pw[1][1] = t[1]
    for m in range(2, n + 1):
        for k in range(2, m + 1):
            prev = pw[k - 1]
            acc = 0
            for j in range(1, m - k + 2):
                if t[j] and prev[m - j]:
                    acc += prev[m - j] * t[j]
            pw[k][m] = acc
        acc = 0
        for k in range(2, m + 1):
            if s[k] and pw[k][m]:
                acc += s[k] * pw[k][m]
        t[m] = -acc / s[1]
        pw[1][m] = t[m]
    return TruncatedSeries(t)


def _series_derivatives(series: TruncatedSeries) -> tuple:
    """Derivative values d_1 .. d_N at zero (d_n = n! * c_n)."""
    return tuple(
        ExactScalar(c._v * math.factorial(m)) if c else c
        for m, c in enumerate(series.coeffs[1:], 1)
    )


# -- combinatorial primitives of the closed forms -----------------------------
#
# The classical alternating sums, evaluated directly rather than by the
# usual recurrences, which serve as independent oracles in the test suite.
# Both Stirling tables are memoized (a triangular cache keyed by (n, m));
# under CPython the caches are safe to share across threads, the worst
# case being a duplicated computation.


@lru_cache(maxsize=None)
def _stirling2_raw(n: int, m: int) -> Fraction:
    total = 0
    for k in range(m + 1):
        total += (-1) ** k * math.comb(m, k) * (m - k) ** n
    return Fraction(total, math.factorial(m))


def stirling2(n: int, m: int) -> ExactScalar:
    """Second-kind Stirling number: partitions of an n-set into m blocks.

    Computed from the alternating binomial sum
    (1/m!) * sum_k (-1)^k C(m,k) (m-k)^n with the ``0**0 == 1``
    convention, so ``stirling2(0, 0) == 1``.
    """
    if n < 0 or m < 0:
        raise ValueError("stirling2 requires n >= 0 and m >= 0")
    if m > n:
        return ZERO
    return ExactScalar(_stirling2_raw(n, m))


@lru_cache(maxsize=None)
def _stirling1_raw(n: int, m: int) -> Fraction:
    if n == 0:
        return Fraction(1 if m == 0 else 0)
    total = Fraction(0)
    for j in range(n - m + 1):
        total += (
            (-1) ** j
            * math.comb(n - 1 + j, n - m + j)
            * math.comb(2 * n - m, n - m - j)
            * _stirling2_raw(n - m + j, j)
        )
    return total


def stirling1(n: int, m: int) -> ExactScalar:
    """Signed first-kind Stirling number.

    Evaluated through the double alternating sum over second-kind numbers;
    for example ``stirling1(3, 1) == 2`` and ``stirling1(2, 1) == -1``.
    """
    if n < 0 or m < 0:
        raise ValueError("stirling1 requires n >= 0 and m >= 0")
    if m > n:
        return ZERO
    return ExactScalar(_stirling1_raw(n, m))


def double_factorial(n: int) -> ExactScalar:
    """n!! for n >= -1, with (-1)!! == 0!! == 1."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return ExactScalar(result)


# -- closed-form special values ---------------------------------------------


def _cf_a1(n, k):
    return stirling2(n, k)


def _cf_a2(n, k):
    return (-1) ** (n - k) * stirling1(n, k)


def _cf_a3(n, k):
    total = 0
    for l in range(k + 1):
        total += (-1) ** l * math.comb(k, l) * (k - 2 * l) ** n
    return ExactScalar(Fraction(total, 2**k * math.factorial(k)))


def _cf_a4(n, k):
    rem = (n - k) % 4
    if rem % 2:
        return ZERO
    cosfac = 1 if rem == 0 else -1
    total = 0
    for q in range(k + 1):
        total += (-1) ** q * math.comb(k, q) * (2 * q - k) ** n
    return ExactScalar(Fraction((-1) ** k * cosfac * total, 2**k * math.factorial(k)))


def _cf_a5(n, k, alpha):
    acc = ZERO
    for l in range(k + 1):
        term = falling_factorial(alpha * l, n)
        if term:
            acc = acc + (-1) ** l * math.comb(k, l) * term
    return acc * Fraction((-1) ** k, math.factorial(k))


def _cf_a6(n, k, w):
    if n - k > k:
        return ZERO
    lead = Fraction(math.factorial(n) * math.comb(k, n - k), 2 ** (n - k) * math.factorial(k))
    return lead * w ** (2 * k - n)


def _cf_a7(n, k, alpha, beta):
    m = n - k
    sign = (-1) ** (n + k)
    dd = double_factorial(2 * m - 1)
    choose = math.comb(2 * n - k - 1, 2 * m)
    num = sign * dd * choose * (beta / 2) ** n
    # The root of alpha enters with exponent 2n - k; splitting off the even
    # part keeps the value exact whenever the residual root power is zero
    # (even k contributes alpha^(n - k/2), a plain rational power).
    e = 2 * n - k
    denom = alpha ** (e // 2)
    if e % 2:
        denom = denom * alpha.sqrt()
    return num / denom


def _cf_a8(n, k):
    total = 0
    for l in range(k + 1):
        total += (-1) ** (k - l) * math.comb(k, l) * math.comb(n + 2 * l - 1, n)
    return ExactScalar(Fraction(math.factorial(n) * total, math.factorial(k)))


def _cf_a9(n, k):
    if (n + k) % 2:
        return ZERO
    choose = math.comb((n + k) // 2 - 1, k - 1)
    return ExactScalar(Fraction(math.factorial(n) * choose, math.factorial(k)))


def _cf_a10(n, k, w):
    acc = ZERO
    for l in range(k + 1):
        inner = Fraction(0)
        for q in range(n - k + 1):
            s2 = stirling2(l + q, l)
            if not s2:
                continue
            inner += (
                Fraction((-1) ** q * math.comb(n - k, q), k**q)
                * s2.as_fraction()
                / math.comb(l + q, l)
            )
        if inner:
            acc = acc + math.comb(k, l) * inner * (w - 1) ** l
    return k ** (n - k) * math.comb(n, k) * acc


def _cf_a11(n, k):
    acc = Fraction(0)
    for m in range(k + 1):
        s1 = stirling1(n + m, m)
        if not s1:
            continue
        acc += Fraction((-1) ** m * math.comb(k, m), math.comb(n + m, m)) * s1.as_fraction()
    return ExactScalar(Fraction((-1) ** (n - k), math.factorial(k)) * acc)


def _cf_a12(n, k):
    acc = Fraction(0)
    for l in range(k + 1):
        s2 = stirling2(n + l, l)
        if not s2:
            continue
        acc += (-1) ** (k - l) * math.comb(n + k, k - l) * s2.as_fraction()
    return ExactScalar(Fraction(math.factorial(n), math.factorial(n + k)) * acc)


def _cf_a13(n, k):
    if (n - k) % 2:
        return ZERO
    base = Fraction(n - 2, 2)
    acc = Fraction(0)
    for l in range(n - k + 1):
        s1 = stirling1(n - 1, k + l - 1)
        if not s1:
            continue
        acc += math.comb(k + l - 1, k - 1) * s1.as_fraction() * base**l
    return ExactScalar((-1) ** ((n - k) // 2) * 2 ** (n - k) * acc)


def _cf_c1(n, k, w):
    acc = ZERO
    for r in range(k + 1):
        lead = math.comb(k, r) * (k - r) ** (n - k)
        if not lead:
            continue
        acc = acc + lead * (w - 1) ** r
    return math.comb(n, k) * acc


def _cf_c2(n, k):
    acc = Fraction(0)
    for r in range(min(n, k) + 1):
        s2 = stirling2(n - r, k)
        if not s2:
            continue
        acc += (
            math.factorial(r)
            * math.comb(n, r)
            * math.comb(k, r)
            * (-2) ** (k - r)
            * s2.as_fraction()
        )
    return ExactScalar(acc)


_CLOSED_FORMS = {
    "a1": _cf_a1,
    "a2": _cf_a2,
    "a3": _cf_a3,
    "a4": _cf_a4,
    "a5": _cf_a5,
    "a6": _cf_a6,
    "a7": _cf_a7,
    "a8": _cf_a8,
    "a9": _cf_a9,
    "a10": _cf_a10,
    "a11": _cf_a11,
    "a12": _cf_a12,
    "a13": _cf_a13,
    "c1": _cf_c1,
    "c2": _cf_c2,
}

CLOSED_FORM_FAMILIES = tuple(key for key in FAMILY_KEYS if key in _CLOSED_FORMS)


def bell_closed_form(key: str, n: int, k: int, *, alpha=None, beta=None, w=None) -> ExactScalar:
    """The displayed special-value formula for one family, evaluated directly.

    Exact for rational parameters (for "a7" this additionally needs the
    square root of alpha to be rational).  It serves as an independent
    check of the recurrence; :func:`bell_values` gives the values the
    library uses.  A float evaluation that leaves the float range (an
    ArithmeticError, or a nan or +-inf value) raises ValueError.
    """
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed form for family {key!r}")
    if not 1 <= k <= n:
        raise ValueError("closed forms are defined for 1 <= k <= n")
    if n > MAX_ORDER:
        raise ValueError(f"n exceeds the supported cap {MAX_ORDER}")
    kwargs = get_family(key).validate(alpha, beta, w)
    try:
        value = _CLOSED_FORMS[key](n, k, **kwargs)
        if value.is_exact or math.isfinite(value._v):
            return value
    except ArithmeticError:  # a float power that overflows, or underflows to 0.0
        pass
    raise ValueError(f"closed form of family {key!r} leaves the float range at B({n},{k})")


def derivative_sequence(key: str, order: int, *, alpha=None, beta=None, w=None) -> tuple:
    """Derivative values d_1 .. d_order of the family's inverse basis.

    The derivative formula of the family's registry record (see
    :class:`funcseries.pseries.Family`), each raw value as an ExactScalar.
    """
    _check_order(order)
    fam = get_family(key)
    return tuple(map(ExactScalar, fam.derivatives(order, fam.validate(alpha, beta, w))))


# -- verification gate -------------------------------------------------------


def _params_token(kwargs: dict) -> tuple:
    # tagged, so that alpha=0.5 and alpha=1/2 are two gate entries
    return tuple(sorted((name, _tagged(value)) for name, value in kwargs.items()))


_gate_lock = threading.Lock()
_gate_results: dict = {}


def _values_close(a: ExactScalar, cell) -> bool:
    """Whether the closed form's a agrees with the recurrence's raw cell.  An
    a that is nan or +-inf is unchecked (True); a cell beyond the float range
    reads as +-inf."""
    if a.is_exact and not isinstance(cell, float):
        return a == cell
    a = float(a)
    b = cell if isinstance(cell, float) else _round(cell.numerator, cell.denominator)
    return not math.isfinite(a) or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _run_gate(key: str, kwargs: dict) -> bool:
    depth = _GATE_DEPTH
    rows = _triangle(_raw(derivative_sequence(key, depth, **kwargs)), depth)
    formula = _CLOSED_FORMS[key]
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            try:
                if not _values_close(formula(n, k, **kwargs), rows[n][k]):
                    return False
            except ArithmeticError:  # a float power that leaves the range: unchecked
                pass
    return True


def _gate_passes(key: str, kwargs: dict) -> bool:
    token = (key, _params_token(kwargs))
    with _gate_lock:
        cached = _gate_results.get(token)
    if cached is not None:
        return cached
    ok = _run_gate(key, kwargs)
    with _gate_lock:
        _gate_results[token] = ok
    if not ok:
        warnings.warn(
            f"closed-form Bell values for family {key!r} disagree with the "
            "generic recurrence; the returned values come from the recurrence",
            RuntimeWarning,
            stacklevel=3,
        )
    return ok


def gate_report() -> dict:
    """Snapshot of gate outcomes: (key, params) -> closed form verified.

    params holds a (name, (is_exact, raw value)) pair per parameter.
    """
    with _gate_lock:
        return {token: ok for token, ok in _gate_results.items()}


def _raw(seq) -> list:
    return [v._v for v in seq]


def bell_values(key: str, nmax: int, *, alpha=None, beta=None, w=None) -> list:
    """Triangle rows[n][k] = B(n, k) for the family, 0 <= k <= n <= nmax.

    The values always come from the recurrence over the family's
    derivative sequence.  For a family with a closed form, the first call
    per parameter set also runs the verification gate (see
    :func:`gate_report`); a disagreement only raises a RuntimeWarning.
    """
    if not isinstance(nmax, int) or isinstance(nmax, bool) or nmax < 0:
        raise ValueError("nmax must be a non-negative integer")
    if nmax > MAX_ORDER:
        raise ValueError(f"nmax exceeds the supported cap {MAX_ORDER}")
    kwargs = get_family(key).validate(alpha, beta, w)
    if key in _CLOSED_FORMS:
        _gate_passes(key, kwargs)
    if nmax == 0:
        return [[ONE]]
    rows = _triangle(_raw(derivative_sequence(key, nmax, **kwargs)), nmax)
    return [[ExactScalar(v) for v in row] for row in rows]
