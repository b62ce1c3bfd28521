"""Exact rational scalars and the combinatorial primitives built on them.

Everything downstream (series coefficients, Bell polynomial tables,
approximation coefficients) funnels through :class:`ExactScalar`: a thin
wrapper holding either an exact ``fractions.Fraction`` or, when some input
was irrational, an ordinary double tagged as approximate.  Arithmetic
between exact values stays exact; any operation that touches an
approximate value yields an approximate result.  This mirrors Python's own
``Fraction``/``float`` mixing rules, which is exactly the contamination
behaviour we want.

The combinatorial helpers evaluate the classical alternating sums
directly:

* ``stirling2(n, m)``   second-kind Stirling numbers,
  ``(1/m!) * sum_k (-1)^k C(m,k) (m-k)^n``;
* ``stirling1(n, m)``   signed first-kind Stirling numbers, written as a
  double alternating sum over second-kind numbers;
* ``falling_factorial(a, n)``   ``a (a-1) ... (a-n+1)`` for arbitrary
  rational or float ``a``;
* ``double_factorial(n)``   with the conventions ``(-1)!! = 0!! = 1``;
* ``binomial(a, k)``   generalized binomial ``falling_factorial(a,k)/k!``.

The sums are implemented verbatim rather than via the usual recurrences;
the recurrences serve as independent oracles in the test suite.  Both
Stirling tables are memoized (a triangular cache keyed by ``(n, m)``);
under CPython the caches are safe to share across threads, the worst case
being a duplicated computation.

The partial Bell triangle's column kernel :func:`_columns` and its bit
masks :func:`_supports` live here too: model assembly
(:mod:`funcseries.approx`) and the verifiers of :mod:`funcseries.bell`
both read them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

__all__ = [
    "ExactScalar",
    "scalar",
    "ZERO",
    "ONE",
    "stirling2",
    "stirling1",
    "falling_factorial",
    "double_factorial",
    "binomial",
]

ScalarLike = Union[int, float, Fraction, str, "ExactScalar"]


def _coerce(value: ScalarLike):
    """Return the raw Fraction or float behind any scalar-like input."""
    if type(value) is Fraction or type(value) is float:  # already raw; Fraction(value) only copies
        return value
    if isinstance(value, ExactScalar):
        return value._v
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


class ExactScalar:
    """A rational number of unbounded size, or a float tagged approximate.

    Instances are immutable.  Construct from int, ``Fraction``, a string
    such as ``"2/3"`` (all exact), or a float (approximate).  Exactness is
    sticky through arithmetic: the result of an operation is exact if and
    only if every operand was exact.
    """

    __slots__ = ("_v",)

    def __init__(self, value: ScalarLike):
        object.__setattr__(self, "_v", _coerce(value))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    @property
    def is_exact(self) -> bool:
        return isinstance(self._v, Fraction)

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("value is approximate, no exact representation")
        return self._v

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    def __float__(self) -> float:
        return float(self._v)

    def __bool__(self) -> bool:
        return self._v != 0

    # -- arithmetic -------------------------------------------------------

    def _binop(self, other, op):
        try:
            o = _coerce(other)
        except TypeError:
            return NotImplemented
        return ExactScalar(op(self._v, o))

    def _rbinop(self, other, op):
        try:
            o = _coerce(other)
        except TypeError:
            return NotImplemented
        return ExactScalar(op(o, self._v))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._rbinop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._rbinop(other, lambda a, b: a / b)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("only integer exponents are supported")
        return ExactScalar(self._v ** exponent)

    def __neg__(self):
        return ExactScalar(-self._v)

    def __pos__(self):
        return self

    def __abs__(self):
        return ExactScalar(abs(self._v))

    def sqrt(self) -> "ExactScalar":
        """Square root; exact when the operand is a perfect rational square."""
        v = self._v
        if v < 0:
            raise ValueError("square root of a negative value")
        if isinstance(v, float):
            return ExactScalar(math.sqrt(v))
        rn = math.isqrt(v.numerator)
        rd = math.isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            return ExactScalar(Fraction(rn, rd))
        return ExactScalar(math.sqrt(float(v)))

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        try:
            o = _coerce(other)
        except TypeError:
            return NotImplemented
        return self._v == o

    def _order(self, other, op):
        try:
            return op(self._v, _coerce(other))
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._order(other, operator.lt)

    def __le__(self, other):
        return self._order(other, operator.le)

    def __gt__(self, other):
        return self._order(other, operator.gt)

    def __ge__(self, other):
        return self._order(other, operator.ge)

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        tag = "" if self.is_exact else "~"
        return f"ExactScalar({tag}{self._v})"

    def __str__(self):
        return str(self._v)


def _tagged(value: ExactScalar) -> tuple:
    """(exactness, raw value): an identity key that tells 1/2 from 0.5."""
    return value.is_exact, value._v


def scalar(value: ScalarLike) -> ExactScalar:
    """Coerce any scalar-like value to :class:`ExactScalar`."""
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(value)


def _binary(values, name: str, start: int = 0) -> tuple:
    """(raw values, each float as its exact binary value; a mask with bit j
    set for a float values[j]).  ValueError names a non-finite one as
    name.format(j + start)."""
    exact, floats = [], 0
    for j, v in enumerate(values):
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"{name.format(j + start)} is not finite ({v!r})")
            v, floats = Fraction(v), floats | 1 << j
        exact.append(v)
    return exact, floats


def _round(num: int, den: int) -> float:
    """num / den correctly rounded, for den > 0; beyond the float range +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _supports(values: list, floats: int, nmax: int, kmax: int) -> list:
    """[(reach, read)] bit masks over n <= nmax, k = 0 .. kmax: bit n is set
    when B(n, k) has a nonzero product of the d_j (reach), and when one of
    them has a float factor (read; bit j - 1 of floats marks a float d_j)."""
    full, cols = (2 << nmax) - 1, [(1, 0)]
    nonzero = [(m, floats >> (m - 1) & 1) for m, v in enumerate(values[:nmax], 1) if v]
    for _ in range(kmax):
        reach, read = cols[-1]
        r = t = 0
        for m, fl in nonzero:
            r, t = r | reach << m, t | (reach if fl else read) << m
        cols.append((r & full, t & full))
    return cols


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


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


# -- combinatorial primitives ---------------------------------------------


@lru_cache(maxsize=None)
def _stirling2_raw(n: int, m: int) -> Fraction:
    total = 0
    for k in range(m + 1):
        total += (-1) ** k * math.comb(m, k) * (m - k) ** n
    return Fraction(total, math.factorial(m))


def stirling2(n: int, m: int) -> ExactScalar:
    """Second-kind Stirling number: partitions of an n-set into m blocks.

    Computed from the alternating binomial sum with the ``0**0 == 1``
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


def _falling_factorials(a: ScalarLike, n: int) -> list:
    """Raw values of a (a-1) ... (a-k+1) for k = 0 .. n, as prefix products.

    Entry k is entry k - 1 times (a - k + 1), so a whole sequence of
    derivatives costs n multiplications, and a float base gives the same
    bits as multiplying the factors one at a time from the left.
    """
    if n < 0:
        raise ValueError("falling_factorial requires n >= 0")
    base = _coerce(a)
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * (base - k))
    return out


def falling_factorial(a: ScalarLike, n: int) -> ExactScalar:
    """Product a (a-1) ... (a-n+1); empty product is 1."""
    return ExactScalar(_falling_factorials(a, n)[n])


def double_factorial(n: int) -> ExactScalar:
    """n!! for n >= -1, with (-1)!! == 0!! == 1."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return ExactScalar(result)


def binomial(a: ScalarLike, k: int) -> ExactScalar:
    """Generalized binomial coefficient C(a, k) for scalar a, integer k >= 0."""
    if k < 0:
        raise ValueError("binomial requires k >= 0")
    return falling_factorial(a, k) / math.factorial(k)
