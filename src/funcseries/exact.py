"""Exact rational scalars and the combinatorial primitives built on them.

Everything downstream (series coefficients, Bell polynomial tables,
approximation coefficients) funnels through :class:`ExactScalar`: a thin
wrapper holding either an exact ``fractions.Fraction`` or, when some input
was irrational, an ordinary double tagged as approximate.  Arithmetic
between exact values stays exact; any operation that touches an
approximate value yields an approximate result.  This mirrors Python's own
``Fraction``/``float`` mixing rules, which is exactly the contamination
behaviour we want.

Two combinatorial helpers sit beside it: ``falling_factorial(a, n)``,
``a (a-1) ... (a-n+1)`` for arbitrary rational or float ``a``, whose
prefix products give the registry's a5 and a7 derivatives, and
``binomial(a, k)``, the generalized ``falling_factorial(a,k)/k!``.  The
Stirling numbers and the double factorial, which only the paper's closed
forms read, live with those forms in :mod:`funcseries.bell`, which loads
on first use.

The bit masks of a partial Bell triangle's products, :func:`_supports`,
live here too: model assembly (:mod:`funcseries.approx`) tags its
coefficients with them, and :mod:`funcseries.bell` its cells.

:class:`_Record` is the one base of the package's immutable value types,
``ExactScalar``, ``TruncatedSeries`` and ``Family`` among them.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Union

__all__ = [
    "ExactScalar",
    "scalar",
    "ZERO",
    "ONE",
    "falling_factorial",
    "binomial",
]

ScalarLike = Union[int, float, Fraction, str, "ExactScalar"]


# The largest decimal exponent a scalar string may carry: Fraction("1e10000")
# builds its power of ten in a fraction of a millisecond, while a larger
# exponent costs big-integer time and memory that grows with it.
_MAX_EXPONENT = 10_000


def _coerce(value: ScalarLike):
    """Return the raw Fraction or float behind any scalar-like input; a
    string is read, or refused with ValueError, as :func:`scalar` states."""
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
        # checked first: Fraction would build the power of ten at once
        _, e, exponent = value.replace("E", "e").rpartition("e")
        try:
            beyond = bool(e) and abs(int(exponent)) > _MAX_EXPONENT
        except ValueError:  # not an exponent, which Fraction refuses too
            beyond = False
        if beyond:
            raise ValueError(f"{value!r} has a decimal exponent beyond "
                             f"+-{_MAX_EXPONENT}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"not a rational number: {value!r}") from None
        except ValueError as err:  # int(), so Fraction, reads a limited run of digits
            if str(err).startswith("Exceeds the limit"):
                raise ValueError(f"number text with over {sys.get_int_max_str_digits()} "
                                 "digits in one part is beyond CPython's int() limit "
                                 "(sys.get_int_max_str_digits())") from None
            raise ValueError(f"not a rational number: {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


class _Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``_fields``, in constructor order, and
    the ones its repr shows in ``_shown``; its ``__init__`` sets each field
    once, through :meth:`_set` or ``object.__setattr__``.  Records compare
    and hash by ``_identity()``, the tuple of all their fields unless a
    subclass narrows it, only against an instance of the same class; any
    later assignment or deletion raises AttributeError; and copying and
    pickling call the class on the fields again.
    """

    __slots__ = ()
    _fields: tuple = ()
    _shown: tuple = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _identity = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ExactScalar(_Record):
    """A rational number of unbounded size, or a float tagged approximate.

    Instances are immutable.  Construct from int, ``Fraction``, a string
    such as ``"2/3"`` (all exact), or a float (approximate).  Exactness is
    sticky through arithmetic: the result of an operation is exact if and
    only if every operand was exact.
    """

    __slots__ = _fields = ("_v",)

    def __init__(self, value: ScalarLike):
        object.__setattr__(self, "_v", _coerce(value))

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
    """Coerce any scalar-like value to :class:`ExactScalar`.

    This is the package's one reader of number text: a string such as
    "2", "-3/4", "0.1" or "2.5e-3" is read exactly, as Fraction reads it.
    A decimal exponent beyond +-10000 (``_MAX_EXPONENT``), a zero
    denominator or a string that is no number ("abc", "inf", "nan") raises
    ValueError, the first before any power of ten is built; so does a part
    of over ``sys.get_int_max_str_digits()`` digits (4300 by default),
    which CPython's int() refuses, with a message that names the limit.
    """
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


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


# -- combinatorial primitives ---------------------------------------------


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


def binomial(a: ScalarLike, k: int) -> ExactScalar:
    """Generalized binomial coefficient C(a, k) for scalar a, integer k >= 0."""
    if k < 0:
        raise ValueError("binomial requires k >= 0")
    return falling_factorial(a, k) / math.factorial(k)
