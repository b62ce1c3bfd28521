"""Truncated Maclaurin series arithmetic over exact scalars, and the families.

Series are the engine behind two independent routes to the same
approximation coefficients: direct composition of Maclaurin expansions,
and Bell-polynomial assembly from derivative sequences.  Keeping
coefficients exact (``Fraction`` under the hood, via ExactScalar) lets the
cross-validation suites demand bit-for-bit equality instead of tolerances.

A :class:`TruncatedSeries` of order N stores c_0 .. c_N, with c_n the
plain Maclaurin coefficient, so d_n = n! * c_n.  Binary operations require
equal orders and return the same order; truncation never happens silently.
A series is a record of :mod:`funcseries.exact`: immutable, compared and
hashed by its coefficients, copied and pickled like every value type.
Its operations (:meth:`~TruncatedSeries.mul`, ``compose``, ``reversion``
and ``derivatives``) only verify: ``assemble`` never calls them, and the
check ``assemble_via_composition`` does, so their bodies live in
:mod:`funcseries.bell` and load with it on the first call.

:data:`FAMILIES` is the registry of the 19 basis families ("a1" .. "a13",
"c1" .. "c6"), one :class:`Family` per key, a record of the same base:
its label, its parameters with their defaults and constraints, and one
exact formula for the derivatives d_1 .. d_N of its inverse basis at 0, in
O(N) exact operations.  Everything else exact about a family is read from that
formula: :func:`family_series` is c_n = d_n / n!, and assembly
(:mod:`funcseries.approx`), the catalog and the Bell verifiers look up
the record.  The squared-arccosine case (c6) has closed-form
coefficients from the series of (arcsin x)^2;
:meth:`TruncatedSeries.reversion` reproduces them from the series of
cos(sqrt(s)) - 1 and serves as their check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable

from .exact import ExactScalar, ZERO, _falling_factorials, _Record, scalar

__all__ = [
    "MAX_ORDER",
    "TruncatedSeries",
    "Family",
    "FAMILIES",
    "get_family",
    "family_series",
    "FAMILY_KEYS",
    "FAMILY_PARAMS",
]

# Supported order cap.  Rational coefficient bit-length grows fast with the
# order, and nothing downstream needs more than a 20-term model; 64 leaves
# generous headroom while keeping worst-case arithmetic affordable.
MAX_ORDER = 64


def _check_order(order: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported cap {MAX_ORDER}")


class TruncatedSeries(_Record):
    """Immutable truncated Maclaurin series with ExactScalar coefficients."""

    __slots__ = _fields = ("_c",)

    def __init__(self, coeffs: Iterable):
        c = tuple(scalar(v) for v in coeffs)
        if not c:
            raise ValueError("a series needs at least the constant coefficient")
        self._set(c)

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def __getitem__(self, n: int) -> ExactScalar:
        return self._c[n]

    def __iter__(self):
        return iter(self._c)

    def __repr__(self):
        return f"TruncatedSeries([{', '.join(str(c) for c in self._c)}])"

    # -- series operations: verifiers, whose bodies load with funcseries.bell --

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the shared order; an exact zero factor
        keeps its product exact (:func:`funcseries.bell._series_mul`)."""
        from .bell import _series_mul
        return _series_mul(self, other)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficients of self(inner(y)) to the shared order; inner needs
        constant term 0 (:func:`funcseries.bell._series_compose`)."""
        from .bell import _series_compose
        return _series_compose(self, inner)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse t with self(t(y)) = y to the same order
        (:func:`funcseries.bell._series_reversion`)."""
        from .bell import _series_reversion
        return _series_reversion(self)

    def derivatives(self) -> tuple:
        """Derivative values d_1 .. d_N at zero (d_n = n! * c_n)."""
        from .bell import _series_derivatives
        return _series_derivatives(self)


# -- the family registry ------------------------------------------------------
#
# A basis family is fully described by d_1, d_2, .. , the derivatives at 0
# of its inverse basis: they are the arguments of its Bell polynomials, and
# its Maclaurin series is d_n / n!.  Each function below gives d_1 .. d_n
# from one closed expression per entry, as raw values (int, Fraction, or
# float) from raw parameters, with a geometric ratio r stated: it returns
# (r, e), d_j = r**j * e[j-1].  r = 1 but for a5 with alpha = p / q (r = 1 / q,
# integer e_j) and a7 with a rational root (e_j the root times integers).
# The comment names the inverse basis.


def _d_a1(n):  # e^y - 1
    return 1, (1,) * n


def _d_a2(n):  # -ln(1 - y)
    return 1, tuple(math.factorial(i - 1) for i in range(1, n + 1))


def _d_a3(n):  # sinh(y)
    return 1, tuple(i % 2 for i in range(1, n + 1))


def _d_a4(n):  # sin(y)
    return 1, tuple((-1) ** (i // 2) if i % 2 else 0 for i in range(1, n + 1))


def _float_range(key, d):
    """(1, d) for float derivatives d that are all finite; else ValueError."""
    if not all(map(math.isfinite, d)):
        raise ValueError(f"family {key!r} basis derivatives leave the float range")
    return 1, d


def _d_a5(n, alpha):  # (1 + y)^alpha - 1
    if isinstance(alpha, float):
        return _float_range("a5", _falling_factorials(alpha, n)[1:])
    # alpha = p / q: d_j = p (p - q) ... (p - (j-1) q) / q^j, so r = 1 / q
    p, q = alpha.numerator, alpha.denominator
    return Fraction(1, q), tuple(accumulate(range(p, p - n * q, -q), mul))


def _d_a6(n, w):  # y^2 / 2 + w y
    return 1, (w, 1, *[0] * (n - 2))[:n]


def _d_a7(n, alpha, beta):  # sqrt(alpha + beta y) - sqrt(alpha)
    root = ExactScalar(alpha).sqrt()._v
    if isinstance(root, float) or isinstance(beta, float):
        half = _falling_factorials(Fraction(1, 2), n)
        try:
            d = tuple(root ** (1 - 2 * i) * beta**i * half[i] for i in range(1, n + 1))
        except OverflowError:  # root ** (1 - 2 i) or beta ** i
            d = (math.inf,)
        return _float_range("a7", d)
    # d_j = root (beta / alpha)^j (1/2)_j = r^j e_j with r = -beta / (2 alpha)
    # and e_j = -root (2j - 3)!!, a running product
    lead = -root.numerator if root.denominator == 1 else -root
    return Fraction(-beta, 2 * alpha), tuple(accumulate(range(1, 2 * n - 2, 2), mul, initial=lead))


def _d_a8(n):  # 1 / (1 - y)^2 - 1
    return 1, tuple(math.factorial(i + 1) for i in range(1, n + 1))


def _d_a9(n):  # y / (1 - y^2)
    return 1, tuple(math.factorial(i) if i % 2 else 0 for i in range(1, n + 1))


def _d_a10(n, w):  # (w + y - 1) e^y + 1 - w
    return 1, tuple(w - 1 + i for i in range(1, n + 1))


def _d_a11(n):  # -ln(1 - y) / y - 1
    return 1, tuple(Fraction(math.factorial(i), i + 1) for i in range(1, n + 1))


def _d_a12(n):  # (e^y - 1) / y - 1
    return 1, tuple(Fraction(1, i + 1) for i in range(1, n + 1))


def _d_a13(n):  # arcsin(y): ((i - 2)!!)^2 for odd i
    return 1, tuple(math.prod(range(i - 2, 0, -2)) ** 2 if i % 2 else 0 for i in range(1, n + 1))


def _d_c1(n, w):  # y (e^y + w - 1)
    return 1, (w, *range(2, n + 1))


def _d_c2(n):  # (y - 2) e^y - y + 2
    return 1, (-2, *range(n - 1))


def _d_c3(n):  # (2 e^y - y^2 - 2y - 2) / (2 y^2) = sum_{m>=1} y^m / (m+2)!
    return 1, tuple(Fraction(1, (m + 1) * (m + 2)) for m in range(1, n + 1))


def _d_c4(n):  # (6y e^y - 12 e^y - y^3 + 6y + 12) / (6 y^3) = sum_{m>=1} (m+1) y^m / (m+3)!
    return 1, tuple(Fraction(1, (m + 2) * (m + 3)) for m in range(1, n + 1))


def _d_c5(n, alpha, w, beta):
    # alpha + (alpha + w - 1) y + (alpha + beta - 2) y^2 / 2 + (y - alpha) e^y:
    # alpha is the constant shift; w and beta are the prescribed first and
    # second derivative values of the inverse basis.
    return 1, (w, beta, *(i - alpha for i in range(3, n + 1)))[:n]


def _d_c6(n):
    # The inverse basis is -[arccos(1+y)]^2 / (2y) - 1.  Since
    # arccos(1+y) = 2 arcsin(sqrt(-y/2)) and
    # (arcsin x)^2 = 1/2 sum_{n>=1} (2x)^(2n) / (n^2 C(2n, n)),
    # [arccos(1+y)]^2 = 2 sum_{n>=1} (-2y)^n / (n^2 C(2n, n)); dividing by
    # -2y gives c_m = -(-2)^(m+1) / ((m+1)^2 C(2m+2, m+1)), whose c_0 = 1
    # cancels the -1, and d_m = m! c_m = 2 (-2)^m m!^3 / (2m+2)!: a running
    # product from d_0 = 1 with d_m / d_(m-1) = -m^3 / ((2m+1)(m+1)).  O(N)
    # exact operations; the tests check the result against reverting
    # y(s) = sum_{j>=1} (-1)^j s^j / (2j)!, the series of cos(sqrt(s)) - 1,
    # which is O(N^3).
    out, p, q = [], 1, 1  # d_m = p / q, kept reduced
    for m in range(1, n + 1):
        p, q = p * -(m**3), q * (2 * m + 1) * (m + 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        out.append(Fraction(p, q))
    return 1, out


class Family(_Record):
    """One basis family: its key, label, parameters and derivative formula.

    ``formula(n, **raw_params)`` gives d_1 .. d_n of the inverse basis, the
    family's only exact fact, as (r, e) with d_j = r**j * e[j-1] (see the
    registry comment above).  ``defaults`` lists the (name, default) pairs
    of its parameters in order; a parameter named in ``nonzero`` must not
    be 0 and one named in ``positive`` must be > 0.  repr leaves out the
    formula.
    """

    __slots__ = _fields = ("key", "label", "formula", "defaults", "nonzero", "positive")
    _shown = ("key", "label", "defaults", "nonzero", "positive")

    def __init__(self, key: str, label: str, formula: Callable, defaults: tuple = (),
                 nonzero: tuple = (), positive: tuple = ()):
        self._set(key, label, formula, defaults, nonzero, positive)

    @property
    def params(self) -> tuple:
        return tuple(name for name, _ in self.defaults)

    def graded(self, n: int, params: dict) -> tuple:
        """(r, e) for ``params`` as :meth:`validate` gives them, passed raw
        (an integral one as an int)."""
        return self.formula(n, **{name: v.numerator if v.is_exact and v.denominator == 1
                                  else v._v for name, v in params.items()})

    def derivatives(self, n: int, params: dict) -> list:
        """d_1 .. d_n as raw values for ``params`` as :meth:`validate` gives them."""
        r, e = self.graded(n, params)
        return list(e) if r == 1 else [r**j * v for j, v in enumerate(e, 1)]

    def validate(self, alpha=None, beta=None, w=None, *, fill=False) -> dict:
        """The parameters as {name: ExactScalar}, in the family's order.

        Raises ValueError for a parameter the family does not take, a
        missing one (unless ``fill`` supplies its default) and a broken
        constraint.
        """
        given = {"alpha": alpha, "beta": beta, "w": w}
        for name, value in given.items():
            if value is not None and name not in self.params:
                raise ValueError(f"family {self.key!r} takes no parameter {name!r}")
        params = {}
        for name, default in self.defaults:
            if given[name] is None and not fill:
                raise ValueError(f"family {self.key!r} requires parameter {name!r}")
            params[name] = scalar(default if given[name] is None else given[name])
        for name in self.nonzero:
            if params[name] == 0:
                raise ValueError(f"family {self.key!r} requires {name} != 0")
        for name in self.positive:
            if not params[name] > 0:
                raise ValueError(f"family {self.key!r} requires {name} > 0")
        return params


# Defaults match the parameter values used for the library's bundled
# figure data: alpha=2 for a5, w=1 for a6 and a10, (alpha=4, beta=3) for
# a7.  c1 defaults to w=1 (the pure W basis) and c5 to the globally
# monotone (1, 1, 1) shape.  For c5 the library-wide flag names map onto
# its three shape parameters as alpha -> additive constant, w -> first
# derivative, beta -> second derivative of the inverse basis.
FAMILIES = {f.key: f for f in (
    Family("a1", "powers of ln(1+x)", _d_a1),
    Family("a2", "powers of 1 - exp(-x)", _d_a2),
    Family("a3", "powers of asinh(x)", _d_a3),
    Family("a4", "powers of arcsin(x)", _d_a4),
    Family("a5", "powers of (1+x)^(1/alpha) - 1", _d_a5,
           defaults=(("alpha", Fraction(2)),), nonzero=("alpha",)),
    Family("a6", "powers of sqrt(2x + w^2) - w", _d_a6,
           defaults=(("w", Fraction(1)),), nonzero=("w",)),
    Family("a7", "powers of (x^2 + 2 sqrt(alpha) x)/beta", _d_a7,
           defaults=(("alpha", Fraction(4)), ("beta", Fraction(3))),
           positive=("alpha",), nonzero=("beta",)),
    Family("a8", "powers of 1 - 1/sqrt(1+x)", _d_a8),
    Family("a9", "powers of (sqrt(4x^2+1) - 1)/(2x)", _d_a9),
    Family("a10", "powers of W(exp(w-1) (w+x-1)) + 1 - w", _d_a10,
           defaults=(("w", Fraction(1)),), nonzero=("w",)),
    Family("a11", "powers of W(-(1+x) exp(-(1+x)))/(1+x) + 1", _d_a11),
    Family("a12", "powers of the inverse of (exp(y)-1)/y - 1", _d_a12),
    Family("a13", "powers of sin(x)", _d_a13),
    Family("c1", "inverse basis y (exp(y) + w - 1)", _d_c1,
           defaults=(("w", Fraction(1)),), nonzero=("w",)),
    Family("c2", "inverse basis (y-2) exp(y) - y + 2", _d_c2),
    Family("c3", "inverse basis (2 exp(y) - y^2 - 2y - 2)/(2 y^2)", _d_c3),
    Family("c4", "inverse basis (6y exp(y) - 12 exp(y) - y^3 + 6y + 12)/(6 y^3)", _d_c4),
    Family("c5",
           "inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)",
           _d_c5, defaults=(("alpha", Fraction(1)), ("w", Fraction(1)), ("beta", Fraction(1))),
           nonzero=("w",)),
    Family("c6", "inverse basis -arccos(1+y)^2/(2y) - 1", _d_c6),
)}

FAMILY_KEYS = tuple(FAMILIES)

FAMILY_PARAMS = {key: f.params for key, f in FAMILIES.items() if f.defaults}


def get_family(key: str) -> Family:
    """The registry record of a family key."""
    if key not in FAMILY_KEYS:
        raise ValueError(f"unknown family key {key!r}")
    return FAMILIES[key]


def family_series(key: str, order: int, *, alpha=None, beta=None, w=None) -> TruncatedSeries:
    """Maclaurin series of the inverse basis function for a family key.

    Every inverse basis vanishes at 0, so c_0 = 0, and c_n = d_n / n! over
    the family's derivative formula.
    """
    _check_order(order)
    fam = get_family(key)
    d = fam.derivatives(order, fam.validate(alpha, beta, w))
    return TruncatedSeries([ZERO] + [scalar(v) / math.factorial(n) for n, v in enumerate(d, 1)])
