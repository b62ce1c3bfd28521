"""Truncated Maclaurin series arithmetic over exact scalars.

Series are the engine behind two independent routes to the same
approximation coefficients: direct composition of Maclaurin expansions,
and Bell-polynomial assembly from derivative sequences.  Keeping
coefficients exact (``Fraction`` under the hood, via ExactScalar) lets the
cross-validation suites demand bit-for-bit equality instead of tolerances.

A :class:`TruncatedSeries` of order N stores c_0 .. c_N, with c_n the
plain Maclaurin coefficient, so d_n = n! * c_n.  Binary operations require
equal orders and return the same order; truncation never happens silently.

:func:`elementary` constructs the inverse-basis series for the expansion
families whose g-inverse has a standalone closed form.  :func:`family_series`
extends the mapping to every family key; the composite cases (c1 .. c5),
polynomials in y plus a polynomial times e^y, get one closed expression
per coefficient, in O(N) exact operations.  The
squared-arccosine case (c6) has closed-form coefficients from the series
of (arcsin x)^2; :meth:`TruncatedSeries.reversion` reproduces them from
the series of cos(sqrt(s)) - 1 and serves as their check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .exact import ExactScalar, ONE, ZERO, binomial, scalar

__all__ = [
    "MAX_ORDER",
    "TruncatedSeries",
    "constant",
    "identity",
    "elementary",
    "family_series",
    "ELEMENTARY_KINDS",
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


class TruncatedSeries:
    """Immutable truncated Maclaurin series with ExactScalar coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable):
        c = tuple(scalar(v) for v in coeffs)
        if not c:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"TruncatedSeries([{', '.join(str(c) for c in self._c)}])"

    def is_exact(self) -> bool:
        return all(c.is_exact for c in self._c)

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        if other.order != self.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "binary operations require equal orders"
            )

    # -- ring operations ----------------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(a + b for a, b in zip(self._c, other._c))

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._c, other._c))

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the shared order.

        Zero factors are skipped so that exact zero coefficients stay exact
        even when the other series carries approximate (float) entries.
        """
        self._require_same_order(other)
        a = [c._v for c in self._c]
        b = [c._v for c in other._c]
        out = []
        for m in range(len(a)):
            acc = 0
            for i in range(m + 1):
                x, y = a[i], b[m - i]
                if x and y:
                    acc += x * y
            out.append(acc)
        return TruncatedSeries(out)

    def scale(self, factor) -> "TruncatedSeries":
        s = scalar(factor)
        return TruncatedSeries(c * s if c else c for c in self._c)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.add(other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.sub(other)
        return NotImplemented

    def __neg__(self):
        return TruncatedSeries(-c for c in self._c)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficients of self(inner(y)) to the shared order.

        Horner-style accumulation over the outer coefficients; the inner
        series must have zero constant term so that truncation is sound.
        """
        self._require_same_order(inner)
        if inner._c[0] != 0:
            raise ValueError("composition requires inner constant term 0")
        n = self.order
        acc = constant(self._c[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc.mul(inner)
            acc = TruncatedSeries((acc._c[0] + self._c[k],) + acc._c[1:])
        return acc

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse t with self(t(y)) = y to the same order.

        Triangular scheme: walking the target order m upward, the table
        pw[k][m] = [y^m] t(y)^k is filled for k >= 2 from already-known
        t_1 .. t_{m-1}, after which t_m drops out of the requirement that
        [y^m] self(t(y)) vanishes for m >= 2.
        """
        if self._c[0] != 0:
            raise ValueError("reversion requires constant term 0")
        if self.order < 1 or not self._c[1]:
            raise ValueError("reversion requires a nonzero linear term")
        s = [c._v for c in self._c]
        n = self.order
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

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by y^k; the first k coefficients must be exactly zero."""
        if k < 0 or k >= len(self._c):
            raise ValueError("shift amount out of range")
        if any(c != 0 for c in self._c[:k]):
            raise ValueError("shift_down requires the leading coefficients to vanish")
        return TruncatedSeries(self._c[k:])

    def derivatives(self) -> tuple:
        """Derivative values d_1 .. d_N at zero (d_n = n! * c_n)."""
        return tuple(
            ExactScalar(c._v * math.factorial(m)) if c else c
            for m, c in enumerate(self._c[1:], 1)
        )

    def eval_float(self, x: float) -> float:
        """Horner evaluation in double precision."""
        acc = 0.0
        for c in reversed(self._c):
            acc = acc * x + float(c)
        return acc


def constant(value, order: int) -> TruncatedSeries:
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries([scalar(value)] + [ZERO] * order)


def identity(order: int) -> TruncatedSeries:
    if order < 1:
        raise ValueError("the identity series needs order >= 1")
    return TruncatedSeries([ZERO, ONE] + [ZERO] * (order - 1))


# -- elementary inverse-basis series ---------------------------------------


def _build_exp_m1(order):
    return TruncatedSeries(
        [0] + [Fraction(1, math.factorial(n)) for n in range(1, order + 1)]
    )


def _build_neg_ln_1m(order):
    return TruncatedSeries([0] + [Fraction(1, n) for n in range(1, order + 1)])


def _build_sinh(order):
    return TruncatedSeries(
        Fraction(1, math.factorial(n)) if n % 2 else Fraction(0)
        for n in range(order + 1)
    )


def _build_sin(order):
    return TruncatedSeries(
        Fraction((-1) ** (n // 2), math.factorial(n)) if n % 2 else Fraction(0)
        for n in range(order + 1)
    )


def _build_pow_alpha_m1(order, alpha):
    if alpha == 0:
        raise ValueError("pow_alpha_m1 requires alpha != 0")
    return TruncatedSeries([ZERO] + [binomial(alpha, n) for n in range(1, order + 1)])


def _build_half_sq_plus_wx(order, w):
    if w == 0:
        raise ValueError("half_sq_plus_wx requires w != 0")
    tail = [Fraction(1, 2)] + [0] * (order - 2) if order >= 2 else []
    return TruncatedSeries([ZERO, w] + tail)


def _build_sqrt_shift(order, alpha, beta):
    if not alpha > 0:
        raise ValueError("sqrt_shift requires alpha > 0")
    if beta == 0:
        raise ValueError("sqrt_shift requires beta != 0")
    root = alpha.sqrt()
    ratio = beta / alpha
    return TruncatedSeries(
        [ZERO]
        + [root * binomial(Fraction(1, 2), n) * ratio**n for n in range(1, order + 1)]
    )


def _build_inv_sq_m1(order):
    return TruncatedSeries([0] + [n + 1 for n in range(1, order + 1)])


def _build_odd_geom(order):
    return TruncatedSeries(1 if n % 2 else 0 for n in range(order + 1))


def _build_lambert_pair(order, w):
    if w == 0:
        raise ValueError("lambert_pair requires w != 0")
    return TruncatedSeries(
        [ZERO] + [(w - 1 + n) / math.factorial(n) for n in range(1, order + 1)]
    )


def _build_log_ratio(order):
    return TruncatedSeries([0] + [Fraction(1, n + 1) for n in range(1, order + 1)])


def _build_expm1_ratio(order):
    return TruncatedSeries(
        [0] + [Fraction(1, math.factorial(n + 1)) for n in range(1, order + 1)]
    )


def _build_arcsin(order):
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        j = n // 2
        coeffs[n] = Fraction(math.comb(2 * j, j), 4**j * n)
    return TruncatedSeries(coeffs)


def _build_sq_arccos_shift(order):
    # The kind is -[arccos(1+y)]^2 / (2y) - 1.  Since
    # arccos(1+y) = 2 arcsin(sqrt(-y/2)) and
    # (arcsin x)^2 = 1/2 sum_{n>=1} (2x)^(2n) / (n^2 C(2n, n)),
    # [arccos(1+y)]^2 = 2 sum_{n>=1} (-2y)^n / (n^2 C(2n, n)); dividing by
    # -2y gives c_m = -(-2)^(m+1) / ((m+1)^2 C(2m+2, m+1)), whose c_0 = 1
    # cancels the -1.  O(N) exact operations; the tests check the result
    # against reverting y(s) = sum_{j>=1} (-1)^j s^j / (2j)!, the series of
    # cos(sqrt(s)) - 1, which is O(N^3).
    coeffs = [
        Fraction(-((-2) ** (m + 1)), (m + 1) ** 2 * math.comb(2 * m + 2, m + 1))
        for m in range(order + 1)
    ]
    coeffs[0] -= 1
    return TruncatedSeries(coeffs)


_ELEMENTARY = {
    "exp_m1": ((), _build_exp_m1),
    "neg_ln_1m": ((), _build_neg_ln_1m),
    "sinh": ((), _build_sinh),
    "sin": ((), _build_sin),
    "pow_alpha_m1": (("alpha",), _build_pow_alpha_m1),
    "half_sq_plus_wx": (("w",), _build_half_sq_plus_wx),
    "sqrt_shift": (("alpha", "beta"), _build_sqrt_shift),
    "inv_sq_m1": ((), _build_inv_sq_m1),
    "odd_geom": ((), _build_odd_geom),
    "lambert_pair": (("w",), _build_lambert_pair),
    "log_ratio": ((), _build_log_ratio),
    "expm1_ratio": ((), _build_expm1_ratio),
    "arcsin": ((), _build_arcsin),
    "sq_arccos_shift": ((), _build_sq_arccos_shift),
}

ELEMENTARY_KINDS = tuple(_ELEMENTARY)


def _take_params(context: str, needed, alpha, beta, w) -> dict:
    given = {"alpha": alpha, "beta": beta, "w": w}
    kwargs = {}
    for name, value in given.items():
        if name in needed:
            if value is None:
                raise ValueError(f"{context} requires parameter {name!r}")
            kwargs[name] = scalar(value)
        elif value is not None:
            raise ValueError(f"{context} takes no parameter {name!r}")
    return kwargs


def elementary(kind: str, order: int, *, alpha=None, beta=None, w=None) -> TruncatedSeries:
    """Exact Maclaurin coefficients of a named inverse-basis function.

    The removable-singularity kinds (log_ratio, expm1_ratio,
    sq_arccos_shift) take their coefficients from the closed-form series
    of the primitive functions (-ln(1-y), e^y - 1, [arccos(1+y)]^2) with
    one power of y divided out and the constant term shifted out, never by
    evaluating their defining formula at zero.
    """
    _check_order(order)
    try:
        needed, builder = _ELEMENTARY[kind]
    except KeyError:
        raise ValueError(f"unknown elementary kind {kind!r}") from None
    kwargs = _take_params(f"elementary kind {kind!r}", needed, alpha, beta, w)
    return builder(order, **kwargs)


# -- per-family inverse series ----------------------------------------------

_FAMILY_ELEMENTARY = {
    "a1": "exp_m1",
    "a2": "neg_ln_1m",
    "a3": "sinh",
    "a4": "sin",
    "a5": "pow_alpha_m1",
    "a6": "half_sq_plus_wx",
    "a7": "sqrt_shift",
    "a8": "inv_sq_m1",
    "a9": "odd_geom",
    "a10": "lambert_pair",
    "a11": "log_ratio",
    "a12": "expm1_ratio",
    "a13": "arcsin",
    "c6": "sq_arccos_shift",
}

# Parameter names per family key.  For c5 the library-wide flag names map
# onto the three shape parameters as alpha -> additive constant, w -> first
# derivative, beta -> second derivative of the inverse basis.
FAMILY_PARAMS = {
    "a5": ("alpha",),
    "a6": ("w",),
    "a7": ("alpha", "beta"),
    "a10": ("w",),
    "c1": ("w",),
    "c5": ("alpha", "w", "beta"),
}

FAMILY_KEYS = tuple(f"a{i}" for i in range(1, 14)) + tuple(
    f"c{i}" for i in range(1, 7)
)


# The composite inverse bases c1 .. c5 are polynomials in y plus a
# polynomial times e^y = sum y^n / n!, so each coefficient is one closed
# expression; tests/oracles.py rebuilds them by series products.


def _family_c1(order, w):
    # y (e^y + w - 1)
    if w == 0:
        raise ValueError("family 'c1' requires w != 0")
    return TruncatedSeries(
        [ZERO, w] + [Fraction(1, math.factorial(n - 1)) for n in range(2, order + 1)]
    )


def _family_c2(order):
    # (y - 2) e^y - y + 2
    return TruncatedSeries(
        [0, -2] + [Fraction(n - 2, math.factorial(n)) for n in range(2, order + 1)]
    )


def _family_c3(order):
    # (2 e^y - y^2 - 2y - 2) / (2 y^2)
    return TruncatedSeries(
        [0] + [Fraction(1, math.factorial(m + 2)) for m in range(1, order + 1)]
    )


def _family_c4(order):
    # (6y e^y - 12 e^y - y^3 + 6y + 12) / (6 y^3)
    return TruncatedSeries(
        [0] + [Fraction(m + 1, math.factorial(m + 3)) for m in range(1, order + 1)]
    )


def _family_c5(order, alpha, w, beta):
    # alpha + (alpha + w - 1) y + (alpha + beta - 2) y^2 / 2 + (y - alpha) e^y:
    # alpha is the constant shift; w and beta are the prescribed first and
    # second derivative values of the inverse basis.
    if w == 0:
        raise ValueError("family 'c5' requires w != 0 (the linear coefficient)")
    head = [ZERO, w, beta / 2]
    return TruncatedSeries(
        head[: order + 1] + [(n - alpha) / math.factorial(n) for n in range(3, order + 1)]
    )


def family_series(key: str, order: int, *, alpha=None, beta=None, w=None) -> TruncatedSeries:
    """Maclaurin series of the inverse basis function for a family key."""
    _check_order(order)
    if key not in FAMILY_KEYS:
        raise ValueError(f"unknown family key {key!r}")
    needed = FAMILY_PARAMS.get(key, ())
    kwargs = _take_params(f"family {key!r}", needed, alpha, beta, w)
    kind = _FAMILY_ELEMENTARY.get(key)
    if kind is not None:
        return elementary(kind, order, **kwargs)
    if key == "c1":
        return _family_c1(order, kwargs["w"])
    if key == "c2":
        return _family_c2(order)
    if key == "c3":
        return _family_c3(order)
    if key == "c4":
        return _family_c4(order)
    return _family_c5(order, kwargs["alpha"], kwargs["w"], kwargs["beta"])
