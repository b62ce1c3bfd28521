"""Assembly and evaluation of derivative-matching approximations.

An approximation of f around x0 is a polynomial in u = g(x - x0), where g
is the basis of a catalog expansion.  Its coefficients are fixed by the
requirement that all derivatives up to the chosen order match those of f
at x0, which makes the n-th coefficient a weighted sum of f's derivatives
against the expansion's Bell triangle, divided by n factorial.

Two assembly routes are provided.  :func:`assemble` uses the Bell
triangle directly; :func:`assemble_via_composition` composes the truncated
series of f with the series of the inverse basis.  Both read the family's
derivative formula from the registry of :mod:`funcseries.pseries` and
produce identical exact coefficients, which the test suite checks family
by family; the formulas themselves are checked against series built
independently in ``tests/oracles.py``.  Coefficient arithmetic stays in
exact rationals whenever every contributing derivative is exact; as soon
as one float enters, the sum for that coefficient switches to compensated
float summation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .bell import _columns, _graded, _raw, _triangle
from .catalog import DomainError, Expansion, Interval, _Record, eval_g, get_expansion
from .exact import ONE, ZERO, ExactScalar, _falling_factorials, falling_factorial, scalar
from .pseries import MAX_ORDER, TruncatedSeries

__all__ = [
    "BUILTIN_FUNCTIONS",
    "FunctionSpec",
    "builtin_function",
    "function_from_derivatives",
    "ApproximationModel",
    "assemble",
    "assemble_via_composition",
    "evaluate",
    "taylor_baseline",
    "estimate_radius",
    "PointReport",
    "error_report",
    "format_decimal",
]

_FULL_LINE = Interval(-math.inf, math.inf)


class FunctionSpec(_Record):
    """A target function known through its derivatives at a base point.

    domain is where the float reference evaluator _value is defined; the
    derivative function _deriv and _value are fields that repr leaves out.
    """

    __slots__ = _fields = ("name", "x0", "domain", "_deriv", "_value")
    _shown = _fields[:3]

    def __init__(self, name: str, x0: ExactScalar, domain: Interval, _deriv: Callable,
                 _value: Optional[Callable] = None):
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "x0", x0)
        set_field(self, "domain", domain)
        set_field(self, "_deriv", _deriv)
        set_field(self, "_value", _value)

    def derivative(self, n: int) -> ExactScalar:
        """n-th derivative at x0; n = 0 is the function value."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("derivative order must be a non-negative integer")
        return self._deriv(n)

    def value_at(self, x: float) -> Optional[float]:
        """Reference value f(x), or None when unavailable at this x."""
        if self._value is None:
            return None
        x = float(x)
        if not self.domain.contains(x, 1e-12 * max(1.0, abs(x))):
            return None
        if self.domain.lo_closed and x < self.domain.lo:
            x = self.domain.lo
        if self.domain.hi_closed and x > self.domain.hi:
            x = self.domain.hi
        return self._value(x)


BUILTIN_FUNCTIONS = ("exp", "sin", "sq", "ln1p", "pow")


def builtin_function(name: str, *, alpha=None, x0=0) -> FunctionSpec:
    """A ready-made target: exp, sin, sq (x^2), ln1p, or pow ((1+x)^alpha).

    Derivatives at x0 = 0 are exact rationals; a nonzero x0 makes the
    transcendental entries approximate (float-tagged), which downstream
    assembly handles by switching to compensated summation.  "pow" is
    only provided at x0 = 0 and requires alpha.
    """
    x0v = scalar(x0)
    if name == "pow":
        if alpha is None:
            raise ValueError("builtin 'pow' requires alpha")
        if x0v != 0:
            raise ValueError("builtin 'pow' is only provided at x0 = 0")
        av = scalar(alpha)
        af = float(av)
        table = tuple(ExactScalar(v) for v in _falling_factorials(av, MAX_ORDER))

        def deriv(n, _av=av, _table=table):
            return _table[n] if n <= MAX_ORDER else falling_factorial(_av, n)

        if af > 0:
            dom = Interval(-1.0, math.inf, lo_closed=True)

            def value(x, _af=af):
                if x == -1.0:
                    return 0.0
                return math.exp(_af * math.log1p(x))

        elif af < 0:
            dom = Interval(-1.0, math.inf)

            def value(x, _af=af):
                return math.exp(_af * math.log1p(x))

        else:
            dom = _FULL_LINE

            def value(x):
                return 1.0

        return FunctionSpec(f"pow:{av.as_fraction()}", x0v, dom, deriv, value)
    if alpha is not None:
        raise ValueError(f"builtin {name!r} takes no alpha")

    if name == "exp":
        d0 = ONE if x0v == 0 else scalar(math.exp(float(x0v)))
        return FunctionSpec("exp", x0v, _FULL_LINE, lambda n: d0, math.exp)

    if name == "sin":
        if x0v == 0:
            cycle = (ZERO, ONE, ZERO, -ONE)
        else:
            x0f = float(x0v)
            cycle = tuple(
                scalar(v)
                for v in (
                    math.sin(x0f), math.cos(x0f), -math.sin(x0f), -math.cos(x0f)
                )
            )
        return FunctionSpec("sin", x0v, _FULL_LINE, lambda n: cycle[n % 4], math.sin)

    if name == "sq":
        table = (x0v * x0v, 2 * x0v, scalar(2))

        def deriv(n, _t=table):
            return _t[n] if n < 3 else ZERO

        return FunctionSpec("sq", x0v, _FULL_LINE, deriv, lambda x: x * x)

    if name == "ln1p":
        base = ONE + x0v
        if not base > 0:
            raise ValueError("builtin 'ln1p' requires x0 > -1")
        d0 = ZERO if x0v == 0 else scalar(math.log1p(float(x0v)))

        def deriv(n, _d0=d0, _base=None if base.is_exact and base == 1 else base):
            if n == 0:
                return _d0
            sign = 1 if n % 2 == 1 else -1
            if _base is None:  # x0 = 0 exactly: no power of 1 + x0 to divide by
                return ExactScalar(sign * math.factorial(n - 1))
            return scalar(sign * math.factorial(n - 1)) / _base ** n

        return FunctionSpec(
            "ln1p", x0v, Interval(-1.0, math.inf), deriv, math.log1p
        )

    raise ValueError(f"unknown builtin function {name!r}")


def function_from_derivatives(values: Sequence, name: str = "custom", x0=0) -> FunctionSpec:
    """Wrap an explicit derivative list d_0, d_1, ... as a target function.

    No float reference evaluator is attached, so error reports against
    such a target carry nan in the exact column.
    """
    vals = tuple(scalar(v) for v in values)
    if not vals:
        raise ValueError("need at least the order-zero derivative d_0")

    def deriv(n, _vals=vals, _name=name):
        if n >= len(_vals):
            raise ValueError(
                f"function {_name!r} provides derivatives only up to order "
                f"{len(_vals) - 1}, order {n} requested"
            )
        return _vals[n]

    return FunctionSpec(name, scalar(x0), _FULL_LINE, deriv, None)


def _to_float(value: ExactScalar, name: str) -> float:
    """float(value); a value beyond the float range is a DomainError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is beyond the float range") from None


class ApproximationModel(_Record):
    """A finished approximation: expansion, target, and coefficients a_0..a_N.

    Its fields live in the instance dict, next to the cached float form.
    """

    _fields = _shown = ("expansion", "func", "order", "coefficients", "route")

    def __init__(self, expansion: Expansion, func: FunctionSpec, order: int,
                 coefficients: tuple, route: str):
        set_field = object.__setattr__
        set_field(self, "expansion", expansion)
        set_field(self, "func", func)
        set_field(self, "order", order)
        set_field(self, "coefficients", coefficients)
        set_field(self, "route", route)

    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.coefficients)

    @cached_property
    def _float_form(self) -> tuple:
        """(float(x0), (float(a_N), ..., float(a_0))): the Horner input.

        Converted once per model on first use and kept in the instance
        dict; not a field, so it takes no part in repr, equality, hashing
        or the JSON form.  A value beyond the float range raises
        DomainError (and nothing is cached).
        """
        floats = tuple(
            _to_float(c, f"coefficient a_{n}") for n, c in enumerate(self.coefficients)
        )
        return (_to_float(self.func.x0, "x0"), floats[::-1])

    def to_json_dict(self) -> dict:
        def exact_str(v: ExactScalar) -> str:
            return str(v.as_fraction()) if v.is_exact else repr(float(v))

        rows = []
        for n, c in enumerate(self.coefficients):
            entry = {"n": n, "decimal": format_decimal(_to_float(c, f"coefficient a_{n}"))}
            if c.is_exact:
                fr = c.as_fraction()
                entry["exact"] = {"num": str(fr.numerator), "den": str(fr.denominator)}
            else:
                entry["exact"] = None
            rows.append(entry)
        return {
            "expansion": self.expansion.key,
            "params": {name: exact_str(v) for name, v in self.expansion.params},
            "f": self.func.name,
            "x0": exact_str(self.func.x0),
            "N": self.order,
            "route": self.route,
            "coefficients": rows,
        }


def _check_model_order(order: int):
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported maximum {MAX_ORDER}")


def _neumaier(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def assemble(exp: Expansion, func: FunctionSpec, order: int) -> ApproximationModel:
    """Coefficients via the expansion's Bell triangle.

    a_0 = f(x0) and a_n = (sum over k of d_k * B(n, k)) / n! where d_k are
    f's derivatives at x0 and B is the triangle of the expansion's inverse
    basis, computed by the column kernel of :mod:`funcseries.bell` (the
    closed forms and their gate are not involved).  When the triangle and
    d_1 .. d_N are all exact, column k is P_k / S_k in integers; with
    d_k = c_k / Q and L the lcm of the S_k, n! a_n is the integer sum of
    c_k P_k[n] L / S_k over k, divided once by Q L (times r**n when the
    basis values carry a geometric factor r**j, see ``bell._graded``).
    Otherwise a coefficient whose terms are all exact is summed exactly;
    one float term switches it to compensated float summation.  Zero
    factors are skipped so that exact zeros survive even in
    float-contaminated rows.
    """
    _check_model_order(order)
    d = [func.derivative(k) for k in range(order + 1)]
    raw = _raw(d)
    values = _raw(exp.derivative_sequence(order))
    coeffs = [d[0]]
    if not any(isinstance(v, float) for v in raw[1:] + values):
        r, values = _graded(values)
        cols, scales = _columns(values, order)
        q, lcm = math.lcm(*(v.denominator for v in raw[1:])), math.lcm(*scales)
        c = [v.numerator * (q // v.denominator) * (lcm // s) for v, s in zip(raw[1:], scales[1:])]
        rn, rd = r.numerator, r.denominator
        for n in range(1, order + 1):
            acc = sum(ck * col[n] for ck, col in zip(c[:n], cols[1:]))
            coeffs.append(ExactScalar(Fraction(acc * rn**n, q * lcm * math.factorial(n) * rd**n)))
        return ApproximationModel(exp, func, order, tuple(coeffs), "bell")
    triangle = _triangle(values, order)
    for n in range(1, order + 1):
        row = triangle[n]
        terms = [raw[k] * row[k] for k in range(1, n + 1) if raw[k] and row[k]]
        if not any(isinstance(t, float) for t in terms):
            coeffs.append(ExactScalar(Fraction(sum(terms), math.factorial(n))))
        else:
            coeffs.append(
                scalar(_neumaier(float(t) for t in terms) / math.factorial(n))
            )
    return ApproximationModel(exp, func, order, tuple(coeffs), "bell")


def assemble_via_composition(
    exp: Expansion, func: FunctionSpec, order: int
) -> ApproximationModel:
    """Coefficients via series composition of f with the inverse basis.

    Substituting the inverse-basis series into f's truncated series must
    reproduce :func:`assemble` exactly; the two routes share the family's
    derivative formula and scalar arithmetic, nothing else.
    """
    _check_model_order(order)
    outer = TruncatedSeries(
        func.derivative(k) / math.factorial(k) for k in range(order + 1)
    )
    comp = outer.compose(exp.series(order))
    return ApproximationModel(exp, func, order, comp.coeffs, "composition")


def evaluate(model: ApproximationModel, x: float) -> float:
    """Float value of the approximation at x (Horner in u = g(x - x0)).

    The Horner sum runs over the model's float coefficients, converted
    from the exact ones once per model, so every point costs one basis
    evaluation and N multiply-adds.  The result equals converting each
    coefficient at every call, bit for bit.
    """
    x = float(x)
    x0, horner = model._float_form
    u = eval_g(model.expansion, x - x0)
    acc = 0.0
    for c in horner:
        acc = acc * u + c
    return acc


def taylor_baseline(func: FunctionSpec, order: int) -> ApproximationModel:
    """The plain truncated Taylor polynomial, as the alpha = 1 expansion."""
    return assemble(get_expansion("a5", alpha=1), func, order)


def estimate_radius(model: ApproximationModel) -> float:
    """Convergence-radius estimate from the tail coefficient decay.

    Fits the slope of log|a_n| over the top half of the coefficient range
    (nonzero entries only) and returns exp(-slope).  Requires order >= 8;
    an all-zero tail reads as an infinite radius, a single nonzero entry
    falls back to the plain root test on it.
    """
    if model.order < 8:
        raise ValueError("radius estimation needs order >= 8")
    coeffs = model._float_form[1][::-1]
    picked = [
        (n, abs(coeffs[n]))
        for n in range(model.order // 2, model.order + 1)
        if coeffs[n] != 0.0
    ]
    if not picked:
        return math.inf
    if len(picked) == 1:
        n, mag = picked[0]
        return mag ** (-1.0 / n)
    import numpy as np  # only the least-squares fit needs it

    ns = np.array([n for n, _ in picked], dtype=float)
    logs = np.array([math.log(mag) for _, mag in picked])
    slope = np.polyfit(ns, logs, 1)[0]
    return float(math.exp(-slope))


class PointReport(_Record):
    """One evaluation point: approximation, reference, and their gap."""

    __slots__ = _fields = _shown = ("x", "approx", "exact", "delta", "note")

    def __init__(self, x: float, approx: float, exact: float, delta: float,
                 note: str = ""):
        set_field = object.__setattr__
        set_field(self, "x", x)
        set_field(self, "approx", approx)
        set_field(self, "exact", exact)
        set_field(self, "delta", delta)
        set_field(self, "note", note)


def error_report(model: ApproximationModel, xs) -> list:
    """Pointwise comparison of the model against the target's reference.

    Points outside the expansion's validity domain are reported with nan
    and an explanatory note instead of raising.
    """
    out = []
    for x in xs:
        x = float(x)
        try:
            approx = evaluate(model, x)
            note = ""
        except DomainError as err:
            approx = math.nan
            note = str(err)
        ref = model.func.value_at(x)
        exact = math.nan if ref is None else ref
        out.append(PointReport(x, approx, exact, approx - exact, note))
    return out


def format_decimal(x: float) -> str:
    """Shortest round-trip decimal form, padded to 17 significant digits."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "-0.0000000000000000" if math.copysign(1.0, x) < 0 else "0.0000000000000000"
    s = repr(float(x))
    if "e" in s:
        mantissa, _, exponent = s.partition("e")
        exponent = "e" + exponent
    else:
        mantissa, exponent = s, ""
    if "." not in mantissa:
        mantissa += ".0"
    digits = mantissa.replace("-", "").replace(".", "")
    significant = len(digits.lstrip("0"))
    if significant < 17:
        mantissa += "0" * (17 - significant)
    return mantissa + exponent
