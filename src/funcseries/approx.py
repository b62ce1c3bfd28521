"""Assembly and evaluation of derivative-matching approximations.

An approximation of f around x0 is a polynomial in u = g(x - x0), where g
is the basis of a catalog expansion.  Its coefficients are fixed by the
requirement that all derivatives up to the chosen order match those of f
at x0, which makes the n-th coefficient a weighted sum of f's derivatives
against the expansion's Bell triangle, divided by n factorial: the n-th
derivative of F = f o h over n!, with h the inverse basis.

:func:`assemble` computes that sum exactly, each float input taken as its
exact binary value, by one route.  A target is data: a table of its known
derivatives and, for every builtin, a linear ODE of order m that states
the rest (exp, ln1p and pow of first order, sin and sq of second); a
derivative list f^(0) .. f^(K) is the polynomial target f^(K+1) = 0, of
order m = K + 1.  Each takes J. C. P. Miller's composition recurrence,
:func:`_composed`, over the state (f o h, ..., f^(m-1) o h), O(N**2) for a
builtin.
:func:`assemble_via_composition` composes the truncated series of f with
the series of the inverse basis; it is a check, and the test suite
compares it with :func:`assemble` family by family.  All of them read the
family's derivative formula from the registry of :mod:`funcseries.pseries`;
the formulas themselves are checked against series built independently in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import repeat
from operator import add, mul
from types import CodeType, FunctionType
from typing import Callable, Optional, Sequence

from .catalog import (_FULL_LINE, DomainError, Expansion, Interval, _admit, _as_float,
                      _float_param, _horner_expr, eval_g, get_expansion)
from .exact import (ONE, ZERO, ExactScalar, _binary, _Record, _round, _supports, _tagged,
                    scalar)
from .pseries import TruncatedSeries, _check_order, family_series, get_family

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

class FunctionSpec(_Record):
    """A target function known through its derivatives at a base point.

    _table holds the known f^(0), f^(1), ...: a derivative list's values,
    or a builtin's f^(0) .. f^(m-1), whose _ode (rho, a, b) states the
    ODE (1 + rho x) f^(m) = a_0 f + ... + a_(m-1) f^(m-1) + b, rho != 0
    only for m = 1; it gives every other f^(k) (see :meth:`_listing`).
    _source is the input the ODE is made from (ln1p's x0, pow's alpha).
    domain is where the float reference evaluator _value is defined;
    _table, _value, _ode and _source are fields that repr leaves out.  A
    builtin's name carries its parameters (pow's alpha), so specs compare
    and hash by (name, x0, _table), each scalar tagged with its exactness.
    """

    _fields = ("name", "x0", "domain", "_table", "_value", "_ode", "_source")
    __slots__ = (*_fields, "_known")  # _known, once set: the listing of :meth:`_listing`
    _shown = _fields[:3]

    def __init__(self, name: str, x0: ExactScalar, domain: Interval, _table: tuple,
                 _value: Optional[Callable] = None, _ode: Optional[tuple] = None,
                 _source: Optional[ExactScalar] = None):
        self._set(name, x0, domain, _table, _value, _ode, _source)

    def _identity(self) -> tuple:
        return self.name, _tagged(self.x0), tuple(map(_tagged, self._table))

    def derivative(self, n: int) -> ExactScalar:
        """n-th derivative at x0; n = 0 is the function value (see :meth:`_listing`)."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("derivative order must be a non-negative integer")
        if n < len(self._table):
            return self._table[n]
        return self._listing(n)[0][n]

    def _listing(self, order: int) -> tuple:
        """(values, nonzero): f^(0) .. f^(K) at x0, K >= order, and a bit mask
        of the k with an exact f^(k) != 0.  _table gives those below its
        length, and the ODE the rest: f o h at h = x (d_1 = 1, every other
        d_j = 0) through one :func:`_composed` run, exact or, where a float
        input reaches it, rounded once.  The listing is kept; an order beyond
        it is composed afresh to at least twice its length."""
        table = self._table
        values, nonzero = (getattr(self, "_known", None)
                           or (table, sum(bool(v) << k for k, v in enumerate(table))))
        if order >= len(values):
            if self._ode is None:
                raise ValueError(f"function {self.name!r} provides derivatives only up to "
                                 f"order {len(table) - 1}, order {order} requested")
            order, first = max(order, 2 * len(values)), len(table)
            ode, start, floats = self._inputs(order, first)
            rows = _composed([1] + [0] * (order - 1), order, ode, start)[first - 1:]
            values = table + tuple(ExactScalar(_round(p, s) if floats >> k & 1 else Fraction(p, s))
                                   for k, (p, s) in enumerate(rows, first))
            nonzero |= sum(bool(p) << k for k, (p, _) in enumerate(rows, first))
            object.__setattr__(self, "_known", (values, nonzero))
        return values, nonzero

    def _inputs(self, order: int, first: int = 1) -> tuple:
        """(ode, start, floats) for :func:`_composed`: the ODE (t, rho, a, b)
        over the integers and _table, each float read as its binary value
        and f^(l) as 0 where no f^(k), k >= first, reads it (l < first and
        a_0 = ... = a_l = 0: ln1p's f(x0), sq's f(x0), ~inf for |x0| >
        1.34e154, and for :meth:`_listing` sq's f'(x0)).  Bit k of floats,
        k <= order, marks a float f^(k): every k >= m for a float _source,
        and where a float _table entry has a nonzero coefficient, f o h at
        h = x over that unit start with b = 0."""
        rho, a, b = self._ode
        ratios = [v.as_integer_ratio() for v in (rho, *a, b)]
        t = math.lcm(*(q for _, q in ratios))
        rho, *a, b = (p * (t // q) for p, q in ratios)
        table = [v._v if l >= first or any(a[:l + 1]) else 0 for l, v in enumerate(self._table)]
        start = _binary(table, f"derivative f^({{}}) of {self.name!r}")[0]
        floats = 0 if self._source is None or self._source.is_exact else -1 << len(a)
        for l in (l for l, v in enumerate(self._table) if not v.is_exact):
            unit = [int(i == l) for i in range(len(a))]
            rows = _composed([1] + [0] * (order - 1), order, (t, rho, a, 0), unit)
            floats |= 1 << l | sum(bool(p) << k for k, (p, _) in enumerate(rows, 1))
        return (t, rho, a, b), start, floats

    def value_at(self, x: float) -> Optional[float]:
        """Reference value f(x), or None when unavailable at this x; inf
        when the value overflows."""
        if self._value is None:
            return None
        x = _admit(self.domain, _as_float(x))
        if x is None:
            return None
        try:
            return self._value(x)
        except OverflowError:  # exp and pow, the builtins that overflow, are positive
            return math.inf


BUILTIN_FUNCTIONS = ("exp", "sin", "sq", "ln1p", "pow")


# The builtins' float references are module-level functions, so a spec pickles.
def _square(x: float) -> float:
    return x * x


def _pow(alpha: float, x: float) -> float:
    if x == -1.0:  # admitted only where alpha > 0
        return 0.0
    return math.exp(alpha * math.log1p(x))


def _one(x: float) -> float:
    return 1.0


def builtin_function(name: str, *, alpha=None, x0=0) -> FunctionSpec:
    """A ready-made target: exp, sin, sq (x^2), ln1p, or pow ((1+x)^alpha).

    Each keeps f^(0) .. f^(m-1) at x0 and declares its order-m ODE (see
    :class:`FunctionSpec`): exp f' = f, ln1p (1 + x0 + x) f' = 1, pow
    (1 + x) f' = alpha f, sin f'' = -f and sq f'' = 2.  The ODE states
    every other f^(k), exact or, where a float input reaches it (exp's
    f(x0), ln1p's x0, pow's alpha, sin's f(x0) and f'(x0)), rounded once.
    f(x0) of exp and ln1p, sin's values at x0 != 0 and sq's at a float x0
    are floats, which :func:`assemble` takes as exact binary values.
    "pow" requires alpha and x0 = 0.  An alpha, x0 or exp(x0) without a
    finite float raises ValueError.
    """
    x0v = scalar(x0)
    x0f = _float_param(x0v, "x0")
    if name == "pow":
        if alpha is None:
            raise ValueError("builtin 'pow' requires alpha")
        if x0v != 0:
            raise ValueError("builtin 'pow' is only provided at x0 = 0")
        av = scalar(alpha)
        af = _float_param(av, "builtin 'pow' alpha")
        if av != 0:  # the exact sign: an alpha that rounds to 0.0 keeps its domain
            dom, value = Interval(-1.0, math.inf, lo_closed=av > 0), partial(_pow, af)
        else:
            dom, value = _FULL_LINE, _one
        try:
            name = f"pow:{av}"
        except ValueError:  # str writes no int of over sys.get_int_max_str_digits() digits
            raise ValueError(f"builtin 'pow' alpha has over {sys.get_int_max_str_digits()} "
                             "digits") from None
        return FunctionSpec(name, x0v, dom, (ONE,), value, (1, (av._v,), 0), av)
    if alpha is not None:
        raise ValueError(f"builtin {name!r} takes no alpha")

    if name == "exp":
        try:
            d0 = ONE if x0v == 0 else scalar(math.exp(x0f))
        except OverflowError:
            raise ValueError("builtin 'exp' f(x0) has no finite float value") from None
        return FunctionSpec("exp", x0v, _FULL_LINE, (d0,), math.exp, (0, (1,), 0))

    if name == "sin":
        s, c = (ZERO, ONE) if x0v == 0 else (scalar(math.sin(x0f)), scalar(math.cos(x0f)))
        return FunctionSpec("sin", x0v, _FULL_LINE, (s, c), math.sin, (0, (-1, 0), 0))

    if name == "sq":
        return FunctionSpec("sq", x0v, _FULL_LINE, (x0v * x0v, 2 * x0v), _square, (0, (0, 0), 2))

    if name == "ln1p":
        base = Fraction(x0v._v) + 1  # a float x0 as its exact binary value
        if not base > 0:
            raise ValueError("builtin 'ln1p' requires x0 > -1")
        d0 = ZERO if x0v == 0 else scalar(math.log1p(x0f))
        return FunctionSpec("ln1p", x0v, Interval(-1.0, math.inf), (d0,), math.log1p,
                            (1 / base, (0,), 1 / base), x0v)

    raise ValueError(f"unknown builtin function {name!r}")


def function_from_derivatives(values: Sequence, name: str = "custom", x0=0) -> FunctionSpec:
    """Wrap an explicit derivative list d_0, d_1, ... as a target function.

    No float reference evaluator is attached, so error reports against
    such a target carry nan in the exact column.  A non-finite value, or
    an x0 without a finite float, raises ValueError.
    """
    vals = tuple(scalar(v) for v in values)
    if not vals:
        raise ValueError("need at least the order-zero derivative d_0")
    _binary([v._v for v in vals], f"derivative d_{{}} of {name!r}")
    _float_param(scalar(x0), "x0")
    return FunctionSpec(name, scalar(x0), _FULL_LINE, vals)


def _to_float(value: ExactScalar, name: str) -> float:
    """float(value); a value beyond the float range, exact or a float that
    assembly rounded to +-inf, is a DomainError."""
    f = _as_float(value)
    if not math.isfinite(f):
        raise DomainError(f"{name} is beyond the float range")
    return f


class ApproximationModel(_Record):
    """A finished approximation: expansion, target, and coefficients a_0..a_N.

    Its fields live in the instance dict, next to the cached float form
    and compiled evaluator.
    """

    _fields = _shown = ("expansion", "func", "order", "coefficients", "route")

    def __init__(self, expansion: Expansion, func: FunctionSpec, order: int,
                 coefficients: tuple, route: str):
        self._set(expansion, func, order, coefficients, route)

    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.coefficients)

    @cached_property
    def _float_form(self) -> tuple:
        """(float(x0), (float(a_N), ..., float(a_0))): the Horner input.

        Converted once per model on first use and kept in the instance
        dict; not a field, so it takes no part in repr, equality, hashing,
        the JSON form or pickling.  A value beyond the float range raises
        DomainError (and nothing is cached).
        """
        floats = tuple(
            _to_float(c, f"coefficient a_{n}") for n, c in enumerate(self.coefficients)
        )
        return (_to_float(self.func.x0, "x0"), floats[::-1])

    @cached_property
    def _kernel(self) -> Callable:
        """The model's evaluator, the function of x of
        :func:`_evaluator_code` with _float_form's floats as its defaults:
        :func:`evaluate` calls it.

        Built on the first :func:`evaluate`, never by :func:`assemble`, and
        kept like _float_form, outside the model's identity; a DomainError
        from _float_form caches nothing.
        """
        x0, coeffs = self._float_form
        exp = self.expansion
        return FunctionType(_evaluator_code(len(coeffs)), globals(), "evaluator",
                            (x0, exp.domain.lo, exp.domain.hi, exp._g, exp) + coeffs)

    def to_json_dict(self) -> dict:
        """The model as JSON data.  ValueError names the first exact a_n of
        over sys.get_int_max_str_digits() digits, then DomainError the first
        a_n beyond the float range."""
        def exact_str(v: ExactScalar) -> str:
            return str(v.as_fraction()) if v.is_exact else repr(float(v))

        def num_den(n: int, c: ExactScalar) -> Optional[dict]:
            try:
                return {"num": str(c.numerator), "den": str(c.denominator)} if c.is_exact else None
            except ValueError:  # str writes no int of over sys.get_int_max_str_digits() digits
                raise ValueError(f"exact coefficient a_{n} has over "
                                 f"{sys.get_int_max_str_digits()} digits") from None

        exact = [num_den(n, c) for n, c in enumerate(self.coefficients)]
        rows = [{"n": n, "decimal": format_decimal(_to_float(c, f"coefficient a_{n}")), "exact": x}
                for (n, c), x in zip(enumerate(self.coefficients), exact)]
        return {
            "expansion": self.expansion.key,
            "params": {name: exact_str(v) for name, v in self.expansion.params},
            "f": self.func.name,
            "x0": exact_str(self.func.x0),
            "N": self.order,
            "route": self.route,
            "coefficients": rows,
        }


def _composed(values: list, order: int, ode: tuple, start: list) -> list:
    """(P_n, S_n), not reduced, with F^(n)(0) = P_n / S_n, n = 1 .. order, F = f o h.

    values[j-1] holds d_j = h^(j)(0) as an int or Fraction, h(0) = 0, start
    holds f^(0) .. f^(m-1) at 0, and ode = (t, rho, a, b) states (1 + rho x)
    f^(m) = a_0 f + ... + a_(m-1) f^(m-1) + b over the integers (see
    :meth:`FunctionSpec._inputs`).  Leibniz's rule on (1 + rho h) Y' =
    (A Y + B) h', Y = (F, ..., f^(m-1) o h), A the companion matrix and
    B = (0, ..., 0, b), gives J. C. P. Miller's power-series recurrence
    (Knuth, *TAOCP* vol. 2, section 4.7), O(N**2) products against the
    Bell triangle's O(N**3):

        Y_i^(n) = sum_l sum_{j=1}^{n} W_il(n, j) d_j Y_l^(n-j) + B_i d_n,
        W_il(n, j) = A_il C(n-1, j-1) - rho [i = l] C(n-1, j).

    rho = 0 for m >= 2, so one row of weights w serves every pair: W_00 for
    m = 1, else C(n-1, j-1), with row m - 1 reading z = sum_l a_l Y_l.  By
    Pascal's rule w(n + 1, j) = w(n, j) + w(n, j - 1), w(n, 0) = -rho, so a
    row of weights is one vector addition, grown in place up to the last
    nonzero d_j, and each Y_i one dot product (``map``/``sum``) that skips
    the j beyond it and, for odd bases, the even j.  F^(order) reads Y_i^(n)
    only while i <= order - n, so row n computes and rescales no other
    state: O(m N**2) products, about N**3 / 6 for a derivative list of
    length N + 1 (m > 2 only there, with a = 0: the last state is b d_n
    alone and reads no history).  In integers, with d_j = D_j / D, start
    over its common denominator q and A, rho and b scaled by t,
    G_n = t^n q Y^(n) satisfies

        D G_i(n) = sum_l sum_j W_il(n, j) D_j t^(j-1) G_l(n-j) + B_i q D_n t^(n-1);

    the G_l(k) are integers over one denominator L, and S_n = t^n q L is a
    running product.  While D = 1 (all but a11, a12, c3, c4 and c6) L = 1
    and no row divides; otherwise row n divides its sums by g = gcd(sums,
    D) and, if g != D, multiplies L, S_n and the earlier numerators by D / g.
    """
    t, rho, a, b = ode
    m, q = len(a), math.lcm(*(v.denominator for v in start))
    b *= q
    scale = math.lcm(*(v.denominator for v in values))  # D
    d = [v.numerator * (scale // v.denominator) * t**j if v else 0 for j, v in enumerate(values)]
    # d_j = 0 unless j <= width and step divides j - 1
    js = [j for j, v in enumerate(d) if v]
    step, width = math.gcd(*js) or 1, js[-1] + 1
    dj = d[:width:step]
    past = [v.numerator * (q // v.denominator) for v in start]  # L G_l(0)
    if m == 1:
        w, z = [a[0]], past[:1]
    else:  # z stays empty where a = 0 (sq): the last row is then b d_n alone
        w, z = [1], [sum(map(mul, a, past))] if any(a) else []
    reads, new, top, den, rows = [[v] for v in past[1:]], (), 1, q, []  # L G_l(k), l >= 1
    for n in range(1, order + 1):
        wd, zs = ((map(mul, w, dj), reversed(z)) if step == 1
                  else (map(mul, w[::step], dj), z[::-step]))
        if m > 1:  # Y_i' = Y_(i+1) h', A_i(i+1) = 1 scaled by t, for i <= order - n
            wd = list(wd)
            new = [t * sum(map(mul, wd, reversed(p) if step == 1 else p[::-step]))
                   for p in reads[:order - n + 1]]
        acc = sum(map(mul, wd, zs)) + b * d[n - 1] * top
        if len(w) < width:
            w.append(0)
        w = list(map(add, w, [-rho, *w]))
        den *= t
        if scale != 1:
            g = math.gcd(acc, scale, *new)
            acc, s = acc // g, scale // g
            if m > 1:
                new = [v // g for v in new]
            if s != 1:
                z = list(map(mul, z, repeat(s)))
                reads = [list(map(mul, p, repeat(s))) for p in reads[:order - n]]
                top, den = top * s, den * s
        if m > 1:
            if len(new) == m - 1:  # every state is still read
                new.append(acc)
                if any(a):
                    z.append(sum(map(mul, a, new)))
            for p, v in zip(reads, new[1:]):
                p.append(v)
            acc = new[0]
        else:
            z.append(acc)
        rows.append((acc, den))
    return rows


def assemble(exp: Expansion, func: FunctionSpec, order: int) -> ApproximationModel:
    """Coefficients a_0 = f(x0) and a_n = F^(n) / n!, F = f o h.

    h is the expansion's inverse basis, with derivatives d_j at 0, and
    F^(n) = sum over k of f^(k)(x0) B(n, k)(d_1, d_2, ...), the paper's
    sum over the partial Bell polynomials.  The family's registry formula
    states d_j = r**j e_j (r = rn / rd = 1 but for a5 and a7, see
    :mod:`funcseries.pseries`).  A float input enters as its exact binary
    value.  A builtin, which declares an ODE (see :class:`FunctionSpec`),
    is asked for f(x0) alone; a derivative list is the polynomial target
    f^(K + 1) = 0, K its last nonzero f^(k) up to order, with start
    (0, f^(1), ..., f^(K)).  Either takes the recurrence of
    :func:`_composed`, whose rows (P_n, S_n), F^(n) = r**n P_n / S_n, are
    each finished as P_n rn^n / (S_n n! rd^n) over running products: a
    ``Fraction``, or its correctly rounded float (+-inf beyond the float
    range) when a nonzero term f^(k) B(n, k) has a float factor
    (:func:`funcseries.exact._supports` finds them; only when an input is
    a float does a builtin's f^(k) get read, from
    :meth:`FunctionSpec._listing`).  ``route`` reads "bell" (part of the
    model's identity).
    """
    _check_order(order)
    r, e = get_family(exp.key).graded(order, exp.param_dict())
    e, e_floats = _binary(e, f"{exp.key} basis derivative e_{{}}", 1)
    f0, tags = func.derivative(0), 0
    if func._ode is None:  # f^(K + 1) = 0 for the last nonzero f^(K); f^(0) is only a_0
        f, f_floats = _binary([0, *(func.derivative(k)._v for k in range(1, order + 1))],
                              f"derivative f^({{}}) of {func.name!r}")
        m = max((k for k, v in enumerate(f) if v), default=0) + 1
        ode, start = (1, 0, (0,) * m, 0), f[:m]
    else:
        ode, start, f_floats = func._inputs(order)
    rows = _composed(e, order, ode, start)
    if f_floats or e_floats:
        nonzero = func._listing(order)[1]
        for k, (reach, read) in enumerate(_supports(e, e_floats, order, order)[1:], 1):
            if nonzero >> k & 1:  # bit n: a nonzero product in B(n, k), one with a float
                tags |= reach if f_floats >> k & 1 else read
    coeffs, pn, pd = [f0], 1, 1  # pn, pd: rn^n and n! rd^n
    for n, (num, den) in enumerate(rows, 1):
        pn *= r.numerator
        pd *= n * r.denominator
        num, den = num * pn, den * pd
        coeffs.append(ExactScalar(_round(num, den) if tags >> n & 1 else Fraction(num, den)))
    return ApproximationModel(exp, func, order, tuple(coeffs), "bell")


def assemble_via_composition(
    exp: Expansion, func: FunctionSpec, order: int
) -> ApproximationModel:
    """Coefficients via series composition of f with the inverse basis.

    Substituting the inverse-basis series into f's truncated series must
    reproduce :func:`assemble` exactly; the two routes share the family's
    derivative formula and scalar arithmetic, nothing else.
    """
    _check_order(order)
    outer = TruncatedSeries(v / math.factorial(k)
                            for k, v in enumerate(func._listing(order)[0][:order + 1]))
    comp = outer.compose(family_series(exp.key, order, **exp.param_dict()))
    return ApproximationModel(exp, func, order, comp.coeffs, "composition")


@lru_cache(maxsize=None)
def _evaluator_code(n: int) -> CodeType:
    """The code of a model's evaluator over n coefficients, compiled once
    per n per process: a function of x whose defaults are x0, the domain
    ends lo and hi, the basis g, the expansion and a_N, ..., a_0.  It
    computes t = float(x - x0), tests the open interior of the domain as
    _admit tests it first, and binds u = g(t) there and eval_g(exp, t)
    elsewhere (eval_g looked up in this module's namespace at each call)
    where the Horner sum of catalog._horner_expr first reads u.  An
    OverflowError from x - x0 or from g escapes to :func:`evaluate`."""
    cs = [f"c{k}" for k in range(n)]
    u = "(u := g(t) if lo < (t := float(x - x0)) < hi else eval_g(exp, t))"
    body = _horner_expr(cs, u) if cs else f"({u}, 0.0)[1]"
    return eval(f"lambda x, x0, lo, hi, g, exp{''.join(', ' + c for c in cs)}: {body}").__code__


def evaluate(model: ApproximationModel, x: float) -> float:
    """Float value of the approximation at x (Horner in u = g(x - x0)).

    Each model builds one function of x on its first evaluation
    (``ApproximationModel._kernel``), from code compiled once per number
    of coefficients, and every later call runs it.  A point strictly
    inside the domain takes the basis and the Horner sum over the model's
    float coefficients inline, as one straight-line expression; every
    other point goes through
    :func:`funcseries.catalog.eval_g`, which admits a closed end's fuzz or
    raises DomainError.  The result equals the Horner loop over each
    coefficient converted at every call, bit for bit.  x is a float, an
    int or a Fraction: x - x0 is a float, and an x beyond the float range
    reads as +-inf, outside every domain.
    """
    try:
        return model._kernel(x)
    except OverflowError:  # from x - x0 or from g: eval_g raises a DomainError
        try:
            t = float(x - model._float_form[0])
        except OverflowError:  # an int or Fraction beyond the float range
            t = math.inf if x > 0 else -math.inf
        eval_g(model.expansion, t)
        raise  # not reached: g overflows at t again


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
        self._set(x, approx, exact, delta, note)


def error_report(model: ApproximationModel, xs) -> list:
    """Pointwise comparison of the model against the target's reference.

    Points outside the expansion's validity domain are reported with nan
    and an explanatory note instead of raising.
    """
    out = []
    for x in xs:
        x = _as_float(x)
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
    """Shortest round-trip decimal form, padded to 17 significant digits.

    Built from the one repr: nan, inf and -inf as repr writes them, and a
    zero counts both digits of its "0.0"."""
    text = repr(float(x))
    if text[-1] > "9":  # nan, inf, -inf
        return text
    if "e" not in text:
        return text + "0" * (17 - (len(text.lstrip("-0.").replace(".", "")) or 2))
    mantissa, _, exponent = text.partition("e")
    if "." not in mantissa:  # repr writes 1e+16, not 1.0e+16
        mantissa += ".0"
    return mantissa + "0" * (18 - len(mantissa.lstrip("-"))) + "e" + exponent
