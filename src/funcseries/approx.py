"""Assembly and evaluation of derivative-matching approximations.

An approximation of f around x0 is a polynomial in u = g(x - x0), where g
is the basis of a catalog expansion.  Its coefficients are fixed by the
requirement that all derivatives up to the chosen order match those of f
at x0, which makes the n-th coefficient a weighted sum of f's derivatives
against the expansion's Bell triangle, divided by n factorial: the n-th
derivative of F = f o h over n!, with h the inverse basis.

:func:`assemble` computes that sum exactly, each float input taken as its
exact binary value, by one of two routes.  A target is data: a table of
its known derivatives, and for exp and ln1p (at every x0) and pow a
first-order linear ODE that states every f^(k) in closed form.  An ODE
target takes J. C. P. Miller's O(N**2) composition recurrence, :func:`_composed`;
every other (sin and sq, their tables ending at ``MAX_ORDER``, a derivative
list) the Bell column kernel of :mod:`funcseries.exact`, :func:`_kernel_rows`.
:func:`assemble_via_composition` composes the truncated series of f with
the series of the inverse basis; it is a check, and the test suite
compares it with :func:`assemble` family by family.  All of them read the
family's derivative formula from the registry of :mod:`funcseries.pseries`;
the formulas themselves are checked against series built independently in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, and_, mul
from typing import Callable, Optional, Sequence

from .catalog import (_FULL_LINE, DomainError, Expansion, Interval, _Record, _admit,
                      _as_float, _float_param, eval_g, get_expansion)
from .exact import ONE, ZERO, ExactScalar, _binary, _columns, _round, _supports, _tagged, scalar
from .pseries import MAX_ORDER, TruncatedSeries, _check_order, get_family

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
    sin's and sq's up to ``MAX_ORDER``, f(x0) alone for a target with an ODE.
    _ode, which follows from name and x0, is (rho, a, b) when
    (1 + rho x) f'(x) = a f(x) + b; it states every other f^(k) in closed
    form (see :meth:`derivative`), float-tagged where the input _source is
    a float, and :func:`assemble` then takes the composition recurrence.
    domain is where the float reference evaluator _value is defined;
    _table, _value, _ode and _source are fields that repr leaves out.  A
    builtin's name carries its parameters (pow's alpha), so specs compare
    and hash by (name, x0, _table), each scalar tagged with its exactness.
    """

    __slots__ = _fields = ("name", "x0", "domain", "_table", "_value", "_ode", "_source")
    _shown = _fields[:3]

    def __init__(self, name: str, x0: ExactScalar, domain: Interval, _table: tuple,
                 _value: Optional[Callable] = None, _ode: Optional[tuple] = None,
                 _source: Optional[ExactScalar] = None):
        self._set(name, x0, domain, _table, _value, _ode, _source)

    def _identity(self) -> tuple:
        return self.name, _tagged(self.x0), tuple(map(_tagged, self._table))

    def derivative(self, n: int) -> ExactScalar:
        """n-th derivative at x0; n = 0 is the function value.

        Read from _table, else from the ODE over integers (see
        :func:`_ode_ints`): f' = a f(x0) + b and, differentiating the ODE
        k - 1 times at 0, f^(k) = f' (a - rho) (a - 2 rho) ... (a - (k-1) rho),
        exact or, where _source is a float, rounded once.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("derivative order must be a non-negative integer")
        if n < len(self._table):
            return self._table[n]
        if self._ode is None:
            raise ValueError(f"function {self.name!r} provides derivatives only up to order "
                             f"{len(self._table) - 1}, order {n} requested")
        t, rho, a, b = _ode_ints(self._ode)
        p, q = self._table[0]._v.as_integer_ratio()
        num = (a * p + b * q) * math.prod(a - i * rho for i in range(1, n))
        den = t**n * q
        return ExactScalar(Fraction(num, den) if self._source.is_exact else _round(num, den))

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


def _ode_ints(ode: tuple) -> tuple:
    """(t, rho, a, b): ode = (rho, a, b), a float read as its binary value,
    as integers over their common denominator t."""
    t = math.lcm(*(Fraction(c).denominator for c in ode))
    return (t, *(int(Fraction(c) * t) for c in ode))


def builtin_function(name: str, *, alpha=None, x0=0) -> FunctionSpec:
    """A ready-made target: exp, sin, sq (x^2), ln1p, or pow ((1+x)^alpha).

    exp, ln1p and pow keep f(x0) and declare their ODE (see
    :class:`FunctionSpec`), which states each f^(k), k >= 1, exact or, where
    the input it names is a float (exp's f(x0), ln1p's x0, pow's alpha),
    rounded once.  sin and sq keep a table of f^(0) .. f^(MAX_ORDER), the
    cap of :func:`assemble`; a higher order raises ValueError.  f(x0) of exp
    and ln1p and sin's derivatives at x0 != 0 are floats, which
    :func:`assemble` takes as exact binary values.  "pow" requires alpha
    and x0 = 0.  An alpha, x0 or exp(x0) without a finite float raises
    ValueError.
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
            dom = Interval(-1.0, math.inf, lo_closed=av > 0)

            def value(x, _af=af):
                if x == -1.0:  # admitted only where alpha > 0
                    return 0.0
                return math.exp(_af * math.log1p(x))

        else:
            dom = _FULL_LINE

            def value(x):
                return 1.0

        return FunctionSpec(f"pow:{av}", x0v, dom, (ONE,), value, (1, av._v, 0), av)
    if alpha is not None:
        raise ValueError(f"builtin {name!r} takes no alpha")

    if name == "exp":
        try:
            d0 = ONE if x0v == 0 else scalar(math.exp(x0f))
        except OverflowError:
            raise ValueError("builtin 'exp' f(x0) has no finite float value") from None
        return FunctionSpec("exp", x0v, _FULL_LINE, (d0,), math.exp, (0, 1, 0), d0)

    if name == "sin":
        s, c = (0, 1) if x0v == 0 else (math.sin(x0f), math.cos(x0f))
        cycle = tuple(map(scalar, (s, c, -s, -c)))
        table = (cycle * (MAX_ORDER // 4 + 1))[:MAX_ORDER + 1]
        return FunctionSpec("sin", x0v, _FULL_LINE, table, math.sin)

    if name == "sq":
        table = (x0v * x0v, 2 * x0v, scalar(2), *repeat(ZERO, MAX_ORDER - 2))
        return FunctionSpec("sq", x0v, _FULL_LINE, table, lambda x: x * x)

    if name == "ln1p":
        base = Fraction(x0v._v) + 1  # a float x0 as its exact binary value
        if not base > 0:
            raise ValueError("builtin 'ln1p' requires x0 > -1")
        d0 = ZERO if x0v == 0 else scalar(math.log1p(x0f))
        return FunctionSpec("ln1p", x0v, Interval(-1.0, math.inf), (d0,), math.log1p,
                            (1 / base, 0, 1 / base), x0v)

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
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise DomainError(f"{name} is beyond the float range")
    return f


class ApproximationModel(_Record):
    """A finished approximation: expansion, target, and coefficients a_0..a_N.

    Its fields live in the instance dict, next to the cached float form.
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


def _kernel_rows(f: list, values: list, order: int) -> list:
    """(P_n, S_n) with F^(n)(0) = r**n P_n / S_n, n = 1 .. order, F = f o h.

    f[k] holds f^(k) at the base point (k <= order) and values[j-1] holds
    e_j, h^(j)(0) = d_j = r**j e_j, as ints or Fractions; F^(n) is the sum
    over k of f^(k) B(n, k)(d_1, d_2, ...), with the columns cut at the
    last nonzero f^(k) (2 for sq).  B(n, k) has weight n in the d_j, so
    the columns run over the e_j.  With column k = P_k / S_k from the Bell
    column kernel :func:`funcseries.exact._columns`, f^(k) = c_k / Q and L
    the lcm of the S_k, P_n is the sum of c_k P_k[n] L / S_k and S_n = Q L.
    """
    kmax = max((k for k in range(1, order + 1) if f[k]), default=0)
    f = f[1:kmax + 1]
    cols, scales = _columns(values, order, kmax)
    q, lcm = math.lcm(*(v.denominator for v in f)), math.lcm(*scales)
    c = [v.numerator * (q // v.denominator) * (lcm // s) for v, s in zip(f, scales[1:])]
    return [(sum(ck * col[n] for ck, col in zip(c[:n], cols[1:])), q * lcm)
            for n in range(1, order + 1)]


def _composed(values: list, order: int, ode: tuple, f0: Fraction) -> list:
    """(P_n, S_n), not reduced, with F^(n)(0) = P_n / S_n, n = 1 .. order, F = f o h.

    values[j-1] holds d_j = h^(j)(0) as an int or Fraction, h(0) = 0, and
    (1 + rho x) f' = a f + b with ode = (t, rho, a, b) in the integer form
    of :func:`_ode_ints` and f(0) = f0.
    Leibniz's rule on (1 + rho h) F' = (a F + b) h' gives J. C. P. Miller's
    power-series recurrence (Knuth, *TAOCP* vol. 2, section 4.7),

        F^(n) = sum_{j=1}^{n} w(n, j) d_j F^(n-j) + b d_n,
        w(n, j) = a C(n-1, j-1) - rho C(n-1, j),

    O(N**2) products against the Bell triangle's O(N**3).  By Pascal's
    rule w(n + 1, j) = w(n, j) + w(n, j - 1), w(n, 0) = -rho, w(1, 1) = a,
    so a row of weights is one vector addition, grown in place up to the
    last nonzero d_j, and each row one dot product (``map``/``sum``) that
    skips the j beyond it and, for odd bases, the even j.  In integers,
    with d_j = D_j / D and f0 = p / q, G_n = t^n q F^(n) satisfies G_0 = p and

        D G_n = sum_j w(n, j) D_j t^(j-1) G_(n-j) + b q D_n t^(n-1);

    the G_m are integers over one denominator L, and S_n = t^n q L is a
    running product.  While D = 1 (all but a11, a12, c3, c4 and c6) L = 1
    and no row divides; otherwise row n divides its sum by g = gcd(sum, D)
    and, if g != D, multiplies L, S_n and the earlier numerators by D / g.
    """
    t, rho, a, b = ode
    b *= f0.denominator
    scale = math.lcm(*(v.denominator for v in values))  # D
    d = [v.numerator * (scale // v.denominator) * t**j for j, v in enumerate(values)]
    # d_j = 0 unless j <= width and step divides j - 1
    js = [j for j, v in enumerate(d) if v]
    step, width = math.gcd(*js) or 1, js[-1] + 1
    dj = d[:width:step]
    top, den = 1, f0.denominator  # L and t^n q L
    over_top = [f0.numerator]  # L G_m for m < n
    rows = []
    w = [a]  # w(n, j) for j = 1 .. min(n, width)
    for n in range(1, order + 1):
        weights, past = (w, reversed(over_top)) if step == 1 else (w[::step], over_top[::-step])
        acc = sum(map(mul, map(mul, weights, dj), past)) + b * d[n - 1] * top
        if len(w) < width:
            w.append(0)
        w = list(map(add, w, [-rho, *w]))
        den *= t
        if scale != 1:
            g = math.gcd(acc, scale)
            acc, s = acc // g, scale // g
            if s != 1:
                over_top = list(map(mul, over_top, repeat(s)))
                top, den = top * s, den * s
        over_top.append(acc)
        rows.append((acc, den))
    return rows


def assemble(exp: Expansion, func: FunctionSpec, order: int) -> ApproximationModel:
    """Coefficients a_0 = f(x0) and a_n = F^(n) / n!, F = f o h.

    h is the expansion's inverse basis, with derivatives d_j at 0, and
    F^(n) = sum over k of f^(k)(x0) B(n, k)(d_1, d_2, ...), the paper's
    sum over the partial Bell polynomials.  The family's registry formula
    states d_j = r**j e_j (r = rn / rd = 1 but for a5 and a7, see
    :mod:`funcseries.pseries`).  A float input enters as its exact binary
    value.  A target with an ODE (exp, ln1p, pow; see :class:`FunctionSpec`)
    is asked for f(x0) alone and takes the O(N**2) recurrence of
    :func:`_composed`; any other target gives every f^(k) to the column
    kernel's :func:`_kernel_rows`.  Both give rows (P_n, S_n) with
    F^(n) = r**n P_n / S_n, each finished as P_n rn^n / (S_n n! rd^n) over
    running products: a ``Fraction``, or its correctly rounded float (+-inf
    beyond the float range) when a nonzero term f^(k) B(n, k) has a float
    factor (:func:`funcseries.exact._supports` finds them; an ODE target's
    f^(k) is nonzero up to the first zero factor of its closed form, so no
    f^(k) is evaluated).  Exact rationals have one reduced form, so both
    routes give the same coefficients, and ``route`` reads "bell" for
    either (part of the model's identity).
    """
    _check_order(order)
    r, e = get_family(exp.key).graded(order, exp.param_dict())
    e, e_floats = _binary(e, f"{exp.key} basis derivative e_{{}}", 1)
    f0, ode, tags = func.derivative(0), func._ode, 0
    if ode is None:  # f^(0) enters only as a_0
        f, f_floats = _binary([0, *(func.derivative(k)._v for k in range(1, order + 1))],
                              f"derivative f^({{}}) of {func.name!r}")
        rows = _kernel_rows(f, e, order)
    else:  # f^(k) = f' (a - rho) ... (a - (k-1) rho) is nonzero up to a zero factor;
        _, rho, a, b = ode = _ode_ints(ode)  # a float source sets bit k >= 1 of f_floats
        p, q = f0._v.as_integer_ratio()
        nonzero = accumulate((a != i * rho for i in range(1, order)), and_,
                             initial=a * p + b * q != 0)
        f, f_floats = chain([0], nonzero), 0 if func._source.is_exact else ~1
        rows = _composed(e, order, ode, Fraction(p, q))
    if f_floats or e_floats:
        for k, ((reach, read), fk) in enumerate(zip(_supports(e, e_floats, order, order), f)):
            if fk:  # bit n: a nonzero product in B(n, k), one with a float
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
    outer = TruncatedSeries(func.derivative(k) / math.factorial(k) for k in range(order + 1))
    comp = outer.compose(exp.series(order))
    return ApproximationModel(exp, func, order, comp.coeffs, "composition")


def evaluate(model: ApproximationModel, x: float) -> float:
    """Float value of the approximation at x (Horner in u = g(x - x0)).

    The Horner sum runs over the model's float coefficients, converted
    from the exact ones once per model, so every point costs one basis
    evaluation and N multiply-adds.  The result equals converting each
    coefficient at every call, bit for bit.  x is a float, an int or a
    Fraction: x - x0 is a float, which eval_g admits into the domain in
    one step (see :func:`funcseries.catalog.eval_g`); an x beyond the
    float range reads as +-inf, outside every domain.
    """
    x0, horner = model._float_form
    try:
        t = x - x0
    except OverflowError:  # an int or Fraction beyond the float range
        t = math.inf if x > 0 else -math.inf
    u = eval_g(model.expansion, t)
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
    """Shortest round-trip decimal form, padded to 17 significant digits."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "-0.0000000000000000" if math.copysign(1.0, x) < 0 else "0.0000000000000000"
    mantissa, e, exponent = repr(float(x)).partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    pad = 17 - len(mantissa.lstrip("-0.").replace(".", ""))
    return mantissa + "0" * pad + e + exponent
