"""Float inputs enter assembly as their exact binary values.

Every float is a dyadic rational, so ``assemble`` builds a model with a
float input (an f^(k), a float parameter, a float alpha for pow) as the
exact model of those rationals and rounds each coefficient once.  The
tests here check every pinned float model against that exact model bit
for bit, the accuracy that buys against a 60-digit reference, subnormal
inputs, and the ValueError that non-finite inputs raise at entry.
"""

import math
import time
from fractions import Fraction

import pytest

from funcseries import approx, bell
from funcseries.approx import assemble, builtin_function, evaluate, function_from_derivatives
from funcseries.catalog import DomainError, get_expansion
from funcseries.exact import falling_factorial
from funcseries.pseries import FAMILY_KEYS, MAX_ORDER, get_family
from test_approx import COEFFICIENT_PINS, SHIFTED_CENTER_REPRS, pin_target
from test_routes import FLOAT_MODEL_DIGESTS, KERNEL_ROUTE_DIGESTS, _kernel_cases, target


def _binary(value):
    """An ExactScalar's value as a Fraction: a float as its exact binary value."""
    return value.as_fraction() if value.is_exact else Fraction(float(value))


def _exact_target(func, order):
    """The target over the exact binary values of its float inputs: an ODE
    target with a float f(x0) (exp at x0 != 0, ln1p at an exact x0 != 0) as
    its derivative list."""
    if func._ode is None or not func.derivative(0).is_exact:
        return function_from_derivatives([_binary(func.derivative(k)) for k in range(order + 1)])
    if func.name.startswith("pow:"):  # a float alpha is the ODE's only float
        return builtin_function("pow", alpha=Fraction(func._ode[1]))
    return func


def exact_coefficients(exp, func, order):
    """a_0 .. a_order of the same inputs as exact rationals, each float as Fraction(v).

    A float parameter of the basis enters through its e_j (a5's falling
    factorials of a float alpha, a7's powers of a float root), which no
    exact expansion has: the kernel sums over their binary values then.
    """
    twin = _exact_target(func, order)
    r, e = get_family(exp.key).graded(order, exp.param_dict())
    if not any(isinstance(v, float) for v in e):
        params = {name: _binary(v) for name, v in exp.params}
        model = assemble(get_expansion(exp.key, **params), twin, order)
        assert model.is_exact()
        return [c.as_fraction() for c in model.coefficients]
    f = [_binary(twin.derivative(k)) for k in range(order + 1)]
    rows = approx._kernel_rows(f, [Fraction(v) for v in e], order)
    return [f[0]] + [Fraction(p * r**n, s * math.factorial(n))
                     for n, (p, s) in enumerate(rows, 1)]


def _pinned_float_models():
    """(pin, expansion, target, N) for every pinned float model at its top order;
    a model at a lower order is a prefix of it."""
    for p in COEFFICIENT_PINS:
        key, params, targets, orders, _ = p.values
        if p.id in ("a7-irrational-root", "a1-x0-half", "a8-x0-half", "c3-x0-half"):
            for spec in targets:
                yield p.id, get_expansion(key, **params), pin_target(spec), max(orders)
    for key, fname in sorted(SHIFTED_CENTER_REPRS):
        yield "shifted-center", get_expansion(key), builtin_function(fname, x0=1), 16
    for key, params, targets, _ in FLOAT_MODEL_DIGESTS:
        for spec in targets:
            yield "float-models", get_expansion(key, **params), target(spec), MAX_ORDER
    for case in KERNEL_ROUTE_DIGESTS:
        if case not in ("sin-sq", "rational-lists"):
            exps, funcs = _kernel_cases(case)
            for exp in exps:
                for func in funcs:
                    yield case, exp, func, 40


def _check_against(model, reference):
    """Each exact coefficient equals its reference, each float one is the
    reference's float (repr, so that -0.0 counts), bit for bit."""
    assert len(model.coefficients) == len(reference)
    for n, (c, ref) in enumerate(zip(model.coefficients, reference)):
        if c.is_exact:
            assert c.as_fraction() == ref, n
        else:
            assert repr(float(c)) == repr(float(ref)), n


@pytest.mark.parametrize("pin", sorted({pin for pin, *_ in _pinned_float_models()}))
def test_pinned_float_models_equal_their_exact_models(pin):
    for case, exp, func, order in _pinned_float_models():
        if case == pin:
            _check_against(assemble(exp, func, order), exact_coefficients(exp, func, order))


@pytest.mark.parametrize("x0", [Fraction(1, 2), 1])
def test_shifted_exp_within_two_ulp_of_a_60_digit_reference(x0):
    # the coefficients of exp(x0 + x) are e^x0 times those at x0 = 0
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(60):
        scale = mpmath.exp(mpmath.mpf(x0.numerator) / x0.denominator)
        for key in FAMILY_KEYS:
            exp = get_expansion(key)
            shifted = assemble(exp, builtin_function("exp", x0=x0), MAX_ORDER)
            at_zero = assemble(exp, builtin_function("exp"), MAX_ORDER)
            for n, (c, c0) in enumerate(zip(shifted.coefficients, at_zero.coefficients)):
                ref = scale * c0.numerator / mpmath.mpf(c0.denominator)
                if c0 == 0:
                    assert float(c) == 0.0, (key, n)
                    continue
                err = float(abs(mpmath.mpf(float(c)) - ref) / math.ulp(float(ref)))
                assert err <= 2, (key, n, err)
                worst = max(worst, err)
    assert worst > 0.0  # some coefficient is not exactly representable


def test_subnormal_list_builds_exactly_and_in_time():
    func = function_from_derivatives([5e-324] * (MAX_ORDER + 1))
    exps = [get_expansion(key) for key in FAMILY_KEYS]
    start = time.perf_counter()
    models = [assemble(exp, func, MAX_ORDER) for exp in exps]
    elapsed = time.perf_counter() - start
    # 0.13 s on a 2-vCPU x86-64 VM; the mixed float format took about as long
    assert elapsed < 2.0, f"{elapsed:.2f}s"
    for exp, model in zip(exps, models):
        _check_against(model, exact_coefficients(exp, func, MAX_ORDER))


def test_values_beyond_the_float_range_round_to_infinities():
    # a_0 = f(x0) = 1e400 is inf as a float, as before; the others are finite
    m = assemble(get_expansion("a1"), builtin_function("sq", x0=1e200), 4)
    assert float(m.coefficients[0]) == math.inf and math.isfinite(float(m.coefficients[1]))
    # exact sums beyond the float range round to +-inf instead of raising
    for sign in (1, -1):
        f = function_from_derivatives([0.0] + [sign * 1e300] * MAX_ORDER)
        m = assemble(get_expansion("a8"), f, MAX_ORDER)
        assert float(m.coefficients[-1]) == sign * math.inf
        assert not m.coefficients[-1].is_exact


@pytest.mark.parametrize("values", [[1.0, 1e308, 1e308], [1, 10**308, 10**308]])
def test_a_coefficient_beyond_the_float_range_is_a_domain_error(values):
    # a float a_1 that assembly rounded to inf is beyond the float range, as
    # its exact twin is: no evaluation or decimal can use it
    m = assemble(get_expansion("a8"), function_from_derivatives(values), 2)
    for call in (lambda: evaluate(m, 0.0), lambda: evaluate(m, 0.5), m.to_json_dict):
        with pytest.raises(DomainError, match="coefficient a_1 is beyond the float range"):
            call()


def _rounded(q):
    """q correctly rounded to a float, +-inf beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


@pytest.mark.parametrize("x0", [0.5, 0.1, 3.7, -0.9999, -0.999999])
def test_ln1p_at_a_float_center_rounds_each_derivative_once(x0):
    func = builtin_function("ln1p", x0=x0)
    base = Fraction(x0) + 1
    for n in range(1, MAX_ORDER + 1):
        d = func.derivative(n)
        want = _rounded(Fraction((-1) ** (n - 1) * math.factorial(n - 1)) / base ** n)
        assert not d.is_exact and float(d) == want, n
    exact = builtin_function("ln1p", x0=Fraction(1, 2))
    assert exact.derivative(3) == Fraction(16, 27) and exact.derivative(3).is_exact


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5])
def test_pow_with_a_float_alpha_rounds_each_derivative_once(alpha):
    # f^(n) is the falling factorial of the binary value of alpha, rounded
    # once, beyond MAX_ORDER too; f^(0) = 1 stays exact
    func = builtin_function("pow", alpha=alpha)
    assert func.derivative(0).is_exact
    for n in range(1, MAX_ORDER + 4):
        d = func.derivative(n)
        want = _rounded(falling_factorial(Fraction(alpha), n).as_fraction())
        assert not d.is_exact and float(d) == want, n


@pytest.mark.parametrize("x0", [0.5, -0.3, 2.0])
def test_ln1p_at_a_float_center_is_within_half_an_ulp(x0):
    # the recurrence runs over rho = 1 / (1 + x0) of the binary value of x0,
    # so each coefficient is the exact model's at Fraction(x0), rounded once
    func, exact = builtin_function("ln1p", x0=x0), builtin_function("ln1p", x0=Fraction(x0))
    for key in FAMILY_KEYS:
        model = assemble(get_expansion(key), func, MAX_ORDER)
        want = assemble(get_expansion(key), exact, MAX_ORDER).coefficients
        assert repr(model.coefficients[0]) == repr(want[0])
        for n, (c, q) in enumerate(zip(model.coefficients[1:], want[1:]), 1):
            ulps = abs(Fraction(float(c)) - q.as_fraction()) / Fraction(math.ulp(float(q)))
            assert not c.is_exact and ulps <= Fraction(1, 2), (key, n, float(ulps))
            assert float(c) == float(q), (key, n)


def _outcome(model, x):
    """evaluate(model, x), or the message of its DomainError."""
    try:
        return evaluate(model, x)
    except DomainError as err:
        return str(err)


@pytest.mark.parametrize("x0,n", [(-0.999999, 43), (-0.9999, 58)])
def test_ln1p_derivative_beyond_the_float_range_is_named(x0, n):
    # (1 + x0)^n is taken exactly, so f^(n) cannot underflow to 0.0: it is
    # the first derivative beyond the float range.  No arithmetic reads it,
    # as the recurrence runs over rho = 1 / (1 + x0): the model builds as
    # its exact twin at the binary value of x0 does, each coefficient that
    # twin's rounded once, and evaluates as the twin does (at -0.999999
    # a_52 is beyond the float range for both)
    func, twin = builtin_function("ln1p", x0=x0), builtin_function("ln1p", x0=Fraction(x0))
    assert math.isfinite(float(func.derivative(n - 1)))
    assert float(func.derivative(n)) == (-1) ** (n - 1) * math.inf
    exp = get_expansion("a1")
    model, exact = assemble(exp, func, MAX_ORDER), assemble(exp, twin, MAX_ORDER)
    assert repr(model.coefficients[0]) == repr(exact.coefficients[0])
    for k, (c, q) in enumerate(zip(model.coefficients[1:], exact.coefficients[1:]), 1):
        assert not c.is_exact and repr(float(c)) == repr(_rounded(q.as_fraction())), k
    assert repr(_outcome(model, x0)) == repr(_outcome(exact, x0))
    if x0 == -0.999999:
        assert _outcome(model, x0) == "coefficient a_52 is beyond the float range"


class TestNonFiniteInputs:
    @pytest.mark.parametrize("name,x0", [
        ("exp", 1000), ("exp", 10**400), ("sin", 10**400), ("ln1p", 10**400),
        ("sq", math.nan), ("exp", math.inf), ("sin", -math.inf),
    ])
    def test_builtin_center_without_a_finite_float(self, name, x0):
        with pytest.raises(ValueError, match="x0|f\\(x0\\)"):
            builtin_function(name, x0=x0)

    def test_overflowing_exp_names_its_value(self):
        with pytest.raises(ValueError, match=r"'exp' f\(x0\) has no finite float value"):
            builtin_function("exp", x0=1000)
        with pytest.raises(ValueError, match="x0 has no finite float value"):
            builtin_function("sin", x0=float("nan"))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_derivative_list(self, bad):
        with pytest.raises(ValueError, match=r"derivative d_1 of 'custom' is not finite"):
            function_from_derivatives([1.0, bad, 1.0])
        with pytest.raises(ValueError, match="x0 has no finite float value"):
            function_from_derivatives([1.0], x0=bad)

    def test_bell_argument(self):
        with pytest.raises(ValueError, match="Bell argument d_2 is not finite"):
            bell.bell_generic(3, 2, [1.0, math.inf, 2.0])
        # an argument B(n, k) does not read is not checked
        assert bell.bell_generic(3, 3, [1.5, math.inf]) == 3.375

    def test_float_bell_arguments_round_once(self):
        # B(4, 2) = 4 d_1 d_3 + 3 d_2^2 over the binary values of 0.1, 0.2, 0.3
        d = [0.1, 0.2, 0.3]
        exact = 4 * Fraction(d[0]) * Fraction(d[2]) + 3 * Fraction(d[1]) ** 2
        v = bell.bell_generic(4, 2, d)
        assert not v.is_exact and float(v) == float(exact)
        assert not bell.bell_generic(4, 2, [0.1, 0, 0.3]).is_exact
        assert not bell.bell_generic(4, 2, [0, 0.2, 0]).is_exact
        assert bell.bell_generic(3, 2, [0, 0.2, 0]) == 0  # no nonzero product
        assert bell.bell_generic(3, 2, [0, 0.2, 0]).is_exact
