"""The two exact assembly routes give the same coefficients.

exp, ln1p and pow at x0 = 0 declare a first-order linear ODE, and
``assemble`` computes their series of f o h by the O(N**2) composition
recurrence; every other target reads the Bell column kernel.  The same
derivatives wrapped by ``function_from_derivatives`` declare no ODE, so
they take the kernel, and the two builds must agree coefficient for
coefficient.  Models with float coefficients never take the recurrence;
a digest recorded before it existed pins them bit for bit.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries import approx, bell
from funcseries.approx import assemble, builtin_function, function_from_derivatives
from funcseries.catalog import get_expansion
from funcseries.exact import falling_factorial
from funcseries.pseries import FAMILY_KEYS, MAX_ORDER

ODE_TARGETS = ("exp", "ln1p", "pow:1/5", "pow:-1/3", "pow:3/2")


def target(spec):
    """A builtin by name: "pow:ALPHA" (ALPHA a rational or a float) or "name@x0"."""
    name, _, x0 = spec.partition("@")
    if name.startswith("pow:"):
        text = name[4:]
        return builtin_function("pow", alpha=float(text) if "." in text else Fraction(text))
    return builtin_function(name, x0=Fraction(x0 or 0))


def through_kernel(func, order):
    """The same derivatives d_0 .. d_order, with no ODE declared."""
    return function_from_derivatives([func.derivative(k) for k in range(order + 1)])


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the column-kernel builds assemble makes, as (rows, columns)."""
    calls = []

    def counted(values, nmax, kmax=None, _columns=bell._columns):
        calls.append((nmax, kmax))
        return _columns(values, nmax, kmax)

    monkeypatch.setattr(bell, "_columns", counted)
    return calls


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_recurrence_matches_kernel_at_max_order(key, kernel_calls):
    exp = get_expansion(key)
    assert kernel_calls == []  # a11's and a12's Newton start tables are constants
    for spec in ODE_TARGETS:
        func = target(spec)
        fast = assemble(exp, func, MAX_ORDER)
        assert kernel_calls == []
        slow = assemble(exp, through_kernel(func, MAX_ORDER), MAX_ORDER)
        assert kernel_calls == [(MAX_ORDER, MAX_ORDER)]
        kernel_calls.clear()
        assert fast.is_exact() and slow.is_exact()
        assert fast.coefficients == slow.coefficients, (key, spec)
        assert fast.route == slow.route == "bell"


def test_targets_without_an_ode_keep_the_kernel(kernel_calls):
    exp = get_expansion("a1")
    for func in (builtin_function("sin"), builtin_function("sq")):
        assemble(exp, func, 8)
    # sin's last nonzero derivative up to order 8 is f^(7); sq has two
    assert kernel_calls == [(8, 7), (8, 2)]


def test_lowest_orders():
    for key in ("a1", "a7", "c6"):
        exp = get_expansion(key)
        for spec in ODE_TARGETS:
            func = target(spec)
            for order in (1, 2):
                assert assemble(exp, func, order).coefficients == assemble(
                    exp, through_kernel(func, order), order).coefficients


def _rational(max_num=12, max_den=12, nonzero=False, positive=False):
    lo = 1 if positive else -max_num
    nums = st.integers(lo, max_num)
    if nonzero:
        nums = nums.filter(bool)
    return st.builds(Fraction, nums, st.integers(1, max_den))


# (key, params) with exact parameters for which the catalog builds the
# expansion: a5 any nonzero alpha, a6 and a10 a positive w, c1 any nonzero
# w, a7 a square alpha (so its root is rational) and any nonzero beta, c5
# any shape with w != 0
_EXPANSIONS = st.one_of(
    st.tuples(st.just("a5"), st.fixed_dictionaries({"alpha": _rational(nonzero=True)})),
    st.tuples(st.sampled_from(["a6", "a10"]),
              st.fixed_dictionaries({"w": _rational(positive=True)})),
    st.tuples(st.just("c1"), st.fixed_dictionaries({"w": _rational(nonzero=True)})),
    st.tuples(st.just("a7"), st.fixed_dictionaries({
        "alpha": _rational(6, 6, positive=True).map(lambda r: r * r),
        "beta": _rational(nonzero=True)})),
    st.tuples(st.just("c5"), st.fixed_dictionaries({
        "alpha": _rational(), "w": _rational(nonzero=True), "beta": _rational()})),
)
_TARGETS = st.one_of(
    st.sampled_from(["exp", "ln1p"]).map(builtin_function),
    _rational(24, 24).map(lambda a: builtin_function("pow", alpha=a)),
)


# derandomized: the same examples on every run, so tier-1 cannot flake
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_EXPANSIONS, func=_TARGETS, order=st.integers(1, MAX_ORDER))
def test_recurrence_matches_kernel_property(case, func, order):
    key, params = case
    exp = get_expansion(key, **params)
    fast = assemble(exp, func, order)
    slow = assemble(exp, through_kernel(func, order), order)
    assert fast.is_exact()
    assert fast.coefficients == slow.coefficients


# every family's exact parameters: the ones above, and for a7 also an alpha
# that need not be a square (its root, and so its model, is then float)
_FAMILY_PARAMS = {
    "a5": st.fixed_dictionaries({"alpha": _rational(nonzero=True)}),
    "a6": st.fixed_dictionaries({"w": _rational(positive=True)}),
    "a10": st.fixed_dictionaries({"w": _rational(positive=True)}),
    "c1": st.fixed_dictionaries({"w": _rational(nonzero=True)}),
    "a7": st.fixed_dictionaries({
        "alpha": st.one_of(_rational(6, 6, positive=True).map(lambda r: r * r),
                           _rational(positive=True)),
        "beta": _rational(nonzero=True)}),
    "c5": st.fixed_dictionaries({
        "alpha": _rational(), "w": _rational(nonzero=True), "beta": _rational()}),
}
# pow with a small nonzero alpha has both a = alpha and rho = 1 in its ODE,
# so its weights are the general C(n, j) (a j - rho (n - j)) / n
_WEIGHTED_TARGETS = st.one_of(
    st.sampled_from(["exp", "ln1p"]).map(builtin_function),
    _rational(6, 6, nonzero=True).map(lambda a: builtin_function("pow", alpha=a)),
)


@pytest.mark.parametrize("key", FAMILY_KEYS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_recurrence_weights_match_kernel_in_every_family(key, data):
    params = data.draw(_FAMILY_PARAMS.get(key, st.just({})), label="params")
    func = data.draw(_WEIGHTED_TARGETS, label="func")
    order = data.draw(st.integers(1, 24), label="order")
    exp = get_expansion(key, **params)
    fast = assemble(exp, func, order)
    slow = assemble(exp, through_kernel(func, order), order)
    assert fast.coefficients == slow.coefficients
    if key != "a7" or exp.param_dict()["alpha"].sqrt().is_exact:
        assert fast.is_exact()


def counting(func):
    """func with a derivative function that records each order asked for."""
    calls = []

    def deriv(n, _inner=func._deriv):
        calls.append(n)
        return _inner(n)

    spec = approx.FunctionSpec(func.name, func.x0, func.domain, deriv, func._value,
                               func._table, func._ode)
    return spec, calls


@pytest.mark.parametrize("spec", ODE_TARGETS)
def test_an_ode_target_is_asked_for_its_value_only(spec):
    func, calls = counting(target(spec))
    exp = get_expansion("c6")
    model = assemble(exp, func, MAX_ORDER)
    assert model.coefficients == assemble(exp, target(spec), MAX_ORDER).coefficients
    assert calls == [0]


def test_a_target_without_an_ode_is_asked_for_every_order():
    for spec in ("sin", "exp@1/2", "pow:0.5"):
        func, calls = counting(target(spec))
        assemble(get_expansion("a2"), func, MAX_ORDER)
        assert calls == list(range(MAX_ORDER + 1)), spec


# sha256 of the reprs of every coefficient of assemble(expansion, target, N),
# one repr a line, over the targets and then N in (20, MAX_ORDER).  Recorded
# before the composition recurrence existed; every one of these models has
# float coefficients.  "pow:0.5" was recorded through
# function_from_derivatives over the float falling factorials of 0.5,
# which the builtin's derivatives equal.
_SHIFTED = ("exp@1/2", "ln1p@1/2", "pow:0.5")
FLOAT_MODEL_DIGESTS = [
    ("a1", {}, _SHIFTED, "13e5a1a7f013b1f0420be93fde9e9dd0a2ef933666b2cf8f192767cc5130402a"),
    ("a2", {}, _SHIFTED, "704de94e67902e4e24af15f9ab0702aa359cf22507d03470acfc7a2acd66c8ae"),
    ("a3", {}, _SHIFTED, "52bc6b7664555b8cea6add0b4643ba1f00d938501425a44e780ff9503f4fc0f0"),
    ("a4", {}, _SHIFTED, "9b26579e32435dc42dc5f3711c04bfbded4821e0090d49ba90539a70bb17c4b6"),
    ("a5", {}, _SHIFTED, "e7901bef14b4e5f6f637c838cb5eb953d498eaf25addd3f20f89e30a7de8104a"),
    ("a6", {}, _SHIFTED, "edb8f42fb47405c947c991d6bf1483908194ccc87075b72c737b890f9607239f"),
    ("a7", {}, _SHIFTED, "71e93fc9fe617ad8533326c11dc225ecbdfb3bcbc007b621a2262aa23179052a"),
    ("a8", {}, _SHIFTED, "7a775873180a408c38d8ffd07acec51c1940217055567e2591df3b80a9b44f58"),
    ("a9", {}, _SHIFTED, "ccde1b884e017c6d546f0646b6144839ffb970e773adb121f096f7a736b773d5"),
    ("a10", {}, _SHIFTED, "d80438062f60e024ad2d879b1947e473a1f7fd14dfef0a99d31c4bd6b84bc91e"),
    ("a11", {}, _SHIFTED, "9cc4cbdfad59328f85503b1ff3221c207fc4d4ed164a34048bc222f856bc41bb"),
    ("a12", {}, _SHIFTED, "52d84a6273aa63670e3f2fca6665ea63f271464dcaeb8aaa6ee67d7586065fdd"),
    ("a13", {}, _SHIFTED, "65a993e8555bbf1183b0fdf460b6e81b9184c34f6864eda8521682cdd486528f"),
    ("c1", {}, _SHIFTED, "d80438062f60e024ad2d879b1947e473a1f7fd14dfef0a99d31c4bd6b84bc91e"),
    ("c2", {}, _SHIFTED, "9782dbb5e3e88c45843680c80c86a09d1eeebcd8216d449a1c3128aa739a5f94"),
    ("c3", {}, _SHIFTED, "94eaed7c029318fdac71be93dc77963cec087402b3a7d1d1488c473c1f1ed369"),
    ("c4", {}, _SHIFTED, "ab64d668c334ddc4eba9dabef7a69ce5fc7006a08b11a9c6291ac349cabe63fd"),
    ("c5", {}, _SHIFTED, "40689e3ff4f92254a072af07d8b6f36c623859753bf6074f94142019d1a3d825"),
    ("c6", {}, _SHIFTED, "4fbdf98e2d4b1747d8547fa9bf434744b704cce4f324d56ffde1678a4276e5bc"),
    # float basis values: an irrational root of alpha, a float alpha
    ("a7", {"alpha": Fraction(31, 21)}, ("exp", "ln1p", "pow:1/5", "pow:0.5"),
     "b20f735729883c7d47ee61d98e3ebf2c83700145a52b9828a4127159414f80f0"),
    ("a5", {"alpha": 0.5}, ("exp", "ln1p", "pow:1/5", "pow:0.5"),
     "db485d206606a5716fe775ad21c8599e590b55a8325ea3de6e281db9790aa358"),
]


@pytest.mark.parametrize("key,params,targets,digest", [
    pytest.param(key, params, targets, digest,
                 id="-".join([key, *(f"{name}={v}" for name, v in params.items())]))
    for key, params, targets, digest in FLOAT_MODEL_DIGESTS
])
def test_float_models_pinned(key, params, targets, digest):
    exp = get_expansion(key, **params)
    text = "\n".join(
        repr(c)
        for spec in targets
        for n in (20, MAX_ORDER)
        for c in assemble(exp, target(spec), n).coefficients
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_float_alpha_has_float_derivatives():
    func = builtin_function("pow", alpha=0.5)
    assert [func.derivative(k) for k in range(5)] == [falling_factorial(0.5, k)
                                                      for k in range(5)]
    assert not func.derivative(1).is_exact
    assert not assemble(get_expansion("a1"), func, 4).is_exact()


# Every target that takes the Bell kernel rather than the recurrence: the
# exact builtins without an ODE, exact and float derivative lists (with
# finite support, and with exact zeros among floats), x0 != 0, a float
# alpha for pow, and a7 with an irrational root, where the kernel itself
# runs on floats.
def _list(values):
    return function_from_derivatives([*values, *[0] * (41 - len(values))])


def _float_list_with_zeros():
    return function_from_derivatives(
        [0 if k % 3 == 0 else Fraction(1, k + 1) if k % 3 == 1 else (-1.0) ** k / (k + 2)
         for k in range(41)])


KERNEL_TARGETS = {
    "sin-sq": lambda: [target("sin"), target("sq")],
    "rational-lists": lambda: [
        function_from_derivatives([(-1) ** n * math.factorial(n) for n in range(41)]),
        function_from_derivatives([Fraction((-1) ** n * math.factorial(n), 2 ** (n + 1))
                                   for n in range(41)])],
    "polynomial-lists": lambda: [_list([1, 2, -3, Fraction(1, 2), 5, 7]),
                                 _list([0.5, 1.5, 0, -2.5]), target("sq@1/2")],
    "x0-half": lambda: [target("exp@1/2"), target("sin@1/2"), target("ln1p@1/2")],
    "pow-float": lambda: [target("pow:0.2")],
    "float-list-with-zeros": lambda: [_float_list_with_zeros()],
}
# sha256 of one line per coefficient of assemble(exp, func, N), "key N repr",
# over the families, then the targets, then N in (8, 40); repr tags a float
# coefficient with "~".  Recorded from the code in which assemble decoded
# both of the kernel's number formats itself.
KERNEL_ROUTE_DIGESTS = {
    "sin-sq":
        "2f46d7a18ab715cd89b44c6f8afac0b13c151ce7ddd0699b107515f7ac069474",
    "rational-lists":
        "50e81e0a2a765b5b195e114125396fb144cd253a76563e381e33be136fa127d5",
    "polynomial-lists":
        "74f2095f0481e426d883c35ea312dfb79753034323c9b05a90e8db4783854118",
    "x0-half":
        "070b84838bdcf2194010e9714cb0c108ec9ac9842ea180491ccf90983fd77cc9",
    "pow-float":
        "0fb11032f6dab5a1cce93d9c63b7f1ddb0e36a956b8adc55f17afd4f1a20274c",
    "float-list-with-zeros":
        "b458f1b4251782bf689eb25639ec5ea9d94a73b246a42c7d7aa679652c408c85",
    "a7-irrational-root":
        "3374078db979e7efd81ca2a256e21174e2a4cb9bc46c1304a3e7976e9545b925",
    "ratio-not-one":
        "cf01898f680fa3f03d1bae1e273d65be6dd099e96b57cd0d680ac66f4682f1c3",
}


def _kernel_cases(case):
    if case == "a7-irrational-root":  # e_j are floats, so every target takes the kernel
        exps = [get_expansion("a7", alpha=2)]
        funcs = [target(s) for s in ("exp", "ln1p", "pow:1/5", "sin", "sq")]
    elif case == "ratio-not-one":  # d_j = r^j e_j with r != 1, and float targets
        exps = [get_expansion("a5", alpha=Fraction(2, 3)), get_expansion("a7")]
        funcs = [*KERNEL_TARGETS["x0-half"](), _float_list_with_zeros(), target("sq")]
    else:
        exps = [get_expansion(key) for key in FAMILY_KEYS]
        funcs = KERNEL_TARGETS[case]()
    return exps, funcs


@pytest.mark.parametrize("case", list(KERNEL_ROUTE_DIGESTS))
def test_kernel_routes_pinned(case):
    exps, funcs = _kernel_cases(case)
    text = "\n".join(
        f"{exp.key} {n} {c!r}"
        for exp in exps
        for func in funcs
        for n in (8, 40)
        for c in assemble(exp, func, n).coefficients
    )
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_ROUTE_DIGESTS[case]
