"""Every target takes one exact route, checked against the Bell columns.

Every builtin declares a linear ODE (first order for exp, ln1p and pow,
second for sin and sq), and a derivative list f^(0) .. f^(K) is the
polynomial target f^(K + 1) = 0; ``assemble`` computes the series of
f o h for either by the composition recurrence.  The oracle here sums
f^(k) B(n, k) over the columns of ``bell._columns``, the O(N**3) Bell
triangle, and the builds must agree with it coefficient for coefficient,
exactness tags included (``ExactScalar.__eq__`` ignores them, so the tests
compare reprs).  Float inputs enter as their exact binary values, and each
float coefficient is the correctly rounded value of its exact rational;
digests pin the float models bit for bit.
"""

import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries import approx, bell
from funcseries.approx import assemble, builtin_function, function_from_derivatives
from funcseries.catalog import get_expansion
from funcseries.exact import ExactScalar, _round, _supports, falling_factorial
from funcseries.pseries import FAMILY_KEYS, MAX_ORDER, get_family

ODE_TARGETS = ("exp", "ln1p", "pow:1/5", "pow:-1/3", "pow:3/2", "sin", "sin@1/2", "sin@0.5", "sq",
               "sq@0.5", "sq@-0.0")


def _number(text):
    """A float for "0.5", a Fraction for "1/2" or "2"."""
    return float(text) if "." in text else Fraction(text)


def target(spec):
    """A builtin by name: "pow:ALPHA" or "name@x0", ALPHA and x0 rationals or floats."""
    name, _, x0 = spec.partition("@")
    if name.startswith("pow:"):
        return builtin_function("pow", alpha=_number(name[4:]))
    return builtin_function(name, x0=_number(x0 or "0"))


def as_list(func, order):
    """The same derivatives d_0 .. d_order, with no ODE declared."""
    return function_from_derivatives(func._listing(order)[0][:order + 1])


def tagged(model):
    """The coefficients' reprs: their values with their exactness tags."""
    return list(map(repr, model.coefficients))


@lru_cache(maxsize=None)
def _bell_columns(exp):
    """(r, cols, scales, supports) of exp at MAX_ORDER: B(n, k) = cols[k][n] / scales[k]
    over the binary values of the e_j, and exact._supports' masks."""
    r, e = get_family(exp.key).graded(MAX_ORDER, exp.param_dict())
    floats = sum(isinstance(v, float) << j for j, v in enumerate(e))
    e = [Fraction(v) for v in e]
    return (r, *bell._columns(e, MAX_ORDER), _supports(e, floats, MAX_ORDER, MAX_ORDER))


def bell_oracle(exp, values, order):
    """[(a_n, rounded)] for n = 1 .. order of the derivative list values on exp.

    a_n = sum_k f^(k) B(n, k)(d_1, d_2, ...) / n! as an exact rational over
    the binary values of the floats, f^(k) = values[k] and B(n, k) read from
    bell's columns; rounded marks the a_n that has a nonzero term with a
    float factor: a float f^(k) times a nonzero product of the d_j, or any
    nonzero f^(k) times one with a float d_j (the masks of exact._supports).
    """
    r, cols, scales, supports = _bell_columns(exp)
    terms = [(Fraction(v._v), v.is_exact, col, Fraction(1, s), masks)
             for v, col, s, masks in zip(values[1:order + 1], cols[1:], scales[1:], supports[1:])
             if v]
    return [(sum((fk * col[n] * inv for fk, _, col, inv, _ in terms), Fraction(0))
             * r**n / math.factorial(n),
             any((read if exact else reach) >> n & 1 for _, exact, _, _, (reach, read) in terms))
            for n in range(1, order + 1)]


def oracle_tagged(exp, func, order):
    """The reprs of a_0 = f(x0) and of the oracle's a_1 .. a_order over func's
    derivatives, each rounded once where marked."""
    values = func._listing(order)[0]
    return [repr(values[0]), *(repr(ExactScalar(_round(a.numerator, a.denominator) if rounded
                                                else a))
                               for a, rounded in bell_oracle(exp, values, order))]


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_recurrence_matches_kernel_at_max_order(key):
    exp = get_expansion(key)
    for spec in ODE_TARGETS:
        func = target(spec)
        fast = assemble(exp, func, MAX_ORDER)
        slow = assemble(exp, as_list(func, MAX_ORDER), MAX_ORDER)
        # a float f(x0) (sin at x0 != 0, sq at a float x0) makes a_0 a float
        assert fast.is_exact() == slow.is_exact() == func.derivative(0).is_exact
        assert tagged(fast) == tagged(slow) == oracle_tagged(exp, func, MAX_ORDER), (key, spec)
        assert fast.route == slow.route == "bell"


def test_derivative_lists_match_the_bell_columns():
    # a list f^(0) .. f^(K) takes the recurrence as the polynomial target
    # f^(K + 1) = 0: sin's up to order 8 has K = 7, sq's K = 2
    for key in FAMILY_KEYS:
        exp = get_expansion(key)
        for spec in ("sin", "sq", "sq@1/2"):
            func = as_list(target(spec), 8)
            assert tagged(assemble(exp, func, 8)) == oracle_tagged(exp, func, 8), (key, spec)


def test_lowest_orders():
    for key in ("a1", "a7", "c6"):
        exp = get_expansion(key)
        for spec in ODE_TARGETS:
            func = target(spec)
            for order in (1, 2):
                assert tagged(assemble(exp, func, order)) == tagged(
                    assemble(exp, as_list(func, order), order))


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
# sin and sq at an exact or a float x0
_SECOND_ORDER = st.builds(builtin_function, st.sampled_from(["sin", "sq"]),
                          x0=st.one_of(_rational(), st.floats(-4, 4)))
_TARGETS = st.one_of(
    st.sampled_from(["exp", "ln1p"]).map(builtin_function),
    _rational(24, 24).map(lambda a: builtin_function("pow", alpha=a)),
    _SECOND_ORDER,
)


# derandomized: the same examples on every run, so tier-1 cannot flake
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_EXPANSIONS, func=_TARGETS, order=st.integers(1, MAX_ORDER))
def test_recurrence_matches_kernel_property(case, func, order):
    key, params = case
    exp = get_expansion(key, **params)
    fast = assemble(exp, func, order)
    slow = assemble(exp, as_list(func, order), order)
    assert fast.is_exact() == func.derivative(0).is_exact
    assert tagged(fast) == tagged(slow)


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
    _SECOND_ORDER,
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
    slow = assemble(exp, as_list(func, order), order)
    assert tagged(fast) == tagged(slow)
    if key != "a7" or exp.param_dict()["alpha"].sqrt().is_exact:
        assert fast.is_exact() == func.derivative(0).is_exact


# derivative lists of 1 .. MAX_ORDER + 1 entries: ints, Fractions and floats
# over the whole finite range, each followed by a run of exact or float zeros
_ENTRIES = st.one_of(st.integers(-10**6, 10**6), _rational(10**6, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False))
_LISTS = st.lists(st.tuples(_ENTRIES, st.integers(0, 12), st.sampled_from([0, 0.0, -0.0])),
                  min_size=1, max_size=MAX_ORDER + 1).map(
    lambda runs: [x for v, zeros, zero in runs for x in (v, *[zero] * zeros)][:MAX_ORDER + 1])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(values=_LISTS)
def test_derivative_lists_match_the_bell_columns_property(values):
    func, order = function_from_derivatives(values), len(values) - 1
    for exp in map(get_expansion, FAMILY_KEYS):
        if not order:
            with pytest.raises(ValueError, match="only up to order 0, order 1 requested"):
                assemble(exp, func, 1)
        else:
            assert tagged(assemble(exp, func, order)) == oracle_tagged(exp, func, order), exp.key


@pytest.fixture
def derivative_calls(monkeypatch):
    """Record each order a target is asked for through FunctionSpec.derivative."""
    calls = []

    def counted(self, n, _derivative=approx.FunctionSpec.derivative):
        calls.append(n)
        return _derivative(self, n)

    monkeypatch.setattr(approx.FunctionSpec, "derivative", counted)
    return calls


@pytest.mark.parametrize("spec", [*ODE_TARGETS, "exp@0.5", "ln1p@-0.3", "ln1p@1/2", "pow:0.5",
                                  "pow:2", "pow:2.0", "pow:0"])
def test_an_ode_target_is_asked_for_its_value_only(spec, derivative_calls):
    # float inputs too: the ODE states every other f^(k) and where it vanishes
    assemble(get_expansion("c6"), target(spec), MAX_ORDER)
    assert derivative_calls == [0]


def test_a_target_without_an_ode_is_asked_for_every_order(derivative_calls):
    # a derivative list, here of sin and sq; the builtins themselves are
    # asked for f(x0) alone
    for spec in ("sin", "sin@1/2", "sq@0.5"):
        func = as_list(target(spec), MAX_ORDER)
        derivative_calls.clear()
        assemble(get_expansion("a2"), func, MAX_ORDER)
        assert derivative_calls == list(range(MAX_ORDER + 1)), spec
        derivative_calls.clear()
        assemble(get_expansion("a2"), target(spec), MAX_ORDER)
        assert derivative_calls == [0], spec
        derivative_calls.clear()


def test_a_float_alpha_takes_the_recurrence(derivative_calls):
    # pow with a float alpha declares its ODE, and assemble runs it over
    # the exact binary value of alpha; the exactness tags read the ODE too
    exp = get_expansion("a2")
    model = assemble(exp, target("pow:0.5"), MAX_ORDER)
    assert derivative_calls == [0]
    assert model.coefficients[0].is_exact
    exact = [a for a, _ in bell_oracle(exp, target("pow:1/2")._listing(MAX_ORDER)[0], MAX_ORDER)]
    assert [float(c) for c in model.coefficients[1:]] == [float(a) for a in exact]
    assert not any(c.is_exact for c in model.coefficients[1:])


def _tags(model):
    return [c.is_exact for c in model.coefficients]


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_ode_targets_tag_as_the_kernel_does_at_every_center(key):
    # exp and ln1p take the recurrence at every x0, exact or float, and each
    # coefficient carries the tag the Bell columns give it over the same
    # derivatives.  Where those derivatives are the ODE's exact data (exp's
    # f(x0), ln1p at an exact x0, an exact alpha) the values agree too;
    # ln1p at a float x0 and a float alpha round their f^(k), which the
    # recurrence does not read.  pow at alpha = 2 (f^(k) = 0 from k = 3)
    # and 0 (from k = 1) tag by where the ODE's f^(k) vanish.
    exp = get_expansion(key)
    funcs = [builtin_function(name, x0=x0) for name in ("exp", "ln1p")
             for x0 in (0, 0.0, Fraction(1, 2), 0.5, -0.3)]
    pows = ("pow:1/5", "pow:-1/3", "pow:0.5", "pow:0.2", "pow:2", "pow:2.0", "pow:0")
    for func in [*funcs, *map(target, pows)]:
        fast = assemble(exp, func, MAX_ORDER)
        slow = oracle_tagged(exp, func, MAX_ORDER)
        if func.name == "exp" or func.derivative(1).is_exact:
            assert tagged(fast) == slow, (func, func.x0)
        else:
            assert _tags(fast) == [not s.startswith("ExactScalar(~") for s in slow], (func, func.x0)
            assert func.name == "pow:2.0" or not any(_tags(fast)[1:]), (func, func.x0)


def test_a_float_input_tags_every_coefficient_it_reaches():
    # ln1p at x0 = 1e200: f^(k) rounds to 0.0 for k >= 2, but f^(k + 1) =
    # -k rho f^(k) is not 0, so every coefficient is float-tagged (a_2 read
    # as an exact 0 on the kernel) and is the rounded exact model at the
    # binary value of x0
    func = builtin_function("ln1p", x0=1e200)
    assert float(func.derivative(2)) == 0.0
    exact = builtin_function("ln1p", x0=Fraction(1e200))
    for key in FAMILY_KEYS:
        model = assemble(get_expansion(key), func, 8)
        assert not any(_tags(model)), key
        want = assemble(get_expansion(key), exact, 8).coefficients
        assert [float(c) for c in model.coefficients] == [float(c) for c in want], key


# sha256 of the reprs of every coefficient of assemble(expansion, target, N),
# one repr a line, over the targets and then N in (20, MAX_ORDER); every one
# of these models has float coefficients.  Recorded when each float
# coefficient became the correctly rounded value of its exact rational
# (see tests/test_float_inputs.py); "pow:0.5" takes the recurrence over
# alpha = 1/2 since then.
_SHIFTED = ("exp@1/2", "ln1p@1/2", "pow:0.5")
FLOAT_MODEL_DIGESTS = [
    ("a1", {}, _SHIFTED, "8d814c08541587a65745c7dac38a6e78246c3aae8155afd2b1d63dcb421b5b7b"),
    ("a2", {}, _SHIFTED, "16ea6b7f6718524e6f6200081b5c7a03739a81361ddb6c5419a2fb9cc899027e"),
    ("a3", {}, _SHIFTED, "a1115e3c268a5ef3a5f44cf5933fe4c912236976d59acd04fa6efb82a63429a9"),
    ("a4", {}, _SHIFTED, "04194c4c8d841dc40c044fa209e5a723c8b277d2a7e43bd4a919ea42ccc9c067"),
    ("a5", {}, _SHIFTED, "b6b346ca024daffca6af9a6a75374a152b557f63165eec35524660f36d9cca67"),
    ("a6", {}, _SHIFTED, "a1c104ef467f50cff55bb771ea6aaabcd7fd3af1165ea180f0ef647a7ac03164"),
    ("a7", {}, _SHIFTED, "d2ef9df6863ae759ce00db994ad24977b1b9bd1e0c0faea9dd733d73c27b8ebc"),
    ("a8", {}, _SHIFTED, "0dc81acc7514897c3255a76b1009989d0050a0a8e69efbf4558d3b481d2cf6ae"),
    ("a9", {}, _SHIFTED, "8650e954eed900dddaac26f12bbb56294f669d7b9ef4cf65b508be94674c64d4"),
    ("a10", {}, _SHIFTED, "1083b287feae056e0074b0dcc28c181dd28bf3a2b41f293d4f0ce9de181de499"),
    ("a11", {}, _SHIFTED, "03d52ce18108483fa5c21ae09c6bf052558b04950beb95f0c9f2c73d6bfa697f"),
    ("a12", {}, _SHIFTED, "a29ecf353981c0747db881289ac36c0c29cb5cfb9c8195cc12c8c5ba8a635df7"),
    ("a13", {}, _SHIFTED, "53a4f9a99e4e6662a9caf23dba02b3676eeceea3c2da042ff0ddbdb4221fed89"),
    ("c1", {}, _SHIFTED, "1083b287feae056e0074b0dcc28c181dd28bf3a2b41f293d4f0ce9de181de499"),
    ("c2", {}, _SHIFTED, "68e6e169d0407fa45dd0a3699b65aaaa7a6275ec8551180305a050a6b409edd8"),
    ("c3", {}, _SHIFTED, "81fa553840bbea4b1e974ff267afd0ab9b21d79ad121c1b61704383fd7b29e47"),
    ("c4", {}, _SHIFTED, "3fe48dd6aa8dd1b764eb4b1cb5e5e8399ec68da2a98015a74e143e5561145122"),
    ("c5", {}, _SHIFTED, "9771a3ffa31f4e111ca3ce51aaa0240da99f83b1b42befa15a3397edffdad862"),
    ("c6", {}, _SHIFTED, "7246f7219608b0d01fa8a8875dca21f5b76075dd377727a1546fd6715b58ca50"),
    # float basis values: an irrational root of alpha, a float alpha
    ("a7", {"alpha": Fraction(31, 21)}, ("exp", "ln1p", "pow:1/5", "pow:0.5"),
     "eaf83197c546cbd987d5da08bb3f5e897ef192caadee55a682bde3bbee1ed7b6"),
    ("a5", {"alpha": 0.5}, ("exp", "ln1p", "pow:1/5", "pow:0.5"),
     "4c68d8090b2e922ac3e16984b857c40f7ad3ad018d67b7748dc55f368b7068ed"),
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


# Targets of the Bell kernel and float inputs: the exact builtins without an
# ODE, exact and float derivative lists (with finite support, and with
# exact zeros among floats), x0 != 0 (exp and ln1p take the recurrence),
# a float alpha for pow (the recurrence too), and a7 with an irrational
# root, whose e_j are floats.
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
# coefficient with "~".  The exact rows (sin-sq, rational-lists) were
# recorded from the code in which assemble decoded both of the kernel's
# number formats itself; the rows with a float input (polynomial-lists has
# a float list) when each float coefficient became the correctly rounded
# value of its exact rational.  exp and ln1p at x0 = 1/2 (x0-half,
# ratio-not-one) were recorded on the kernel and take the recurrence since
# their ODE is declared at every x0; the digests held.
KERNEL_ROUTE_DIGESTS = {
    "sin-sq":
        "2f46d7a18ab715cd89b44c6f8afac0b13c151ce7ddd0699b107515f7ac069474",
    "rational-lists":
        "50e81e0a2a765b5b195e114125396fb144cd253a76563e381e33be136fa127d5",
    "polynomial-lists":
        "eaa612f3bc183a896c8fdcc326f933258ec5bb4910e031fbd910a6022c48f777",
    "x0-half":
        "e3d15836d8cd50f8855080144e479fef745fd17095e301e57247a419f05bc928",
    "pow-float":
        "6e97ce3ffbc7f365394f7f4cf5ef94228dca7806c25fd5e8b9a07a271891b159",
    "float-list-with-zeros":
        "df60985a05ddc80cf174e8dddbba0dc08512f4f253375586a2f5ffd3ee586761",
    "a7-irrational-root":
        "5eac6d2b9814042c957d5a5a1d8f0a922e3dd2c547d33b1c76249edb1f215c58",
    "ratio-not-one":
        "4a219b7ad51acf91f8d2fbdf31c433b7400c55ef5f6e2ae7bf20f1ca5c5a2ac5",
}


def _kernel_cases(case):
    if case == "a7-irrational-root":  # e_j are floats
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


# The derivatives and models of the ODE builtins (exp, ln1p, pow) at exact
# and float centres and parameters, near ln1p's pole (x0 = -0.9999 and
# -0.999999, floats and an exact twin) and at extreme centres (exp at
# 700.0, ln1p at 1e200), with a float alpha of -0.0 and a subnormal one.
# sha256 of the reprs of derivative(k), k = 0 .. MAX_ORDER + 3, of every
# target, then of the coefficients at N = MAX_ORDER on a1, a7 and c6 of
# every target but ln1p at the two float centres by the pole (their f^(43)
# and f^(58) are beyond the float range; see tests/test_float_inputs.py).
_PIN_CENTERS = (0, 0.0, Fraction(1, 2), 0.5, -0.3, 2.0, -0.9999, -0.999999,
                Fraction(-999999, 10**6))
_PIN_ALPHAS = (Fraction(1, 5), Fraction(-1, 3), Fraction(3, 2), 2, 0, 0.2, 0.5, 2.0, -0.0,
               1e-320)
DERIVATIVE_PIN = "05865ac88d14d9e8b19dc33cfd1df45e2e3058d629f2f446fa6277b331f5fe2d"


def _derivative_pin_targets():
    for name in ("exp", "ln1p"):
        for x0 in _PIN_CENTERS:
            yield builtin_function(name, x0=x0)
    yield builtin_function("exp", x0=700.0)
    yield builtin_function("ln1p", x0=1e200)
    for alpha in _PIN_ALPHAS:
        yield builtin_function("pow", alpha=alpha)


def test_ode_builtin_derivatives_pinned():
    funcs = list(_derivative_pin_targets())
    lines = [repr(func.derivative(k)) for func in funcs for k in range(MAX_ORDER + 4)]
    built = [func for func in funcs
             if not (func.name == "ln1p" and func.x0 in (-0.9999, -0.999999))]
    lines += [repr(c) for key in ("a1", "a7", "c6") for func in built
              for c in assemble(get_expansion(key), func, MAX_ORDER).coefficients]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DERIVATIVE_PIN


# sha256 of the reprs of derivative(k), k = 0 .. MAX_ORDER, of sin and then
# sq at x0 = 0, 1/2 and 0.5, recorded from the derivative closures that
# 65-entry tables replaced; those tables now hold f(x0) and f'(x0) and the
# ODE states the rest.  CENTER_TABLE_PIN is the same over x0 = -0.0, 1e200
# (sq's f(x0) is ~inf there) and -7/3, recorded from the 65-entry tables.
TABLE_PIN = "aa2c5fef1fef8e4fb8f5ba5e8aa402c5c6a2a484833a0aa9adedb328f9453ce5"
CENTER_TABLE_PIN = "c4bfa959dd4299d6675a9cdefa5b56336a4d43e5bab95ffe8eb9fc780c2aaa2f"


def test_sin_and_sq_tables_pinned():
    for centers, digest in (((0, Fraction(1, 2), 0.5), TABLE_PIN),
                            ((-0.0, 1e200, Fraction(-7, 3)), CENTER_TABLE_PIN)):
        funcs = [builtin_function(name, x0=x0) for name in ("sin", "sq") for x0 in centers]
        lines = [repr(func.derivative(k)) for func in funcs for k in range(MAX_ORDER + 1)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, centers
        for func in funcs:  # no order cap: sin's cycle and sq's zeros go on
            assert len(func._table) == 2
            assert repr(func.derivative(MAX_ORDER + 4)) == repr(func.derivative(MAX_ORDER))
            assert repr(func.derivative(MAX_ORDER + 3)) == repr(func.derivative(MAX_ORDER - 1))


def test_derivative_tags_follow_their_inputs():
    # each f^(k) is float-tagged where a float input reaches it, per table
    # entry: sq at a float x0 keeps f'' = 2 and the zeros beyond it exact
    sq = builtin_function("sq", x0=0.5)
    assert [repr(sq.derivative(k)) for k in range(5)] == [
        "ExactScalar(~0.25)", "ExactScalar(~1.0)", "ExactScalar(2)", "ExactScalar(0)",
        "ExactScalar(0)"]
    # sq at -0.0 reads f'(x0) = ~-0.0 from its table, not rounded from 0
    assert repr(builtin_function("sq", x0=-0.0).derivative(1)) == "ExactScalar(~-0.0)"
    # ln1p's f(x0) is a float at an exact x0 != 0, but a = 0: no f^(k), k >= 1, reads it
    ln1p = builtin_function("ln1p", x0=Fraction(1, 2))
    assert not ln1p.derivative(0).is_exact
    assert all(ln1p.derivative(k).is_exact for k in range(1, MAX_ORDER + 2))
    # a float ODE coefficient (pow's alpha) tags every k >= 1, zeros included
    assert [repr(target("pow:2.0").derivative(k)) for k in (2, 3, MAX_ORDER + 1)] == [
        "ExactScalar(~2.0)", "ExactScalar(~0.0)", "ExactScalar(~0.0)"]
    # sin at a float x0: both table entries are floats, and every f^(k) reads one
    sin = builtin_function("sin", x0=0.5)
    assert not any(sin.derivative(k).is_exact for k in range(MAX_ORDER + 2))


def test_sq_beyond_the_float_range_builds():
    # f(x0) = x0**2 is ~inf for |x0| > 1.34e154; no term of the recurrence
    # reads it, so it enters only as a_0, as on the kernel over f^(1..N)
    func = builtin_function("sq", x0=1e200)
    assert repr(func.derivative(0)) == "ExactScalar(~inf)"
    twin = function_from_derivatives([0, *(func.derivative(k) for k in range(1, 9))])
    for key in FAMILY_KEYS:
        model = assemble(get_expansion(key), func, 8)
        assert repr(model.coefficients[0]) == "ExactScalar(~inf)"
        assert tagged(model)[1:] == tagged(assemble(get_expansion(key), twin, 8))[1:], key
    # 2 x0 beyond the float range is read by a model, and named; f'' = 2
    # and the zeros beyond it read neither f(x0) nor f'(x0)
    for x0 in (1e308, -1e308):
        func = builtin_function("sq", x0=x0)
        with pytest.raises(ValueError, match=r"derivative f\^\(1\) of 'sq' is not finite"):
            assemble(get_expansion("a1"), func, 8)
        assert [repr(func.derivative(k)) for k in range(1, 5)] == [
            f"ExactScalar(~{math.copysign(math.inf, x0)})", "ExactScalar(2)", "ExactScalar(0)",
            "ExactScalar(0)"]
