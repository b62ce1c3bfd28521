"""Properties of every family's float evaluators, under hypothesis.

Each property runs over the family's whole recorded domain or image (the
catalog's ``Interval``), not over a window that avoids its weak spots:

* the error contract: ``eval_g``, ``eval_ginv`` and ``invert_numeric``
  return a finite float or raise ``DomainError`` or ``ConvergenceError``
  for any float, nan and +-inf included, and ``evaluate`` returns a float
  that is not nan or raises one of the two;
* g is monotone on the domain, in the direction the catalog records;
* where ``eval_g`` and ``invert_numeric`` both answer, they agree, and
  ``invert_numeric`` does not give up (``ConvergenceError``) where
  ``eval_g`` answers;
* the round trip g(g^-1(y)) returns y where ``invert_numeric`` returns;
* the error contract of the other Python entry points: ``scalar`` on
  number text, ``get_expansion`` on drawn parameters, ``map_domain`` on
  drawn radii, ``error_report`` on drawn points, ``estimate_radius``
  on models of order 8 to 20 and ``assemble`` on drawn derivative lists,
  parameters and orders each return a value or raise ``DomainError``,
  ``ConvergenceError`` or ``ValueError``;
* ``evaluate`` takes the reference route, the Horner loop over
  ``eval_g(exp, x - x0)``, bit for bit, or raises what it raises, on every
  model kind at orders 1 to ``MAX_ORDER``;
* the compiled g of each implicit basis c1 .. c6 returns the float of the
  reference solver over the reference inverse basis (``oracles``) bit for
  bit, or raises its exception class and message, for any float.

Two values of g(x) agree when they differ by at most 1e-12 max(1, |y|)
plus 1e-12 max(1, |x|) / ginv'(y), which is how far g moves when x moves
by 1e-12 max(1, |x|).

A property that a family breaks today is a strict xfail naming the
``FOUND`` line of ``CHANGES.md`` that describes the defect.  It checks the
family's witnesses, points where the defect shows, before the drawn point,
so that it fails whatever examples hypothesis draws.
"""

import importlib.util
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries.approx import (ApproximationModel, PointReport, assemble, builtin_function,
                               error_report, estimate_radius, evaluate,
                               function_from_derivatives, taylor_baseline)
from funcseries.catalog import (ConvergenceError, DomainError, Expansion, Interval, eval_g,
                                eval_ginv, get_expansion, invert_numeric, map_domain)
from funcseries.exact import ExactScalar, scalar
from funcseries.implicit import _invert_monotone
from funcseries.pseries import FAMILY_KEYS, FAMILY_PARAMS, MAX_ORDER
import oracles
from test_approx import _BISECTION_POINTS, _loop_outcome, _outcome, _pinned_points

# derandomized: the same examples on every run, so tier-1 cannot flake
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

A7_END = ("CHANGES.md FOUND: catalog.invert_numeric(a7, x) raises ConvergenceError "
          "'inversion stalled' for about half the points between x = -1.99985 and -1.99999997")
IMAGE_END = ("CHANGES.md FOUND: catalog.invert_numeric gives up near an open image end "
             "(a2, a8, a9, a11)")
EXTREME = ("CHANGES.md FOUND: the float evaluators break their contract at extreme "
           "magnitudes")
HORNER = ("CHANGES.md FOUND: approx.evaluate overflows silently to inf in the Horner sum "
          "when |g(x)| is huge but finite")

# property -> {key: (witnesses, reason)}
KNOWN = {
    "contract": {
        "a7": ((1.3407807929942597e154,), EXTREME),  # eval_g: inf
        "a9": ((8.98846567431158e307,), EXTREME),  # eval_g: nan
    },
    "monotone": {
        "a6": (((0.0, 8.98846567431158e307),), EXTREME),  # g: nan
        "a9": (((-6.703903964971299e153, -1.0),), EXTREME),  # g: -0.0 below g(-1)
    },
    "answers": {
        "a1": ((1.7976931348622914e308,), EXTREME),
        "a2": ((29.0,), IMAGE_END),
        "a3": ((1.7976931348621926e308,), EXTREME),
        "a5": ((1.613906173804333e119,), EXTREME),
        "a6": ((8.069530869021672e118,), EXTREME),
        "a7": ((-1.99999, 1.3407807929942597e154), f"{A7_END}; {EXTREME}"),
        "a8": ((38611778.0,), IMAGE_END),
        "a9": ((5725.0,), IMAGE_END),
        "a11": ((30.0,), IMAGE_END),
    },
}


def families(prop):
    """(key, witnesses) for every family, a known defect as a strict xfail."""
    known = KNOWN.get(prop, {})
    return [
        pytest.param(key, known[key][0], id=key,
                     marks=pytest.mark.xfail(strict=True, reason=known[key][1]))
        if key in known else pytest.param(key, (), id=key)
        for key in FAMILY_KEYS
    ]


def points(interval):
    """Every finite float in `interval`, its closed ends included."""
    return st.floats(
        min_value=interval.lo if math.isfinite(interval.lo) else None,
        max_value=interval.hi if math.isfinite(interval.hi) else None,
        exclude_min=math.isfinite(interval.lo) and not interval.lo_closed,
        exclude_max=math.isfinite(interval.hi) and not interval.hi_closed,
        allow_nan=False, allow_infinity=False,
    )


def outcome(call, *args):
    """call(*args), or None where it raises DomainError or ConvergenceError."""
    try:
        return call(*args)
    except (DomainError, ConvergenceError):
        return None


def agree(exp, y1, y2, x):
    """Whether y1 and y2 agree as values of g(x) (see the module docstring)."""
    slope = abs(exp._ginv_d(y1)[1])  # ginv'(y) = 1 / g'(x)
    moved = 1e-12 * max(1.0, abs(x)) / slope if 0.0 < slope < math.inf else math.inf
    return abs(y1 - y2) <= 1e-12 * max(1.0, abs(y1)) + moved


def holds(check, exp, strategy, witnesses=()):
    """check(exp, v) at each witness, then at the points hypothesis draws.

    A failing witness fails the test before hypothesis runs, as a plain
    assertion.
    """
    for v in witnesses:
        check(exp, v)

    @SETTINGS
    @given(strategy)
    def drawn(v):
        check(exp, v)

    drawn()


def check_contract(exp, x):
    for call in (eval_g, eval_ginv, invert_numeric):
        try:
            value = call(exp, x)
        except (DomainError, ConvergenceError):
            continue
        assert type(value) is float and math.isfinite(value), (call.__name__, x, value)
    try:
        value = evaluate(assemble(exp, builtin_function("ln1p"), 8), x)
    except (DomainError, ConvergenceError):
        return
    # the Horner sum may overflow to +-inf: see test_horner_overflow
    assert type(value) is float and not math.isnan(value), (x, value)


def check_monotone(exp, pair):
    x1, x2 = sorted(pair)
    y1, y2 = outcome(eval_g, exp, x1), outcome(eval_g, exp, x2)
    if y1 is not None and y2 is not None:
        assert (y1 <= y2) if exp.increasing else (y1 >= y2), (x1, x2, y1, y2)


def check_agreement(exp, x):
    y1, y2 = outcome(eval_g, exp, x), outcome(invert_numeric, exp, x)
    if y1 is not None and y2 is not None:  # giving up is check_answers' property
        assert agree(exp, y1, y2, x), (x, y1, y2)


def check_answers(exp, x):
    if outcome(eval_g, exp, x) is not None:
        try:
            invert_numeric(exp, x)
        except DomainError:
            pass  # the documented refusal where ginv leaves the float range


def check_round_trip(exp, y):
    x = outcome(eval_ginv, exp, y)
    back = None if x is None else outcome(invert_numeric, exp, x)
    if back is not None:
        assert agree(exp, y, back, x), (y, x, back)


ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


@pytest.mark.parametrize("key,witnesses", families("contract"))
def test_error_contract(key, witnesses):
    holds(check_contract, get_expansion(key), ANY_FLOAT, witnesses)


@pytest.mark.parametrize("key,witnesses", families("monotone"))
def test_g_is_monotone_on_the_domain(key, witnesses):
    exp = get_expansion(key)
    pairs = st.lists(points(exp.domain), min_size=2, max_size=2)
    holds(check_monotone, exp, pairs, witnesses)


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_eval_g_agrees_with_invert_numeric(key):
    exp = get_expansion(key)
    holds(check_agreement, exp, points(exp.domain))


@pytest.mark.parametrize("key,witnesses", families("answers"))
def test_invert_numeric_answers_where_eval_g_does(key, witnesses):
    exp = get_expansion(key)
    holds(check_answers, exp, points(exp.domain), witnesses)


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_round_trip_through_invert_numeric(key):
    exp = get_expansion(key)
    holds(check_round_trip, exp, points(exp.image))


@pytest.mark.xfail(strict=True, reason=HORNER)
def test_horner_overflow():
    # u = g(-500) = -1.4e217 and every coefficient are finite
    model = assemble(get_expansion("a2"), builtin_function("ln1p"), 20)
    try:
        value = evaluate(model, -500.0)
    except DomainError:
        return
    assert math.isfinite(value)


# -- the error contract of the other Python entry points ------------------------
#
# Each call returns a value or raises one of CONTRACT; anything else escaping
# (TypeError, OverflowError, ZeroDivisionError, ...) fails the test.  The
# six properties below draw 1,080 examples in all (about 4 s on a 2-vCPU
# x86-64 virtual machine).

CONTRACT = (DomainError, ConvergenceError, ValueError)
ENTRY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def returned(call, *args):
    """call(*args), or None where it raises an error of the contract."""
    try:
        return call(*args)
    except CONTRACT:
        return None


# number text: ASCII, Arabic-Indic and fullwidth digits, signs (U+2212 is
# not one), fractions and decimals, exponents near the reader's +-10000
# bound and far beyond it, and surrounding spaces, non-ASCII ones included
_DIGITS = st.sampled_from("0123456789\u0660\u0661\u0669\uff10\uff11\uff19")
_EXPONENTS = st.one_of(st.integers(9990, 10010).map(str), st.integers(0, 10**30).map(str),
                       st.text(_DIGITS, min_size=1, max_size=6))
_NUMBER_TEXT = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t", "\u00a0", "\u3000"]),
    st.sampled_from(["", "-", "+", "\u2212"]),
    st.text(_DIGITS, min_size=1, max_size=4),
    st.sampled_from(["", ".5", "/3", "/0", ".", "/"]),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                     st.sampled_from(["", "-", "+"]), _EXPONENTS)),
    st.sampled_from(["", " ", "\n"]),
)


# and short strings over the characters of number text and some near them
_JUMBLE = st.text("0123456789eE+-./_ infa\u0660\uff10\u2212\u00a0", max_size=12)


@ENTRY
@given(st.one_of(_NUMBER_TEXT, _JUMBLE))
def test_scalar_reads_number_text_or_refuses_it(text):
    value = returned(scalar, text)
    assert value is None or (isinstance(value, ExactScalar) and value.is_exact), (text, value)


def test_scalar_reads_long_number_text_or_names_the_digit_limit():
    # CPython's int() reads at most 4300 digits, and Fraction reads the
    # integer and fractional parts through it
    for text, exact in (("1" * 4301, Fraction((10**4301 - 1) // 9)),
                        ("0." + "1" * 4301, Fraction((10**4301 - 1) // 9, 10**4301))):
        try:
            value = scalar(text)
        except ValueError as err:
            assert "digits" in str(err) and len(str(err)) < 200, str(err)[:80]
            continue
        assert value.as_fraction() == exact


# parameters: ints, Fractions (a denominator up to 10**400 among them) and
# floats, with 0, +-inf, nan, 10**400 and magnitudes that overflow a
# builder's float arithmetic (a10's exp(w - 1) beyond w = 710), or the
# default (None)
_PARAMS = st.one_of(
    st.none(), st.integers(-10**6, 10**6), st.sampled_from([10**400, -10**400, 711, 10**6]),
    st.fractions(max_denominator=10**6), st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e300, 5e-324]),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**400)),
)


@ENTRY
@given(st.sampled_from(sorted(FAMILY_PARAMS)), _PARAMS, _PARAMS, _PARAMS)
def test_get_expansion_builds_or_refuses(key, alpha, beta, w):
    names = FAMILY_PARAMS[key]
    params = {name: value for name, value in (("alpha", alpha), ("beta", beta), ("w", w))
              if name in names and value is not None}
    exp = returned(lambda: get_expansion(key, **params))
    assert exp is None or (isinstance(exp, Expansion) and exp.key == key), (key, params)


_RADII = st.one_of(st.floats(), st.integers(-10, 10**400), st.fractions(),
                   st.sampled_from([10**400, 5e-324, math.inf]))


@ENTRY
@given(st.sampled_from(FAMILY_KEYS), _RADII)
def test_map_domain_maps_or_refuses(key, radius):
    exp = get_expansion(key)
    m = returned(map_domain, exp, radius)
    if m is not None:
        assert isinstance(m, Interval), (key, radius, m)
        assert exp.domain.lo <= m.lo and m.hi <= exp.domain.hi, (key, radius, m)


_TARGETS = ("exp", "ln1p", "sin", "sq", "pow")


@lru_cache(maxsize=None)
def _model(key, name, order):
    f = builtin_function(name, **({"alpha": Fraction(1, 5)} if name == "pow" else {}))
    return taylor_baseline(f, order) if key == "tp" else assemble(get_expansion(key), f, order)


_POINTS = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.fractions())


@ENTRY
@given(st.sampled_from(FAMILY_KEYS + ("tp",)), st.sampled_from(_TARGETS),
       st.lists(_POINTS, max_size=4))
def test_error_report_reports_or_refuses(key, name, xs):
    report = returned(error_report, _model(key, name, 8), xs)
    if report is not None:
        assert len(report) == len(xs), (key, name, xs)
        assert all(isinstance(p, PointReport) and type(p.approx) is float for p in report)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="estimate_radius fits its line with numpy, the radius extra")
@ENTRY
@given(st.sampled_from(FAMILY_KEYS), st.sampled_from(_TARGETS), st.integers(8, 20))
def test_estimate_radius_estimates_or_refuses(key, name, order):
    r = returned(estimate_radius, _model(key, name, order))
    assert r is None or (type(r) is float and not math.isnan(r)), (key, name, order, r)


# assemble on drawn inputs: a family; a derivative list of ints, Fractions
# and finite floats (values beyond the float range among them), now and
# then with a nan or an infinity, which the list refuses, in a drawn
# place; from one entry longer than the order asks for to two short of it,
# at x0 = 0, 1/2 or 0.5; family parameters of bounded size, so that an
# order-64 build stays fast (a float parameter enters as its binary value,
# and a tiny one makes the build slow: see CHANGES.md), with 0, nan and
# inf among them; and orders from -1 to MAX_ORDER + 1.  A build returns a
# model of order + 1 coefficients or raises an error of the contract.
_LIST_VALUES = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(max_denominator=10**3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 10**400, -10**400, 5e-324, 1e308]),
)
_BUILD_PARAMS = st.one_of(
    st.none(), st.integers(-100, 100), st.fractions(-100, 100, max_denominator=100),
    st.floats(-100.0, 100.0).filter(lambda v: v == 0.0 or abs(v) >= 2.0 ** -20),
    st.sampled_from([0, 0.0, math.inf, math.nan]),
)
ASSEMBLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@ASSEMBLE
@given(st.sampled_from(FAMILY_KEYS), _BUILD_PARAMS, _BUILD_PARAMS, _BUILD_PARAMS,
       st.sampled_from((20, *range(1, MAX_ORDER + 1), -1, 0, MAX_ORDER + 1)),
       st.sampled_from((0, 0, 1, 1, -1, -2)),
       st.sampled_from((0, Fraction(1, 2), 0.5)), st.data())
def test_assemble_builds_or_refuses(key, alpha, beta, w, order, spare, x0, data):
    names = FAMILY_PARAMS.get(key, ())
    params = {name: value for name, value in (("alpha", alpha), ("beta", beta), ("w", w))
              if name in names and value is not None}
    size = max(1, order + 1 + spare)
    values = data.draw(st.lists(_LIST_VALUES, min_size=size, max_size=size))
    bad = data.draw(st.sampled_from((None,) * 12 + (math.nan, math.inf, -math.inf)))
    if bad is not None:
        values[data.draw(st.integers(0, size - 1))] = bad

    def build():
        f = function_from_derivatives(values, x0=x0)
        return assemble(get_expansion(key, **params), f, order)

    m = returned(build)
    assert m is None or (isinstance(m, ApproximationModel) and m.order == order
                         and len(m.coefficients) == order + 1), (key, params, order, values)


def test_c5_builds_where_its_slope_flips_beyond_the_scan():
    # found while drawing c5's parameters for the property above: at
    # w = -100 and beta = 0 the slope of c5's inverse basis changes sign at
    # y = -100 (ginv = 5001 there), between the scan's steps at 64 and 128;
    # a scan that stops short of it reads the image as reaching -inf and
    # refuses the domain (-272.87..., -inf) as "bad interval bounds"
    e = get_expansion("c5", w=-100, beta=0)
    assert e.image.lo == pytest.approx(-100.0) and e.domain.hi == pytest.approx(5001.0)
    # toward -inf the slope tends to lin + q y, which changes sign beyond
    # the step at 512: at y = -609 for alpha = -1/2, beta = 7/3 and at
    # y = -592 with alpha and beta swapped, exact or with the float -0.5
    for alpha, beta, y, x in ((Fraction(-1, 2), Fraction(7, 3), -609.0, 30906.25),
                              (-0.5, Fraction(7, 3), -609.0, 30906.25),
                              (Fraction(7, 3), Fraction(-1, 2), -592.0, 87623 / 3),
                              (Fraction(7, 3), -0.5, -592.0, 87623 / 3)):
        e = get_expansion("c5", alpha=alpha, w=-100, beta=beta)
        assert e.image.lo == pytest.approx(y) and e.domain.hi == pytest.approx(x), (alpha, beta)


# -- evaluate against the reference route ---------------------------------------
#
# A model's compiled evaluator inlines the domain's open interior, the basis
# and the Horner sum, and hands every other point to eval_g; both must read
# as the loop over eval_g does.  The points: signed zeros, subnormals, huge
# and non-finite floats, each finite domain end and k ulps or the closed
# ends' 1e-12 * max(1, |end|) of slack (give or take an ulp) on either side
# of it, ints up to 10**400 and Fractions.

EVAL = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _ln1p_model(key, order, x0):
    f = builtin_function("ln1p", x0=x0)
    return taylor_baseline(f, order) if key == "tp" else assemble(get_expansion(key), f, order)


def _near(end, side, slack, k):
    """end, or end plus `side` times its slack, moved k ulps."""
    x = end + side * 1e-12 * max(1.0, abs(end)) if slack else end
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                            math.inf, -math.inf, math.nan])
_OFFSETS = st.tuples(st.sampled_from([-1.0, 1.0]), st.booleans(), st.integers(-3, 3))
_EXACT = st.one_of(st.integers(-10**400, 10**400), st.integers(-10, 10), st.fractions(),
                   st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**400)))


@EVAL
@given(st.sampled_from(FAMILY_KEYS + ("tp",)), st.sampled_from((1, 8, 20, MAX_ORDER)),
       st.sampled_from((0, Fraction(1, 2))), st.data())
def test_evaluate_takes_the_reference_route(key, order, x0, data):
    m = _ln1p_model(key, order, x0)
    ends = [e for e in (m.expansion.domain.lo, m.expansion.domain.hi) if math.isfinite(e)]
    strategies = [_SPECIAL, _EXACT]
    if ends:
        strategies.append(st.builds(lambda end, off: float(x0) + _near(end, *off),
                                    st.sampled_from(ends), _OFFSETS))
    x = data.draw(st.one_of(strategies))
    assert _outcome(m, x, True) == _loop_outcome(m, x), (key, order, x0, x)


# -- the compiled implicit solvers ---------------------------------------------
#
# Each c1 .. c6 g against the Newton loop and the bisection walk as they
# stood before the package compiled one solver per basis, over the inverse
# bases as the closures they then called (oracles.implicit_inverse_basis),
# with the expansion's image, direction and d_1.  c1 and c5 also run at
# drawn parameters; the points are every float, +-inf, nan, +-1e300 and the
# points where c4 and c6 fall back to the walk among them.

SOLVER = settings(max_examples=400, deadline=None, derandomize=True, database=None)
IMPLICIT = ("c1", "c2", "c3", "c4", "c5", "c6")
_WALK_POINTS = sorted({x for xs in _BISECTION_POINTS.values() for x in xs})
_SOLVER_POINTS = st.one_of(
    st.floats(), st.floats(-3.0, 12.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]
                    + _WALK_POINTS),
)
_SOLVER_PARAMS = st.one_of(st.none(), st.fractions(-8, 8, max_denominator=64),
                           st.floats(-1e3, 1e3))


@lru_cache(maxsize=None)
def _solvers(key, params):
    """g of get_expansion(key, **params), and the reference solver over the
    reference inverse basis at the expansion's image, direction and d_1."""
    e = get_expansion(key, **dict(params))
    ginv, ginv_d = oracles.implicit_inverse_basis(key, **{n: float(v) for n, v in e.params})
    ctx = f"family {key!r} numeric inversion"
    return e._g, lambda x: oracles._invert_monotone(x, ginv, ginv_d, e.image, e.increasing,
                                                     e._d1, ctx)


def _solver_outcome(solve, x):
    try:
        return repr(solve(x))
    except Exception as err:  # by name: the reference raises its own ConvergenceError
        return type(err).__name__, str(err)


@SOLVER
@given(st.sampled_from(IMPLICIT), _SOLVER_PARAMS, _SOLVER_PARAMS, _SOLVER_PARAMS,
       _SOLVER_POINTS)
def test_compiled_solver_is_the_reference(key, alpha, beta, w, x):
    names = FAMILY_PARAMS.get(key, ())
    params = tuple((name, value) for name, value in (("alpha", alpha), ("beta", beta), ("w", w))
                   if name in names and value is not None)
    try:
        g, reference = _solvers(key, params)
    except ValueError:
        return  # parameters that the float evaluators refuse
    assert _solver_outcome(g, x) == _solver_outcome(reference, x), (key, params, x)


@pytest.mark.parametrize("key,params", [(key, ()) for key in IMPLICIT] + [
    ("c1", (("w", 2),)), ("c1", (("w", Fraction(1, 2)),)),
    ("c5", (("alpha", Fraction(1, 2)), ("w", 2), ("beta", 3))),
    ("c5", (("alpha", 2), ("w", Fraction(1, 2)), ("beta", -1))),
])
def test_compiled_solver_is_the_reference_at_pinned_points(key, params):
    # the evaluator pin's points, the walk's, and every domain and image end
    # with its neighbours
    e = get_expansion(key, **dict(params))
    xs = _pinned_points(key, e) + _WALK_POINTS + [5e-324, -5e-324]
    for end in (e.domain.lo, e.domain.hi, e.image.lo, e.image.hi):
        if math.isfinite(end):
            xs += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    g, reference = _solvers(key, params)
    for x in xs:
        assert _solver_outcome(g, x) == _solver_outcome(reference, x), (key, params, x)


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_call_slot_solver_is_the_reference(key):
    # invert_numeric's solver over the family's pair, at the evaluator pin's
    # points and, for a7, next to the closed image end where the walk tries
    # the end itself
    e = get_expansion(key)
    ctx = f"family {key!r} numeric inversion"
    xs = _pinned_points(key, e) + _WALK_POINTS
    if key == "a7":
        xs += [-1.9999999999999, -1.999999999998, -1.999999999, -2.0]
    for x in xs:
        if x != x or not e.domain.lo <= x <= e.domain.hi:
            continue  # invert_numeric admits only the domain
        got = _solver_outcome(
            lambda x: _invert_monotone(x, e._ginv_d, e.image, e.increasing, e._d1, ctx), x)
        want = _solver_outcome(lambda x: oracles._invert_monotone(
            x, lambda y: e._ginv_d(y)[0], e._ginv_d, e.image, e.increasing, e._d1, ctx), x)
        assert got == want, (key, x)
