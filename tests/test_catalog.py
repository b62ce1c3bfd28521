"""Tests for the expansion catalog: domains, evaluators, inversion, Lambert W."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from funcseries.approx import assemble, builtin_function, error_report, evaluate, taylor_baseline
from funcseries import catalog, implicit
from funcseries.bell import bell_values, derivative_sequence
from funcseries.cli import main
from funcseries.catalog import (
    ConvergenceError,
    DomainError,
    Expansion,
    Interval,
    PARAM_DEFAULTS,
    _admit,
    eval_g,
    eval_ginv,
    get_expansion,
    invert_numeric,
    lambert_w0,
    map_domain,
)
from funcseries.implicit import _bisect_monotone, _invert_monotone
from funcseries.pseries import FAMILY_KEYS, family_series
from oracles import poly_eval_float

# the builders of every family: the explicit ones in the catalog, c1 .. c6
# in funcseries.implicit
_BUILDERS = {**catalog._BUILDERS, **implicit._BUILDERS}


def grid(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def pair_value(e):
    """The inverse basis alone: the value of the expansion's pair."""
    return lambda y: e._ginv_d(y)[0]


def inside(interval, x):
    """Whether x lies in `interval`, counting its closed ends; nan lies in none."""
    above = x >= interval.lo if interval.lo_closed else x > interval.lo
    below = x <= interval.hi if interval.hi_closed else x < interval.hi
    return above and below


# Sampling windows comfortably inside each family's validity domain (x) and
# image (y).  a11 saturates in double precision for x beyond about 30 (g
# rounds to exactly 1.0, the open image endpoint), so its window stays small.
X_WINDOWS = {
    "a1": (-0.99, 8.0),
    "a2": (-8.0, 8.0),
    "a3": (-8.0, 8.0),
    "a4": (-0.999, 0.999),
    "a5": (-0.999, 8.0),
    "a6": (-0.499, 8.0),
    "a7": (-1.99, 8.0),
    "a8": (-0.99, 8.0),
    "a9": (-8.0, 8.0),
    "a10": (-0.3678, 8.0),
    "a11": (0.0, 5.0),
    "a12": (-0.99, 0.0),
    "a13": (-1.57, 1.57),
    "c1": (-0.3678, 8.0),
    "c2": (-1.86, 8.0),
    "c3": (-0.499, 8.0),
    "c4": (-0.166, 8.0),
    "c5": (-8.0, 8.0),
    "c6": (0.0, 1.467),
}

Y_WINDOWS = {
    "a1": (-5.0, 5.0),
    "a2": (-5.0, 0.999),
    "a3": (-5.0, 5.0),
    "a4": (-1.57, 1.57),
    "a5": (-0.999, 5.0),
    "a6": (-0.999, 5.0),
    "a7": (-1.33, 5.0),
    "a8": (-5.0, 0.999),
    "a9": (-0.999, 0.999),
    "a10": (-0.999, 5.0),
    "a11": (0.0, 0.99),
    "a12": (-5.0, 0.0),
    "a13": (-0.999, 0.999),
    "c1": (-0.99, 5.0),
    "c2": (-5.0, 1.27),
    "c3": (-5.0, 5.0),
    "c4": (-5.0, 5.0),
    "c5": (-5.0, 5.0),
    "c6": (-1.99, 0.0),
}


class TestInterval:
    # _admit is the one domain step of every evaluator
    def test_contains_open_closed(self):
        i = Interval(-1.0, 2.0, lo_closed=False, hi_closed=True)
        assert _admit(i, 0.0) == 0.0
        assert _admit(i, 2.0) == 2.0
        assert _admit(i, -1.0) is None
        assert _admit(i, 2.5) is None
        assert _admit(i, math.nan) is None

    def test_slack_only_at_closed_ends(self):
        i = Interval(-1.0, 2.0, lo_closed=False, hi_closed=True)
        assert _admit(i, 2.0 + 1e-13) == 2.0
        assert _admit(i, -1.0 - 1e-13) is None
        assert _admit(i, -1.0) is None

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(-math.inf, 1.0, lo_closed=True)

    def test_str_brackets(self):
        assert str(Interval(0.0, 1.0, lo_closed=True)) == "[0.0, 1.0)"


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-15)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-14)
        assert lambert_w0(-1 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_residual_contract(self):
        lo = -1 / math.e + 1e-10
        shifted = [math.exp(v) for v in grid(math.log(lo + 1 / math.e), math.log(1e6 + 1 / math.e), 60)]
        for s in shifted:
            x = s - 1 / math.e
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x)), x

    def test_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w0(-1 / math.e - 1e-9)
        with pytest.raises(DomainError):
            lambert_w0(math.nan)

    def test_clamp_just_below_branch_point(self):
        # a few ulps below -1/e is treated as the branch point itself
        x = -1 / math.e - 2e-17
        assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-7)

    def test_large_argument(self):
        w = lambert_w0(1e6)
        assert abs(w * math.exp(w) - 1e6) <= 1e-14 * 1e6

    @pytest.mark.parametrize("x", [10**309, Fraction(10**400)])
    def test_beyond_the_float_range(self, x):
        # an int or Fraction too large for a float reads as +-inf, as at eval_g
        with pytest.raises(ConvergenceError):
            lambert_w0(x)
        with pytest.raises(DomainError):
            lambert_w0(-x)


class TestGetExpansion:
    def test_defaults_applied(self):
        e = get_expansion("a5")
        assert e.param_dict()["alpha"] == Fraction(2)
        e7 = get_expansion("a7")
        assert e7.param_dict() == {"alpha": Fraction(4), "beta": Fraction(3)}

    def test_explicit_params_recorded(self):
        e = get_expansion("a5", alpha=Fraction(1, 2))
        assert e.params == (("alpha", Fraction(1, 2)),)

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            get_expansion("a99")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            get_expansion("a5", alpha=0)
        with pytest.raises(ValueError):
            get_expansion("a7", alpha=-2)
        with pytest.raises(ValueError):
            get_expansion("a7", alpha=4, beta=0)
        with pytest.raises(ValueError):
            get_expansion("a1", alpha=1)
        with pytest.raises(ValueError):
            get_expansion("c5", w=0)
        with pytest.raises(ValueError, match="'1/0'"):
            get_expansion("a5", alpha="1/0")

    @pytest.mark.parametrize("key, params", [
        ("a7", {"alpha": 4, "beta": Fraction(10**400)}),
        ("a5", {"alpha": Fraction(10**400)}),
        ("c1", {"w": Fraction(-(10**400))}),
        ("c5", {"alpha": Fraction(10**400), "w": 1, "beta": 1}),
        ("a5", {"alpha": Fraction(1, 10**400)}),
        ("a7", {"alpha": 4, "beta": Fraction(-1, 10**400)}),
        ("a7", {"alpha": Fraction(1, 10**400), "beta": 3}),
        ("c5", {"alpha": 1, "w": Fraction(1, 10**400), "beta": 1}),
        ("a10", {"w": 1000}),
        # finite parameters whose slope d_1 = beta / (2 sqrt(alpha)) leaves the float range
        ("a7", {"alpha": Fraction(1, 10**300), "beta": Fraction(10**300)}),
        ("a7", {"alpha": Fraction(10**300), "beta": Fraction(1, 10**300)}),
    ])
    def test_parameters_the_float_evaluators_cannot_use(self, key, params):
        with pytest.raises(ValueError, match=f"family '{key}' (parameter|slope)"):
            get_expansion(key, **params)
        # the exact paths take them as they are
        assert len(bell_values(key, 3, **params)) == 4

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--expansion", "a7", "--alpha", "1e300", "--beta", "1/10000000000",
         "--function", "exp"],
        ["coeffs", "--expansion", "a6", "--w", "1e200", "--function", "exp"],
    ])
    def test_end_beyond_the_float_range_names_the_family(self, argv, capsys):
        # finite parameters whose image end -alpha/beta or domain end -w^2/2
        # overflows to -inf, which a closed end cannot be
        key = argv[2]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: family '{key}' parameters put a domain or image "
                                "end beyond the float range\n")

    def test_non_finite_float_parameters(self):
        for key, params in (("a6", {"w": math.inf}), ("c5", {"beta": math.nan}),
                            ("a5", {"alpha": -math.inf})):
            with pytest.raises(ValueError, match="has no finite float value"):
                get_expansion(key, **params)

    def test_tiny_parameter_that_may_be_zero_is_kept(self):
        # c5's alpha and beta may be 0, so one that rounds to 0.0 is usable
        assert get_expansion("c5", alpha=Fraction(1, 10**400)).params[0][1] != 0

    def test_positive_w_required_where_shape_needs_it(self):
        # negative w flips these bases into shapes with no inverse at 0
        with pytest.raises(ValueError):
            get_expansion("a6", w=-1)
        with pytest.raises(ValueError):
            get_expansion("a10", w=-1)

    def test_expansion_is_frozen(self):
        e = get_expansion("a1")
        with pytest.raises(AttributeError):
            e.key = "a2"

    def test_labels_and_sides(self):
        for key in FAMILY_KEYS:
            e = get_expansion(key)
            assert e.key == key
            assert e.label
            assert e.side in ("both", "left_of_zero", "right_of_zero")

    def test_delegated_tables(self):
        assert [d.as_fraction() for d in derivative_sequence("a5", 3, alpha=2)] == [2, 2, 0]
        assert bell_values("a5", 3, alpha=2)[3][2] == 12
        assert [c.as_fraction() for c in family_series("a5", 4, alpha=2).coeffs] == [0, 2, 1, 0, 0]


# (lo, hi, lo_closed, hi_closed) per family; None marks endpoints checked
# only approximately (numerically scanned boundaries).
DOMAIN_TABLE = {
    "a1": (-1.0, math.inf, False, False),
    "a2": (-math.inf, math.inf, False, False),
    "a3": (-math.inf, math.inf, False, False),
    "a4": (-1.0, 1.0, True, True),
    "a5": (-1.0, math.inf, True, False),
    "a6": (-0.5, math.inf, True, False),
    "a7": (-2.0, math.inf, True, False),
    "a8": (-1.0, math.inf, False, False),
    "a9": (-math.inf, math.inf, False, False),
    "a10": (-1 / math.e, math.inf, True, False),
    "a11": (0.0, math.inf, True, False),
    "a12": (-1.0, 0.0, False, True),
    "a13": (-math.pi / 2, math.pi / 2, True, True),
    "c1": (-1 / math.e, math.inf, False, False),
    "c2": (None, math.inf, False, False),
    "c3": (-0.5, math.inf, False, False),
    "c4": (-1 / 6, math.inf, False, False),
    "c5": (-math.inf, math.inf, False, False),
    "c6": (0.0, math.pi**2 / 4 - 1, True, True),
}


class TestDomains:
    @pytest.mark.parametrize("key", sorted(DOMAIN_TABLE))
    def test_validity_interval(self, key):
        lo, hi, lo_closed, hi_closed = DOMAIN_TABLE[key]
        e = get_expansion(key)
        if lo is not None:
            assert e.domain.lo == pytest.approx(lo, rel=1e-9, abs=1e-12)
        assert e.domain.hi == pytest.approx(hi, rel=1e-9) if math.isfinite(hi) else e.domain.hi == hi
        assert e.domain.lo_closed == lo_closed
        assert e.domain.hi_closed == hi_closed

    def test_scanned_boundary_c2(self):
        # c2's basis turns around at the soft boundary; check it is a
        # stationary point of the inverse basis rather than a fixed constant
        e = get_expansion("c2")
        assert -1.88 < e.domain.lo < -1.86

    def test_monotonicity_flags(self):
        decreasing = {"c2", "c6"}
        for key in FAMILY_KEYS:
            e = get_expansion(key)
            assert e.increasing == (key not in decreasing), key

    def test_one_sided_families(self):
        assert get_expansion("a11").side == "right_of_zero"
        assert get_expansion("c6").side == "right_of_zero"
        assert get_expansion("a12").side == "left_of_zero"

    def test_image_contains_zero_boundary(self):
        for key in FAMILY_KEYS:
            e = get_expansion(key)
            assert inside(e.image, 0.0) or e.image.lo == 0.0 or e.image.hi == 0.0


# Closed-form values of g for families where the inverse is elementary.
G_KNOWN_VALUES = [
    ("a1", {}, 4.0, math.log(5.0)),
    ("a2", {}, 1.0, 1 - math.exp(-1.0)),
    ("a3", {}, 2.0, math.asinh(2.0)),
    ("a4", {}, 0.5, math.pi / 6),
    ("a5", {"alpha": 2}, 3.0, 1.0),
    ("a5", {"alpha": Fraction(1, 2)}, 3.0, 15.0),
    ("a6", {"w": 1}, 4.0, 2.0),
    ("a7", {}, 1.0, 5.0 / 3.0),
    ("a8", {}, 3.0, 0.5),
    ("a9", {}, 1.0, (math.sqrt(5.0) - 1) / 2),
    ("a10", {"w": 1}, math.e, 1.0),
    ("a13", {}, math.pi / 6, 0.5),
]


class TestEvaluators:
    def test_g_fixes_zero(self):
        for key in FAMILY_KEYS:
            e = get_expansion(key)
            assert eval_g(e, 0.0) == 0.0, key
            assert eval_ginv(e, 0.0) == 0.0, key

    @pytest.mark.parametrize("key,params,x,expected", G_KNOWN_VALUES)
    def test_g_known_values(self, key, params, x, expected):
        e = get_expansion(key, **params)
        assert eval_g(e, x) == pytest.approx(expected, rel=1e-14)

    def test_ginv_known_values(self):
        assert eval_ginv(get_expansion("a11"), 0.5) == pytest.approx(
            2 * math.log(2.0) - 1, rel=1e-15
        )
        assert eval_ginv(get_expansion("a12"), -1.0) == pytest.approx(
            -1 / math.e, rel=1e-15
        )
        assert eval_ginv(get_expansion("c2"), 1.0) == pytest.approx(
            1 - math.e, rel=1e-15
        )

    def test_domain_errors(self):
        cases = [("a1", -1.0), ("a1", -2.0), ("a13", 2.0), ("a11", -0.5), ("a12", 0.5)]
        for key, x in cases:
            with pytest.raises(DomainError):
                eval_g(get_expansion(key), x)

    def test_image_errors(self):
        with pytest.raises(DomainError):
            eval_ginv(get_expansion("a9"), 1.5)
        with pytest.raises(DomainError):
            eval_ginv(get_expansion("a2"), 1.0)

    def test_closed_end_slack_clips(self):
        e = get_expansion("a13")
        assert eval_g(e, math.pi / 2 + 1e-13) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            eval_g(e, math.pi / 2 + 1e-9)

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_nan_rejected(self, key):
        # NaN fails both `x < lo` and `x > hi`, so a closed-closed domain
        # (a4, a13, c6) needs its own check as much as an open one.
        e = get_expansion(key)
        for evaluator in (eval_g, eval_ginv, invert_numeric):
            with pytest.raises(DomainError):
                evaluator(e, math.nan)

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_infinities_rejected(self, key):
        # The closed-end slack 1e-12 * |x| is infinite at +-inf; an infinite
        # x must not be clipped onto a closed end (a4, a13 and c6 have two).
        e = get_expansion(key)
        for evaluator in (eval_g, eval_ginv, invert_numeric):
            for x in (math.inf, -math.inf):
                with pytest.raises(DomainError):
                    evaluator(e, x)
        for interval in (e.domain, e.image):
            assert _admit(interval, math.inf) is None
            assert _admit(interval, -math.inf) is None

    @pytest.mark.parametrize("key", FAMILY_KEYS + ("tp",))
    def test_values_beyond_the_float_range_read_as_infinities(self, key):
        # an int or Fraction whose float overflows is +-inf, outside every
        # interval: DomainError, no reference, a nan row with its note
        func = builtin_function("exp")
        model = taylor_baseline(func, 4) if key == "tp" else assemble(get_expansion(key), func, 4)
        e = model.expansion
        for x in (10**400, -10**400, Fraction(10**401, 3), Fraction(-10**401, 3)):
            inf = math.inf if x > 0 else -math.inf
            for evaluator in (eval_g, eval_ginv, invert_numeric, evaluate):
                with pytest.raises(DomainError, match=f"=({inf!r}) outside"):
                    evaluator(model if evaluator is evaluate else e, x)
            assert func.value_at(x) is None
            [row] = error_report(model, [x])
            assert row.x == inf and math.isnan(row.approx) and math.isnan(row.exact)
            assert row.note == error_report(model, [inf])[0].note != ""
        assert map_domain(e, 10**400) == map_domain(e, math.inf)

    def test_infinite_target_points_have_no_reference(self):
        for func in (builtin_function(name) for name in ("exp", "sin", "sq", "ln1p")):
            assert func.value_at(math.inf) is None and func.value_at(-math.inf) is None
        for alpha in (Fraction(1, 2), 0, -3):
            func = builtin_function("pow", alpha=alpha)
            assert func.value_at(math.inf) is None and func.value_at(-math.inf) is None
        assert builtin_function("pow", alpha=Fraction(1, 2)).value_at(-1.0) == 0.0

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_slack_only_at_closed_ends(self, key):
        # A closed end admits 1e-13 of float fuzz beyond it and clips onto
        # the end; 1e-9 beyond it, or at or beyond an open end, is outside.
        e = get_expansion(key)
        for evaluator, interval in ((eval_g, e.domain), (eval_ginv, e.image),
                                    (invert_numeric, e.domain)):
            for end, outward, closed in (
                (interval.lo, -1.0, interval.lo_closed), (interval.hi, 1.0, interval.hi_closed)
            ):
                if not math.isfinite(end):
                    continue
                if not closed:
                    outside = (0.0, 1e-13, 1e-9)
                else:
                    outside = (1e-9,)
                    assert evaluator(e, end + outward * 1e-13) == evaluator(e, end)
                for beyond in outside:
                    with pytest.raises(DomainError):
                        evaluator(e, end + outward * beyond)

    @pytest.mark.parametrize("key", ["a1", "a3", "a10", "c1", "c3", "c4", "c5"])
    def test_ginv_overflow_becomes_domain_error(self, key):
        # the inverse basis passes the float range where exp(y) does
        e = get_expansion(key)
        assert math.isfinite(eval_ginv(e, 700.0))
        for y in (757.8, 800.0, 1e300):
            with pytest.raises(DomainError, match="overflows"):
                eval_ginv(e, y)

    @pytest.mark.parametrize("key,y", [
        ("a6", 1.8961503816218355e154),  # 0.5 y y overflows to inf
        ("a8", -1.3407807929942597e154),  # -inf / inf
        ("c3", -1.3407807929942597e154),  # -inf / inf
    ])
    def test_non_finite_ginv_becomes_domain_error(self, key, y):
        # no OverflowError is raised, but the value is not finite
        e = get_expansion(key)
        assert not math.isfinite(pair_value(e)(y))
        with pytest.raises(DomainError, match="overflows"):
            eval_ginv(e, y)

    def test_overflow_becomes_domain_error(self):
        # -expm1(-x) leaves the float range below x = -709.78
        e = get_expansion("a2")
        assert eval_g(e, -709.0) == pytest.approx(-math.expm1(709.0), rel=1e-15)
        for x in (-710.0, -1000.0, -1e300):
            with pytest.raises(DomainError, match="overflows"):
                eval_g(e, x)


class TestRoundTrips:
    @pytest.mark.parametrize("key", sorted(X_WINDOWS))
    def test_x_direction(self, key):
        e = get_expansion(key)
        lo, hi = X_WINDOWS[key]
        for x in grid(lo, hi, 41):
            y = eval_g(e, x)
            back = eval_ginv(e, y)
            assert abs(back - x) <= 1e-12 * max(1.0, abs(x)), (key, x)

    @pytest.mark.parametrize("key", sorted(Y_WINDOWS))
    def test_y_direction(self, key):
        e = get_expansion(key)
        lo, hi = Y_WINDOWS[key]
        for y in grid(lo, hi, 41):
            x = eval_ginv(e, y)
            forward = eval_g(e, x)
            assert abs(forward - y) <= 1e-12 * max(1.0, abs(y)), (key, y)

    @pytest.mark.parametrize("key", ["c1", "c2", "c3", "c4", "c5", "c6"])
    def test_newton_inversion_hundred_points(self, key):
        # the solver-backed families, exercised at the contract tolerance
        e = get_expansion(key)
        lo, hi = X_WINDOWS[key]
        rng = random.Random(hash(key) & 0xFFFF)
        for _ in range(100):
            x = rng.uniform(lo, hi)
            y = eval_g(e, x)
            assert abs(eval_ginv(e, y) - x) <= 1e-12 * max(1.0, abs(x)), (key, x)

    def test_nondefault_parameter_round_trip(self):
        for key, params in [
            ("a5", {"alpha": Fraction(-1)}),
            ("a7", {"alpha": Fraction(1, 2), "beta": 1}),
            ("a10", {"w": 3}),
            ("c1", {"w": 2}),
            ("c5", {"alpha": 2, "w": 1, "beta": 3}),
        ]:
            e = get_expansion(key, **params)
            xs = [x for x in grid(-0.4, 3.0, 15) if inside(e.domain, x)]
            assert len(xs) >= 8
            for x in xs:
                y = eval_g(e, x)
                assert abs(eval_ginv(e, y) - x) <= 1e-12 * max(1.0, abs(x)), (key, x)


class TestSeriesBranchAgreement:
    @pytest.mark.parametrize("key", sorted(X_WINDOWS))
    def test_small_y_matches_series(self, key):
        # direct evaluation of the inverse basis against its own Maclaurin
        # coefficients summed by Horner, on |y| <= 0.1
        e = get_expansion(key)
        s = family_series(key, 40, **{n: v for n, v in e.params})
        ys = [y for y in grid(-0.1, 0.1, 21) if inside(e.image, y)]
        if e.image.lo == 0.0 and e.image.lo_closed:
            ys.append(0.0)
        assert ys
        for y in ys:
            direct = eval_ginv(e, y)
            summed = poly_eval_float(s.coeffs, y)
            assert abs(direct - summed) <= 1e-12 * max(1.0, abs(direct)), (key, y)


class TestInvertNumeric:
    def test_matches_closed_g(self):
        # generic Newton inversion of the inverse basis against the closed
        # form of g, including the Lambert-backed family
        for key in ("a1", "a8", "a10", "a13"):
            e = get_expansion(key)
            lo, hi = X_WINDOWS[key]
            for x in grid(lo, hi, 17):
                closed = eval_g(e, x)
                numeric = invert_numeric(e, x)
                assert abs(closed - numeric) <= 1e-12 * max(1.0, abs(closed)), (key, x)

    def test_a7_closed_end(self):
        # one ulp inside the image end the residual is still 3e-8, so the
        # bracket walk has to try the end itself
        e = get_expansion("a7")
        assert invert_numeric(e, -2.0) == eval_g(e, -2.0) == e.image.lo

    @pytest.mark.parametrize("x", [-1.9999999999999, -1.999999999998, -1.999999999])
    def test_a7_next_to_closed_end(self, x):
        # g'(-2) = 0: the walk stalls between the last float it tried and
        # the end, f changes sign there, and no float meets the tolerance;
        # the end has the smaller residual and is g(x) correctly rounded
        e = get_expansion("a7")
        y = invert_numeric(e, x)
        assert y == eval_g(e, x) == e.image.lo
        step = math.nextafter(y, 0.0)
        assert abs(pair_value(e)(y) - x) < abs(pair_value(e)(step) - x)

    @pytest.mark.parametrize("closed", [False, True])
    def test_walk_stall_without_a_root_at_the_end_still_raises(self, closed):
        # an open end offers no candidate, and a closed end where f keeps
        # its sign has no root beside it: both keep the error
        image = Interval(-math.inf, 1.0, hi_closed=closed)
        with pytest.raises(ConvergenceError, match="could not bracket"):
            _bisect_monotone(2.0, lambda y: y, image, True, 2e-14, "identity")

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            invert_numeric(get_expansion("a1"), -3.0)

    @pytest.mark.parametrize("key,x", [
        ("a2", 40.0), ("a2", 50.0), ("a2", 1e6), ("a11", 1e6),  # math domain error
        ("a8", 1e300), ("a9", -1e300),  # float division by zero
    ])
    def test_math_errors_become_domain_errors(self, key, x):
        e = get_expansion(key)
        eval_g(e, x)  # the closed form still answers there
        with pytest.raises(DomainError, match="numeric inversion"):
            invert_numeric(e, x)


# -- the value-and-slope pair ---------------------------------------------------

_PAIR_THRESHOLDS = (1e-3, 0.0625, 0.25, 0.5)  # the series-branch switches
_EXP_LIMIT = 709.782712893384  # the largest y with a finite exp(y) and expm1(y)
_SINH_LIMIT = 710.4758600739439  # the largest y with a finite sinh(y) and cosh(y)
_FLIP_SCAN = tuple(0.125 * k for k in range(1, 129)) + (32.0, 64.0)  # implicit._find_flip


def _nextafter(y, toward, count):
    out = []
    for _ in range(count):
        y = math.nextafter(y, toward)
        out.append(y)
    return out


def _pair_grid(e):
    """The y values on which the pair is pinned: inside the image, its closed
    ends, within 1e-13 of each finite end, both sides of every series
    threshold, where exp and sinh overflow, and (c1 .. c5) every scan point."""
    img = e.image
    mags = [1e-300, 1e-12, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.7, 0.9, 0.99, 1.0, 1.5,
            2.0, 3.0, 5.0, 8.0, 13.0, 30.0, 100.0, 700.0, 1e3, 1e4, 1e5]
    for t in _PAIR_THRESHOLDS + (_EXP_LIMIT, _SINH_LIMIT):
        mags += [t] + _nextafter(t, 0.0, 2) + _nextafter(t, math.inf, 2)
    ys = [0.0] + [sign * m for m in mags for sign in (1.0, -1.0)]
    if math.isfinite(img.lo) and math.isfinite(img.hi):
        ys += [img.lo + (img.hi - img.lo) * k / 32 for k in range(1, 32)]
    for end, inward in ((img.lo, math.inf), (img.hi, -math.inf)):
        if math.isfinite(end):
            step = math.copysign(1.0, inward)
            ys += [end] + [end + step * d for d in (1e-14, 3e-14, 1e-13)]
            ys += _nextafter(end, inward, 3)
    ys = [y for y in ys if inside(img, y)]
    if e.key in ("c1", "c2", "c3", "c4", "c5"):
        ys += [sign * m for m in _FLIP_SCAN for sign in (1.0, -1.0)]
    return sorted(set(ys))


def _outcome(call, y):
    try:
        return call(y)
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__


def _pair_lines():
    lines = []
    for key in FAMILY_KEYS:
        e = get_expansion(key)
        for y in _pair_grid(e):
            if key == "a7" and y == e.image.lo:
                continue  # the old derivative raised here; see test_a7_slope_at_closed_end
            out = _outcome(e._ginv_d, y)
            text = out if isinstance(out, str) else f"{out[0]!r} {out[1]!r}"
            lines.append(f"{key} {y!r} {text}")
    return lines


# sha256 over _pair_lines(), recorded from ginv and the separate derivative
# evaluator that the pair replaced; where ginv raised, a line holds only
# the error's class
PAIR_PIN = "86065f17c8d4fdb1f1234f84808c8df717be49f02b2a53c5f160ed252794a305"


class TestValueSlopePair:
    def test_pair_pinned(self):
        lines = _pair_lines()
        assert len(lines) > 1500
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PAIR_PIN

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_value_is_ginv_and_raises_only_where_ginv_raises(self, key):
        # only an implicit basis (c1 .. c6) keeps a value-only ginv, for its
        # bisection walk; an explicit one states its inverse once, as the pair
        e = get_expansion(key)
        pieces = _BUILDERS[key](e.param_dict())
        assert ("ginv" in pieces) == e.implicit
        if not e.implicit:
            return
        ginv = pieces["ginv"]
        img = e.image
        ys = _pair_grid(e) + [math.inf, -math.inf, math.nan]
        ys += [sign * t for t in _ulps(_EXP_LIMIT, 3) for sign in (1.0, -1.0)]
        ys += [sign * m for m in (1e77, 1.4e77, 1e90, 1e103, 1e155, 1e200, 1e300)
               for sign in (1.0, -1.0)]
        ys += [end + d for end in (img.lo, img.hi) if math.isfinite(end)
               for d in (-1.0, -1e-9, 1e-9, 1.0)]
        for y in ys:
            want = _outcome(ginv, y)
            got = _outcome(e._ginv_d, y)
            if not isinstance(got, str):
                got = got[0]
            assert repr(got) == repr(want), (key, y)

    def test_a7_slope_at_closed_end(self):
        # ginv' = beta / (2 sqrt(alpha + beta y)) is infinite at the image end
        for params in ({}, {"alpha": Fraction(9, 4), "beta": -2}):
            e = get_expansion("a7", **params)
            beta = float(e.param_dict()["beta"])
            end = e.image.lo if beta > 0 else e.image.hi
            value, slope = e._ginv_d(end)
            assert value == e.domain.lo
            assert slope == math.copysign(math.inf, beta)
            beyond = end - math.copysign(1e-9, beta)
            assert e._ginv_d(beyond)[1] == math.copysign(math.inf, beta)

    def test_newton_makes_one_pair_call_per_step(self):
        e = get_expansion("c4")
        calls = []

        def counted(y):
            calls.append(y)
            return e._ginv_d(y)

        ginv = _BUILDERS["c4"](e.param_dict())["ginv"]
        y = _invert_monotone(2.0, ginv, counted, e.image, e.increasing, e._d1, "c4")
        assert y == eval_g(e, 2.0)
        assert len(calls) == len(set(calls)) > 1


class TestMapDomain:
    def test_unit_radius_examples(self):
        m = map_domain(get_expansion("a8"), 1.0)
        assert (m.lo, m.hi) == (-0.75, math.inf)
        assert not m.lo_closed
        m5 = map_domain(get_expansion("a5", alpha=2), 1.0)
        assert (m5.lo, m5.hi) == (-1.0, 3.0)
        m2 = map_domain(get_expansion("a2"), 1.0)
        assert m2.lo == pytest.approx(-math.log(2.0), rel=1e-15)
        assert m2.hi == math.inf

    def test_bounded_image_saturates(self):
        # |g| stays below 1 on the whole strip, so R = 1 keeps the domain
        # open while R = 2 closes it
        e = get_expansion("a13")
        m1 = map_domain(e, 1.0)
        assert (m1.lo_closed, m1.hi_closed) == (False, False)
        assert m1.lo == pytest.approx(-math.pi / 2)
        m2 = map_domain(e, 2.0)
        assert (m2.lo_closed, m2.hi_closed) == (True, True)

    def test_infinite_radius_gives_full_domain(self):
        e = get_expansion("a1")
        m = map_domain(e, math.inf)
        assert (m.lo, m.hi) == (e.domain.lo, e.domain.hi)

    def test_decreasing_family(self):
        e = get_expansion("c2")
        m = map_domain(e, 1.0)
        assert eval_g(e, m.lo) == pytest.approx(1.0, rel=1e-12)
        assert eval_g(e, m.hi) == pytest.approx(-1.0, rel=1e-12)

    def test_endpoints_respect_radius(self):
        for key in ("a1", "a6", "a9", "c3"):
            e = get_expansion(key)
            m = map_domain(e, 0.5)
            for x in grid(m.lo + 1e-9, min(m.hi, m.lo + 20.0) - 1e-9, 9):
                assert abs(eval_g(e, x)) < 0.5 + 1e-9, (key, x)

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_total_at_large_radii(self, key):
        # a crossing where ginv overflows (a1 at 1e3) or is nan (a8 at
        # 1e300) reads as the open domain end it lies toward
        e = get_expansion(key)
        for r in (1e3, 1e300):
            m = map_domain(e, r)
            assert isinstance(m, Interval) and m.lo <= m.hi, (key, r)
            assert m.lo >= e.domain.lo and m.hi <= e.domain.hi, (key, r)

    @pytest.mark.parametrize("key,r", [("a1", 1e3), ("a5", 1e300), ("a8", 1e300)])
    def test_overflowing_crossing_is_the_open_domain_end(self, key, r):
        e = get_expansion(key)
        m = map_domain(e, r)
        assert (m.lo, m.hi) == (e.domain.lo, e.domain.hi)
        assert m.hi_closed is False

    def test_invalid_radius(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                map_domain(get_expansion("a1"), bad)


# -- outcomes pinned before each shared path was reduced to one copy -----------

_SERIES_SWITCH = {"a11": 1e-3, "a12": 1e-3, "c3": 0.25, "c4": 0.5, "c6": 0.0625}
_RADII = (1e-3, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


def _repr_or_error(call, *args):
    try:
        return repr(call(*args))
    except Exception as err:
        return type(err).__name__


def _series_lines():
    """ginv and ginv_d of each series-branch family around its switch t."""
    lines = []
    for key, t in _SERIES_SWITCH.items():
        e = get_expansion(key)
        below = math.nextafter(t, 0.0)
        for y in (0.0, -0.0, 1e-300, -1e-300, t / 2, -t / 2, below, -below, t, -t):
            lines.append(f"{key} {y!r} {_repr_or_error(pair_value(e), y)} "
                         f"{_repr_or_error(e._ginv_d, y)}")
    return lines


def _start_lines():
    """eval_g of a11 and a12 on their near-zero start (series plus Newton)."""
    return [f"{key} {x!r} {_repr_or_error(eval_g, get_expansion(key), x)}"
            for key, sign in (("a11", 1.0), ("a12", -1.0))
            for x in (sign * 1e-12, sign * 1e-3, sign * 0.03, sign * 0.0624)]


def _map_domain_lines():
    return [f"{key} {r!r} {_repr_or_error(map_domain, get_expansion(key), r)}"
            for key in FAMILY_KEYS for r in _RADII]


def _pow_reference_lines():
    return [f"{alpha} {x!r} {_repr_or_error(builtin_function('pow', alpha=alpha).value_at, x)}"
            for alpha in (Fraction(1, 5), Fraction(-1, 3)) for x in (-1.0, -0.5, 0.0, 3.0)]


# sha256 over each list of lines, recorded from the code that wrote every
# series sum inline in both ginv and ginv_d, the a11/a12 start twice, the
# increasing and decreasing cases of map_domain apart, and pow's reference
# as two closures
_PARENT_PINS = {
    _series_lines:
        "2c490fde9bbf590567a06901962ff1c338d1bc9215ca6240474a5e519987baca",
    _start_lines:
        "215b104ffa4f108f376465aeb99e9581af409c750c4a8931c8b5af856783feef",
    _map_domain_lines:
        "089d56cfb519aff53a228a2986d17e326fd55cd60f4a344c325e4f51b295e7e7",
    _pow_reference_lines:
        "f82b46c0a8d861e0ec1bad61277cb6d8a8df4862d4e3283ad8313bcb3d4e3979",
}


@pytest.mark.parametrize("lines", list(_PARENT_PINS), ids=lambda f: f.__name__.strip("_"))
def test_outcomes_pinned(lines):
    text = "\n".join(lines())
    assert hashlib.sha256(text.encode()).hexdigest() == _PARENT_PINS[lines]


def _ulps(v, count):
    """v and the count floats on each side of it."""
    return [v] + _nextafter(v, -math.inf, count) + _nextafter(v, math.inf, count)


def _inverse_points(e):
    """The pair grid, each finite image and domain end +-3 ulps, +-10^k, and
    exp's overflow threshold +-3 ulps on both signs."""
    ends = [v for i in (e.image, e.domain) for v in (i.lo, i.hi) if math.isfinite(v)]
    mags = [10.0 ** k for k in range(-300, 309, 4)] + _ulps(_EXP_LIMIT, 3)
    points = _pair_grid(e) + [v for end in ends for v in _ulps(end, 3)]
    points += [sign * m for m in mags for sign in (1.0, -1.0)]
    return sorted(set(points))


def _outcome_text(call, *args):
    try:
        return repr(call(*args))
    except Exception as err:
        return f"{type(err).__name__}: {err}"


_INVERSE_PARAMS = [(key, {}) for key in FAMILY_KEYS] + [
    ("a5", {"alpha": 1}), ("a5", {"alpha": -1}), ("a7", {"alpha": Fraction(9, 4), "beta": -2}),
]


def _inverse_lines():
    """eval_ginv and invert_numeric, error messages included, on _inverse_points."""
    lines = []
    for key, params in _INVERSE_PARAMS:
        e = get_expansion(key, **params)
        for v in _inverse_points(e):
            lines.append(f"{key} {params} {v!r} {_outcome_text(eval_ginv, e, v)} "
                         f"{_outcome_text(invert_numeric, e, v)}")
    return lines


# sha256 over _inverse_lines(), recorded from the code in which every basis
# builder also gave a value-only inverse evaluator next to its pair
INVERSE_PIN = "b1e44566ac1bfd7d614e7c7ec8eda4726f906217d4f39ac58e5c7ad1954fd581"


def test_inverse_outcomes_pinned():
    lines = _inverse_lines()
    assert len(lines) > 5000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == INVERSE_PIN
