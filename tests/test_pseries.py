"""Tests for truncated series arithmetic, composition, reversion, catalogs."""

import math
import random
from fractions import Fraction

import pytest

from funcseries.exact import ONE, ZERO, ExactScalar, binomial
from funcseries.pseries import (
    FAMILY_KEYS,
    FAMILY_PARAMS,
    MAX_ORDER,
    TruncatedSeries,
    constant,
    elementary,
    family_series,
    identity,
)
from oracles import (
    composite_inverse_series,
    poly_compose,
    poly_eval_float,
    poly_mul,
    sq_arccos_shift_by_reversion,
)


def frac_coeffs(series):
    return [c.as_fraction() for c in series.coeffs]


def random_series(rng, order, lo=-4, hi=4, den=3):
    return TruncatedSeries(
        Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(order + 1)
    )


class TestConstruction:
    def test_basic(self):
        s = TruncatedSeries([1, Fraction(1, 2), "1/3"])
        assert s.order == 2
        assert s[1].as_fraction() == Fraction(1, 2)
        assert list(s) == [ONE, ExactScalar(Fraction(1, 2)), ExactScalar(Fraction(1, 3))]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_immutable_and_hashable(self):
        s = identity(3)
        with pytest.raises(AttributeError):
            s._c = ()
        assert hash(s) == hash(identity(3))
        assert s == identity(3)
        assert s != constant(0, 3)

    def test_is_exact(self):
        assert TruncatedSeries([1, 2]).is_exact()
        assert not TruncatedSeries([1, 2.0]).is_exact()

    def test_constant_and_identity(self):
        assert frac_coeffs(constant(5, 3)) == [5, 0, 0, 0]
        assert frac_coeffs(identity(3)) == [0, 1, 0, 0]
        with pytest.raises(ValueError):
            identity(0)


class TestRingOperations:
    def test_add_sub(self):
        a = TruncatedSeries([1, 2, 3])
        b = TruncatedSeries([Fraction(1, 2), 0, -3])
        assert frac_coeffs(a.add(b)) == [Fraction(3, 2), 2, 0]
        assert frac_coeffs(a.sub(b)) == [Fraction(1, 2), 2, 6]
        assert a + b == a.add(b)
        assert a - b == a.sub(b)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2]).add(TruncatedSeries([1, 2, 3]))

    def test_mul_against_naive(self):
        rng = random.Random(23)
        for _ in range(25):
            order = rng.randint(0, 9)
            a = random_series(rng, order)
            b = random_series(rng, order)
            expected = poly_mul(frac_coeffs(a), frac_coeffs(b), order)
            assert frac_coeffs(a.mul(b)) == expected

    def test_mul_zero_skip_keeps_exact_zeros(self):
        # an approximate factor must not contaminate positions where the
        # convolution only ever sees exact zeros
        a = TruncatedSeries([0, 1, 0, 0])
        b = TruncatedSeries([0, 0.5, 0, 0])
        prod = a.mul(b)
        assert not prod[2].is_exact
        assert prod[0].is_exact and prod[1].is_exact and prod[3].is_exact

    def test_scale_and_neg(self):
        a = TruncatedSeries([1, -2, 0])
        assert frac_coeffs(a.scale(Fraction(1, 2))) == [Fraction(1, 2), -1, 0]
        assert frac_coeffs(-a) == [-1, 2, 0]
        assert 2 * a == a.scale(2)
        assert a * 2 == a.scale(2)

    def test_scale_skips_exact_zeros(self):
        a = TruncatedSeries([0, 1, 0])
        scaled = a.scale(2.0)
        assert scaled[0].is_exact
        assert not scaled[1].is_exact


class TestCompose:
    def test_against_naive(self):
        rng = random.Random(31)
        for _ in range(20):
            order = rng.randint(1, 8)
            outer = random_series(rng, order)
            inner_c = [Fraction(0)] + [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)
            ]
            inner = TruncatedSeries(inner_c)
            expected = poly_compose(frac_coeffs(outer), inner_c, order)
            assert frac_coeffs(outer.compose(inner)) == expected

    def test_exp_composed_with_itself(self):
        e = elementary("exp_m1", 3)
        comp = e.compose(e)
        assert frac_coeffs(comp) == [0, 1, 1, Fraction(5, 6)]

    def test_nonzero_inner_constant_rejected(self):
        outer = identity(3)
        with pytest.raises(ValueError):
            outer.compose(constant(1, 3))


class TestReversion:
    def test_exp_reverts_to_log(self):
        t = elementary("exp_m1", 6).reversion()
        expected = [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, 7)]
        assert frac_coeffs(t) == expected

    def test_quadratic_reversion(self):
        s = TruncatedSeries([0, 1, 1, 0, 0])
        assert frac_coeffs(s.reversion()) == [0, 1, -1, 2, -5]

    def test_round_trip_property(self):
        rng = random.Random(47)
        for _ in range(15):
            order = rng.randint(2, 10)
            c = [Fraction(0), Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 2))]
            c += [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order - 1)]
            s = TruncatedSeries(c)
            t = s.reversion()
            assert frac_coeffs(s.compose(t)) == frac_coeffs(identity(order))
            assert frac_coeffs(t.compose(s)) == frac_coeffs(identity(order))
            assert t.reversion() == s

    def test_requires_invertible_shape(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).reversion()
        with pytest.raises(ValueError):
            TruncatedSeries([0, 0, 1]).reversion()


class TestStructuralHelpers:
    def test_shift_down(self):
        s = TruncatedSeries([0, 0, 1, 2])
        assert frac_coeffs(s.shift_down(2)) == [1, 2]
        with pytest.raises(ValueError):
            TruncatedSeries([0, 1, 2]).shift_down(2)
        with pytest.raises(ValueError):
            s.shift_down(5)

    def test_derivatives(self):
        s = TruncatedSeries([7, 1, Fraction(1, 2), Fraction(1, 6)])
        assert [d.as_fraction() for d in s.derivatives()] == [1, 1, 1]

    def test_eval_float_matches_naive(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_series(rng, 6)
            x = rng.uniform(-0.9, 0.9)
            assert s.eval_float(x) == pytest.approx(
                poly_eval_float(frac_coeffs(s), x), rel=1e-13
            )

    def test_max_order_cap(self):
        # the cap guards the named builders; raw constructors are unbounded
        assert elementary("exp_m1", MAX_ORDER).order == MAX_ORDER
        with pytest.raises(ValueError):
            elementary("exp_m1", MAX_ORDER + 1)
        with pytest.raises(ValueError):
            family_series("a1", MAX_ORDER + 1)


# Frozen leading coefficients for every named elementary series.  Values are
# classical Maclaurin expansions, worked out by hand.
ELEMENTARY_CASES = {
    ("exp_m1", ()): [0, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)],
    ("neg_ln_1m", ()): [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
    ("sinh", ()): [0, 1, 0, Fraction(1, 6), 0],
    ("sin", ()): [0, 1, 0, Fraction(-1, 6), 0],
    ("pow_alpha_m1", (("alpha", 2),)): [0, 2, 1, 0, 0],
    ("pow_alpha_m1", (("alpha", Fraction(1, 2)),)): [
        0,
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    ],
    ("half_sq_plus_wx", (("w", 3),)): [0, 3, Fraction(1, 2), 0, 0],
    ("sqrt_shift", (("alpha", 4), ("beta", 3))): [
        0,
        Fraction(3, 4),
        Fraction(-9, 64),
        Fraction(27, 512),
    ],
    ("inv_sq_m1", ()): [0, 2, 3, 4, 5],
    ("odd_geom", ()): [0, 1, 0, 1, 0],
    ("lambert_pair", (("w", 2),)): [0, 2, Fraction(3, 2), Fraction(2, 3)],
    ("log_ratio", ()): [0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
    ("expm1_ratio", ()): [0, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)],
    ("arcsin", ()): [0, 1, 0, Fraction(1, 6), 0, Fraction(3, 40)],
    ("sq_arccos_shift", ()): [0, Fraction(-1, 6), Fraction(2, 45), Fraction(-1, 70)],
}


class TestElementary:
    @pytest.mark.parametrize("kind,params", sorted(ELEMENTARY_CASES, key=str))
    def test_leading_coefficients(self, kind, params):
        expected = ELEMENTARY_CASES[(kind, params)]
        s = elementary(kind, len(expected) - 1, **dict(params))
        assert frac_coeffs(s) == [Fraction(v) for v in expected]

    def test_sqrt_shift_general_term(self):
        # coefficients of sqrt(alpha + beta y) - sqrt(alpha) for a perfect
        # square alpha: sqrt(alpha) * C(1/2, n) * (beta/alpha)^n
        alpha, beta = Fraction(9, 4), Fraction(2)
        s = elementary("sqrt_shift", 8, alpha=alpha, beta=beta)
        root = Fraction(3, 2)
        for n in range(1, 9):
            expected = root * binomial(Fraction(1, 2), n).as_fraction() * (beta / alpha) ** n
            assert s[n].as_fraction() == expected, n

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            elementary("nope", 4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            elementary("exp_m1", 4, alpha=2)
        with pytest.raises(ValueError):
            elementary("pow_alpha_m1", 4)
        with pytest.raises(ValueError):
            elementary("sqrt_shift", 4, alpha=4)


# Frozen leading coefficients of the inverse basis series for the implicit
# families (coefficient c_n, so the derivative arguments are n! c_n).
FAMILY_SERIES_CASES = {
    ("c1", (("w", 2),)): [0, 2, 1, Fraction(1, 2), Fraction(1, 6)],
    ("c1", (("w", 1),)): [0, 1, 1, Fraction(1, 2), Fraction(1, 6)],
    ("c2", ()): [0, -2, 0, Fraction(1, 6), Fraction(1, 12)],
    ("c3", ()): [0, Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)],
    ("c4", ()): [0, Fraction(1, 12), Fraction(1, 40), Fraction(1, 180)],
    ("c5", (("alpha", 1), ("w", 1), ("beta", 1))): [
        0,
        1,
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 8),
    ],
    ("c6", ()): [0, Fraction(-1, 6), Fraction(2, 45), Fraction(-1, 70)],
}


C6_ORACLE = sq_arccos_shift_by_reversion(MAX_ORDER)

# The parameter sets of c1 and c5 used across the tests, plus one with
# fractional and zero entries.
COMPOSITE_CASES = [
    ("c1", {"w": 1}), ("c1", {"w": 2}), ("c1", {"w": 3}), ("c1", {"w": Fraction(-1, 2)}),
    ("c2", {}), ("c3", {}), ("c4", {}),
    ("c5", {"alpha": 1, "w": 1, "beta": 1}), ("c5", {"alpha": 2, "w": 1, "beta": 3}),
    ("c5", {"alpha": Fraction(-3, 2), "w": Fraction(5, 7), "beta": 0}),
]


class TestFamilySeries:
    @pytest.mark.parametrize("key,params", sorted(FAMILY_SERIES_CASES, key=str))
    def test_implicit_family_coefficients(self, key, params):
        expected = FAMILY_SERIES_CASES[(key, params)]
        s = family_series(key, len(expected) - 1, **dict(params))
        assert frac_coeffs(s) == [Fraction(v) for v in expected]

    def test_explicit_families_match_elementary(self):
        # the a-keys are pure aliases for named elementary series
        assert family_series("a1", 6) == elementary("exp_m1", 6)
        assert family_series("a8", 6) == elementary("inv_sq_m1", 6)
        assert family_series("a13", 7) == elementary("arcsin", 7)
        assert family_series("a5", 6, alpha=3) == elementary("pow_alpha_m1", 6, alpha=3)

    def test_all_keys_produce_series(self):
        for key in FAMILY_KEYS:
            s = family_series(key, 10, **{p: 1 for p in FAMILY_PARAMS.get(key, ())})
            assert s.order == 10
            assert s[0] == 0
            assert s.is_exact()

    @pytest.mark.parametrize("order", [1, 2, 3, 20, MAX_ORDER])
    def test_c6_matches_reversion_oracle(self, order):
        # lower orders are prefixes of the order-MAX_ORDER oracle
        assert frac_coeffs(family_series("c6", order)) == C6_ORACLE[: order + 1]

    @pytest.mark.parametrize("key,params", COMPOSITE_CASES, ids=str)
    def test_composite_families_match_product_oracle(self, key, params):
        # every order, since the head terms are cut at orders 1 and 2
        for order in range(1, MAX_ORDER + 1):
            expected = composite_inverse_series(key, order, **params)
            assert frac_coeffs(family_series(key, order, **params)) == expected, order

    def test_c6_matches_package_reversion(self):
        # the series of cos(sqrt(s)) - 1, reverted, is [arccos(1+y)]^2
        order = 24
        y = TruncatedSeries(
            [0] + [Fraction((-1) ** j, math.factorial(2 * j)) for j in range(1, order + 2)]
        )
        expected = y.reversion().shift_down(1).scale(Fraction(-1, 2)).sub(constant(1, order))
        assert family_series("c6", order) == expected

    def test_param_rejection(self):
        with pytest.raises(ValueError):
            family_series("a5", 4, alpha=0)
        with pytest.raises(ValueError):
            family_series("a1", 4, w=1)
        with pytest.raises(ValueError):
            family_series("zz", 4)
