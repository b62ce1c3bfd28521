"""Tests for truncated series arithmetic, composition, reversion, catalogs."""

import math
import random
from fractions import Fraction

import pytest

from funcseries import bell
from funcseries.approx import assemble, assemble_via_composition, builtin_function
from funcseries.catalog import get_expansion
from funcseries.exact import ONE, ZERO, ExactScalar, binomial
from funcseries.pseries import (
    FAMILY_KEYS,
    FAMILY_PARAMS,
    MAX_ORDER,
    TruncatedSeries,
    family_series,
)
from oracles import (
    KINDS,
    composite_inverse_series,
    poly_compose,
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
        s = TruncatedSeries([0, 1, 0, 0])
        with pytest.raises(AttributeError):
            s._c = ()
        with pytest.raises(AttributeError):
            del TruncatedSeries([0, 1])._c
        assert hash(s) == hash(TruncatedSeries([0, 1, 0, 0]))
        assert s == TruncatedSeries([0, 1, 0, 0])
        assert s != TruncatedSeries([0, 0, 0, 0])

    def test_is_exact(self):
        # each coefficient keeps the exactness of its input
        assert all(c.is_exact for c in TruncatedSeries([1, 2]))
        assert [c.is_exact for c in TruncatedSeries([1, 2.0])] == [True, False]


class TestRingOperations:
    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2]).mul(TruncatedSeries([1, 2, 3]))

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
        e = family_series("a1", 3)
        comp = e.compose(e)
        assert frac_coeffs(comp) == [0, 1, 1, Fraction(5, 6)]

    def test_nonzero_inner_constant_rejected(self):
        outer = TruncatedSeries([0, 1, 0, 0])
        with pytest.raises(ValueError):
            outer.compose(TruncatedSeries([1, 0, 0, 0]))


class TestReversion:
    def test_exp_reverts_to_log(self):
        t = family_series("a1", 6).reversion()
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
            identity = [0, 1] + [0] * (order - 1)
            assert frac_coeffs(s.compose(t)) == identity
            assert frac_coeffs(t.compose(s)) == identity
            assert t.reversion() == s

    def test_requires_invertible_shape(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).reversion()
        with pytest.raises(ValueError):
            TruncatedSeries([0, 0, 1]).reversion()


class TestStructuralHelpers:
    def test_derivatives(self):
        s = TruncatedSeries([7, 1, Fraction(1, 2), Fraction(1, 6)])
        assert [d.as_fraction() for d in s.derivatives()] == [1, 1, 1]

    def test_max_order_cap(self):
        # the cap guards the family series; raw constructors are unbounded
        assert family_series("a1", MAX_ORDER).order == MAX_ORDER
        with pytest.raises(ValueError):
            family_series("a1", MAX_ORDER + 1)


# Frozen leading coefficients of every inverse basis with a standalone
# Maclaurin series, named as in tests/oracles.py.  Values are classical
# Maclaurin expansions, worked out by hand.
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


# The family whose inverse basis each named series is.
FAMILY_OF_KIND = {kind: key for key, kind in KINDS.items()} | {"sq_arccos_shift": "c6"}


class TestElementary:
    @pytest.mark.parametrize("kind,params", sorted(ELEMENTARY_CASES, key=str))
    def test_leading_coefficients(self, kind, params):
        expected = ELEMENTARY_CASES[(kind, params)]
        s = family_series(FAMILY_OF_KIND[kind], len(expected) - 1, **dict(params))
        assert frac_coeffs(s) == [Fraction(v) for v in expected]

    def test_sqrt_shift_general_term(self):
        # coefficients of sqrt(alpha + beta y) - sqrt(alpha) for a perfect
        # square alpha: sqrt(alpha) * C(1/2, n) * (beta/alpha)^n
        alpha, beta = Fraction(9, 4), Fraction(2)
        s = family_series("a7", 8, alpha=alpha, beta=beta)
        root = Fraction(3, 2)
        for n in range(1, 9):
            expected = root * binomial(Fraction(1, 2), n).as_fraction() * (beta / alpha) ** n
            assert s[n].as_fraction() == expected, n

    def test_param_validation(self):
        with pytest.raises(ValueError):
            family_series("a1", 4, alpha=2)
        with pytest.raises(ValueError):
            family_series("a5", 4)
        with pytest.raises(ValueError):
            family_series("a7", 4, alpha=4)

    @pytest.mark.parametrize("alpha,beta", [
        (2e-60, 3),  # root ** (1 - 2 j) overflows
        (3, Fraction(10**40)),  # beta ** j has no float
        (2e-100, 1e100),  # finite factors, an infinite product
    ])
    def test_a7_float_derivative_beyond_the_float_range(self, alpha, beta):
        # an irrational root or a float beta makes a7's d_j floats; every
        # entry point that reads them raises the family's ValueError
        _raises_beyond_the_float_range("a7", {"alpha": alpha, "beta": beta})

    @pytest.mark.parametrize("alpha", [1e300, -1e300, 1e200, 1e40])
    def test_a5_float_derivative_beyond_the_float_range(self, alpha):
        # a float alpha makes a5's d_j float falling factorials, which
        # overflow from j = 2 (1e200) or j = 8 (1e40)
        _raises_beyond_the_float_range("a5", {"alpha": alpha})


def _raises_beyond_the_float_range(key, params):
    """Every entry point that reads the family's d_j at order 12 raises its ValueError."""
    exp, func = get_expansion(key, **params), builtin_function("exp")
    for call in (lambda: family_series(key, 12, **params),
                 lambda: bell.derivative_sequence(key, 12, **params),
                 lambda: bell.bell_values(key, 12, **params),
                 lambda: assemble(exp, func, 12),
                 lambda: assemble_via_composition(exp, func, 12)):
        with pytest.raises(ValueError, match=f"^family '{key}' basis derivatives leave the float"):
            call()


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

    def test_all_keys_produce_series(self):
        for key in FAMILY_KEYS:
            s = family_series(key, 10, **{p: 1 for p in FAMILY_PARAMS.get(key, ())})
            assert s.order == 10
            assert s[0] == 0
            assert all(c.is_exact for c in s)

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
        s = frac_coeffs(y.reversion())
        assert s[0] == 0
        expected = [-c / 2 for c in s[1:]]
        expected[0] -= 1
        assert frac_coeffs(family_series("c6", order)) == expected

    def test_param_rejection(self):
        with pytest.raises(ValueError):
            family_series("a5", 4, alpha=0)
        with pytest.raises(ValueError):
            family_series("a1", 4, w=1)
        with pytest.raises(ValueError):
            family_series("zz", 4)
