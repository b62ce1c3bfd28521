"""Tests for the exact scalar wrapper and combinatorial primitives."""

import math
import random
from fractions import Fraction

import pytest

from funcseries.exact import (
    ONE,
    ZERO,
    ExactScalar,
    _falling_factorials,
    binomial,
    falling_factorial,
    scalar,
)
from funcseries.bell import double_factorial, stirling1, stirling2
from oracles import stirling1_rec, stirling2_rec


class TestConstruction:
    def test_from_int(self):
        s = ExactScalar(7)
        assert s.is_exact
        assert s.as_fraction() == 7

    def test_from_fraction(self):
        s = ExactScalar(Fraction(2, 3))
        assert s.is_exact
        assert s.numerator == 2
        assert s.denominator == 3

    def test_from_string(self):
        assert ExactScalar("2/3").as_fraction() == Fraction(2, 3)
        assert ExactScalar("-5").as_fraction() == -5
        with pytest.raises(ValueError, match="'1/0'"):
            ExactScalar("1/0")

    def test_from_float_is_approximate(self):
        s = ExactScalar(0.5)
        assert not s.is_exact
        assert float(s) == 0.5
        with pytest.raises(ValueError):
            s.as_fraction()

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ExactScalar(True)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            ExactScalar([1])

    def test_exact_values_are_held_as_plain_fractions(self):
        class Half(Fraction):
            pass

        for value in (3, Fraction(2, 3), Half(1, 2), "5/7", ExactScalar(Half(1, 3))):
            assert type(ExactScalar(value)._v) is Fraction, value
        assert type((ExactScalar(Fraction(1, 2)) * 3)._v) is Fraction

    def test_scalar_passthrough(self):
        s = ExactScalar(3)
        assert scalar(s) is s
        assert scalar(4) == 4

    def test_immutable(self):
        s = ExactScalar(1)
        with pytest.raises(AttributeError):
            s._v = 2
        with pytest.raises(AttributeError):
            del s._v
        assert s == 1


class TestArithmetic:
    def test_exact_stays_exact(self):
        a = ExactScalar(Fraction(1, 3))
        b = ExactScalar(Fraction(1, 6))
        assert (a + b).as_fraction() == Fraction(1, 2)
        assert (a - b).as_fraction() == Fraction(1, 6)
        assert (a * b).as_fraction() == Fraction(1, 18)
        assert (a / b).as_fraction() == 2

    def test_contamination_is_sticky(self):
        a = ExactScalar(Fraction(1, 3))
        f = ExactScalar(0.25)
        for result in (a + f, a * f, a - f, a / f, f / a):
            assert not result.is_exact

    def test_mixed_operand_types(self):
        a = ExactScalar(Fraction(1, 2))
        assert (a + 1).as_fraction() == Fraction(3, 2)
        assert (1 - a).as_fraction() == Fraction(1, 2)
        assert (Fraction(1, 4) * a).as_fraction() == Fraction(1, 8)
        assert (2 / a).as_fraction() == 4

    def test_pow(self):
        a = ExactScalar(Fraction(2, 3))
        assert (a**3).as_fraction() == Fraction(8, 27)
        assert (a**0).as_fraction() == 1
        assert (a**-1).as_fraction() == Fraction(3, 2)
        with pytest.raises(TypeError):
            a ** Fraction(1, 2)
        with pytest.raises(TypeError):
            a**True

    def test_neg_pos_abs(self):
        a = ExactScalar(Fraction(-3, 4))
        assert (-a).as_fraction() == Fraction(3, 4)
        assert (+a) is a
        assert abs(a).as_fraction() == Fraction(3, 4)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestComparisonsAndHash:
    def test_equality_across_types(self):
        assert ExactScalar(Fraction(1, 2)) == Fraction(1, 2)
        assert ExactScalar(2) == 2
        assert ExactScalar(0.5) == ExactScalar(Fraction(1, 2))
        assert ExactScalar(1) != ExactScalar(2)

    def test_ordering(self):
        assert ExactScalar(1) < ExactScalar(2)
        assert ExactScalar(2) > 1
        assert ExactScalar(2) >= 2
        assert ExactScalar(2) <= Fraction(5, 2)

    def test_hash_matches_fraction(self):
        assert hash(ExactScalar(Fraction(1, 3))) == hash(Fraction(1, 3))
        d = {ExactScalar(2): "a"}
        assert d[ExactScalar(2)] == "a"

    def test_bool(self):
        assert not ZERO
        assert ONE
        assert ExactScalar(0.0) == 0
        assert not ExactScalar(0.0)

    def test_repr_tags_approximate(self):
        assert "~" not in repr(ExactScalar(2))
        assert "~" in repr(ExactScalar(2.0))


class TestSqrt:
    def test_perfect_squares_exact(self):
        assert ExactScalar(4).sqrt().as_fraction() == 2
        assert ExactScalar(Fraction(9, 4)).sqrt().as_fraction() == Fraction(3, 2)
        assert ExactScalar(0).sqrt() == 0
        assert ExactScalar(Fraction(1, 4)).sqrt().as_fraction() == Fraction(1, 2)

    def test_non_square_is_approximate(self):
        r = ExactScalar(2).sqrt()
        assert not r.is_exact
        assert float(r) == math.sqrt(2)

    def test_float_operand(self):
        r = ExactScalar(2.25).sqrt()
        assert not r.is_exact
        assert float(r) == 1.5

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            ExactScalar(-1).sqrt()
        with pytest.raises(ValueError):
            ExactScalar(-1.0).sqrt()


class TestStirlingSecond:
    def test_against_recurrence(self):
        for n in range(13):
            for m in range(n + 1):
                assert stirling2(n, m).as_fraction() == stirling2_rec(n, m), (n, m)

    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 2) == 15
        assert stirling2(5, 3) == 25
        assert stirling2(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert stirling2(3, 5) == 0
        assert stirling2(4, 0) == 0


class TestStirlingFirst:
    def test_against_recurrence(self):
        for n in range(13):
            for m in range(n + 1):
                assert stirling1(n, m).as_fraction() == stirling1_rec(n, m), (n, m)

    def test_known_values(self):
        assert stirling1(2, 1) == -1
        assert stirling1(3, 1) == 2
        assert stirling1(4, 2) == 11
        assert stirling1(5, 5) == 1

    def test_factorial_column(self):
        for n in range(2, 12):
            expected = (-1) ** (n - 1) * math.factorial(n - 1)
            assert stirling1(n, 1) == expected

    def test_out_of_range_is_zero(self):
        assert stirling1(2, 4) == 0
        assert stirling1(3, 0) == 0


class TestFallingFactorial:
    def test_integer_base(self):
        assert falling_factorial(5, 3).as_fraction() == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(3, 5) == 0

    def test_rational_base(self):
        v = falling_factorial(Fraction(1, 2), 3)
        assert v.as_fraction() == Fraction(3, 8)

    def test_float_base_is_approximate(self):
        v = falling_factorial(0.5, 2)
        assert not v.is_exact
        assert float(v) == pytest.approx(-0.25)

    def test_matches_product(self):
        rng = random.Random(11)
        for _ in range(30):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            n = rng.randint(0, 6)
            prod = Fraction(1)
            for i in range(n):
                prod *= a - i
            assert falling_factorial(a, n).as_fraction() == prod

    def test_prefix_products_match_each_order(self):
        # the sequence helper behind the a5/a7 and pow derivatives; float
        # bases must give the same bits as the one-at-a-time product
        for a in (Fraction(1, 5), Fraction(-7, 3), 4, 0.3, -2.75):
            seq = _falling_factorials(a, 40)
            assert len(seq) == 41
            for n, v in enumerate(seq):
                prod = Fraction(1)
                for i in range(n):
                    prod = prod * (a - i)
                assert repr(v) == repr(prod), (a, n)
                assert repr(falling_factorial(a, n)) == repr(ExactScalar(prod))


class TestDoubleFactorial:
    def test_conventions(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1

    def test_values(self):
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(9) == 945

    def test_below_minus_one_raises(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestBinomial:
    def test_generalized(self):
        assert binomial(Fraction(1, 2), 2).as_fraction() == Fraction(-1, 8)
        assert binomial(Fraction(1, 2), 0) == 1

    def test_matches_comb_for_integers(self):
        for n in range(8):
            for k in range(n + 2):
                expected = math.comb(n, k) if k <= n else 0
                assert binomial(n, k) == expected
