"""Tests for partial Bell polynomial evaluation and the closed-form gate."""

import math
import random
from fractions import Fraction

import pytest

import funcseries.bell as bell
from funcseries.approx import assemble, function_from_derivatives
from funcseries.bell import (
    CLOSED_FORM_FAMILIES,
    bell_closed_form,
    bell_generic,
    bell_values,
    derivative_sequence,
    gate_report,
    stirling2,
)
from funcseries.catalog import get_expansion
from funcseries.exact import ONE, ZERO, falling_factorial, scalar
from funcseries.pseries import FAMILY_KEYS, MAX_ORDER, family_series, get_family
from oracles import bell_by_partitions, revert_by_lagrange, stirling1_rec


# Schema-respecting parameter samples used for the equivalence sweeps.
PARAM_SAMPLES = {
    "a5": [{"alpha": Fraction(2)}, {"alpha": Fraction(1, 2)}, {"alpha": Fraction(-1)}, {"alpha": Fraction(1, 3)}],
    "a6": [{"w": Fraction(1)}, {"w": Fraction(2)}, {"w": Fraction(-1, 2)}],
    "a7": [
        {"alpha": a, "beta": b}
        for a in (Fraction(2), Fraction(1, 2), Fraction(1, 3))
        for b in (Fraction(3), Fraction(1))
    ],
    "a10": [{"w": Fraction(1)}, {"w": Fraction(2)}, {"w": Fraction(-1, 2)}],
    "c1": [{"w": Fraction(1)}, {"w": Fraction(2)}, {"w": Fraction(-1, 2)}],
}

# Perfect-square alpha keeps sqrt(alpha) rational, so these a7 samples stay
# exact end to end and the equality check is literal.
A7_EXACT_SAMPLES = [
    {"alpha": a, "beta": b}
    for a in (Fraction(4), Fraction(9, 4), Fraction(1, 4))
    for b in (Fraction(3), Fraction(1))
]

CLOSED_FORM_KEYS = tuple(f"a{i}" for i in range(1, 14)) + ("c1", "c2")


def samples_for(key):
    return PARAM_SAMPLES.get(key, [{}])


class TestGeneric:
    def test_base_cases(self):
        assert bell_generic(0, 0, []) == 1
        assert bell_generic(3, 4, [1, 1, 1]) == 0
        assert bell_generic(1, 1, [Fraction(2, 3)]).as_fraction() == Fraction(2, 3)

    def test_known_values(self):
        assert bell_generic(3, 2, [1, 1, 1]) == 3
        assert bell_generic(4, 2, [1, 1, 1, 1]) == 7
        assert bell_generic(6, 3, [ONE] * 4) == stirling2(6, 3)

    def test_short_argument_list_rejected(self):
        with pytest.raises(ValueError):
            bell_generic(4, 2, [1, 1])

    def test_against_partition_oracle(self):
        rng = random.Random(101)
        for n in range(1, 8):
            args = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for k in range(1, n + 1):
                expected = bell_by_partitions(n, k, args)
                got = bell_generic(n, k, args[: n - k + 1])
                assert got.as_fraction() == expected, (n, k)

    def test_unit_arguments_give_stirling2(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert bell_generic(n, k, [ONE] * (n - k + 1)) == stirling2(n, k)

    def test_homogeneity(self):
        # B(n, k, [a b^j x_j]) = a^k b^n B(n, k, [x_j])
        rng = random.Random(271)
        for _ in range(12):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            a = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-4, -1), rng.randint(1, 3))
            xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - k + 1)]
            scaled = [a * b ** (j + 1) * xs[j] for j in range(len(xs))]
            lhs = bell_generic(n, k, scaled).as_fraction()
            rhs = a**k * b**n * bell_generic(n, k, xs).as_fraction()
            assert lhs == rhs, (n, k, a, b)

    def test_float_arguments_tag_approximate(self):
        v = bell_generic(3, 2, [1.0, 1.0])
        assert not v.is_exact
        assert float(v) == pytest.approx(3.0)


class TestDerivativeSequences:
    def test_displayed_vectors(self):
        assert derivative_sequence("a1", 4) == (ONE,) * 4
        assert [d.as_fraction() for d in derivative_sequence("a2", 4)] == [1, 1, 2, 6]
        assert [d.as_fraction() for d in derivative_sequence("a12", 3)] == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
        ]
        assert [d.as_fraction() for d in derivative_sequence("a3", 5)] == [1, 0, 1, 0, 1]
        assert [d.as_fraction() for d in derivative_sequence("a4", 5)] == [1, 0, -1, 0, 1]
        assert [d.as_fraction() for d in derivative_sequence("a6", 4, w=2)] == [2, 1, 0, 0]
        assert [d.as_fraction() for d in derivative_sequence("a8", 3)] == [2, 6, 24]
        assert [d.as_fraction() for d in derivative_sequence("a9", 4)] == [1, 0, 6, 0]
        assert [d.as_fraction() for d in derivative_sequence("a10", 4, w=2)] == [2, 3, 4, 5]
        assert [d.as_fraction() for d in derivative_sequence("a11", 4)] == [
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(6, 4),
            Fraction(24, 5),
        ]
        assert [d.as_fraction() for d in derivative_sequence("a13", 5)] == [1, 0, 1, 0, 9]

    def test_implicit_vectors(self):
        assert [d.as_fraction() for d in derivative_sequence("c1", 4, w=3)] == [3, 2, 3, 4]
        assert [d.as_fraction() for d in derivative_sequence("c2", 5)] == [-2, 0, 1, 2, 3]
        assert [d.as_fraction() for d in derivative_sequence("c3", 3)] == [
            Fraction(1, 6),
            Fraction(1, 12),
            Fraction(1, 20),
        ]
        assert [d.as_fraction() for d in derivative_sequence("c4", 3)] == [
            Fraction(1, 12),
            Fraction(1, 20),
            Fraction(1, 30),
        ]
        assert [d.as_fraction() for d in derivative_sequence("c5", 4, alpha=1, w=1, beta=1)] == [
            1,
            1,
            2,
            3,
        ]
        assert [d.as_fraction() for d in derivative_sequence("c6", 3)] == [
            Fraction(-1, 6),
            Fraction(4, 45),
            Fraction(-3, 35),
        ]

    def test_a5_is_falling_factorial(self):
        seq = derivative_sequence("a5", 4, alpha=Fraction(1, 2))
        assert [d.as_fraction() for d in seq] == [
            Fraction(1, 2),
            Fraction(-1, 4),
            Fraction(3, 8),
            Fraction(-15, 16),
        ]

    def test_a7_rational_when_alpha_square(self):
        seq = derivative_sequence("a7", 3, alpha=4, beta=3)
        assert all(d.is_exact for d in seq)
        assert [d.as_fraction() for d in seq] == [
            Fraction(3, 4),
            Fraction(-9, 32),
            Fraction(81, 256),
        ]

    def test_a5_a7_at_max_order_match_each_falling_factorial(self):
        # the sequences are built as prefix products; each entry must equal
        # its own falling factorial, including a7's float-tagged entries
        for alpha in (Fraction(2), Fraction(-5, 3)):
            seq = derivative_sequence("a5", MAX_ORDER, alpha=alpha)
            assert seq == tuple(falling_factorial(alpha, i) for i in range(1, MAX_ORDER + 1))
        for alpha, beta in ((Fraction(4, 9), Fraction(-1, 2)), (Fraction(2), Fraction(3))):
            root = scalar(alpha).sqrt()
            want = tuple(
                repr(root ** (1 - 2 * i) * scalar(beta) ** i * falling_factorial(Fraction(1, 2), i))
                for i in range(1, MAX_ORDER + 1)
            )
            seq = derivative_sequence("a7", MAX_ORDER, alpha=alpha, beta=beta)
            assert tuple(repr(d) for d in seq) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            derivative_sequence("a1", 0)
        with pytest.raises(ValueError):
            derivative_sequence("a5", 4)
        with pytest.raises(ValueError):
            derivative_sequence("a5", 4, alpha=0)
        with pytest.raises(ValueError):
            derivative_sequence("a7", 4, alpha=-1, beta=1)
        with pytest.raises(ValueError):
            derivative_sequence("a7", 4, alpha=2, beta=0)
        with pytest.raises(ValueError):
            derivative_sequence("a6", 4, w=0)
        with pytest.raises(ValueError):
            derivative_sequence("nope", 4)


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("key", CLOSED_FORM_KEYS)
    def test_matches_generic(self, key):
        # the load-bearing identity: every displayed special-value formula
        # reproduces the recurrence over its own derivative sequence
        for params in samples_for(key):
            seq = derivative_sequence(key, 12, **params)
            for n in range(1, 13):
                for k in range(1, n + 1):
                    closed = bell_closed_form(key, n, k, **params)
                    generic = bell_generic(n, k, seq[: n - k + 1])
                    if closed.is_exact and generic.is_exact:
                        assert closed == generic, (key, params, n, k)
                    else:
                        c, g = float(closed), float(generic)
                        scale = max(1.0, abs(c), abs(g))
                        assert abs(c - g) <= 1e-12 * scale, (key, params, n, k)

    def test_a7_exact_at_square_alpha(self):
        # irrational sqrt(alpha) forces floats; at perfect squares both
        # routes stay rational and must agree literally
        for params in A7_EXACT_SAMPLES:
            seq = derivative_sequence("a7", 10, **params)
            assert all(d.is_exact for d in seq)
            for n in range(1, 11):
                for k in range(1, n + 1):
                    closed = bell_closed_form("a7", n, k, **params)
                    assert closed.is_exact, (params, n, k)
                    assert closed == bell_generic(n, k, seq[: n - k + 1]), (params, n, k)

    def test_a2_matches_unsigned_stirling1(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                expected = (-1) ** (n - k) * stirling1_rec(n, k)
                assert bell_closed_form("a2", n, k) == expected, (n, k)

    def test_parity_zeros(self):
        # odd inverse bases have B(n, k) = 0 whenever n + k is odd
        for key in ("a3", "a4", "a9", "a13"):
            for n in range(1, 11):
                for k in range(1, n + 1):
                    if (n + k) % 2 == 1:
                        assert bell_closed_form(key, n, k) == 0, (key, n, k)

    def test_unknown_or_missing_closed_form(self):
        with pytest.raises(ValueError):
            bell_closed_form("c3", 3, 2)
        with pytest.raises(ValueError):
            bell_closed_form("zz", 3, 2)

    @pytest.mark.parametrize("key,n,k,params", [
        ("a7", 12, 1, {"alpha": 1e-30, "beta": 1}),  # alpha ** 6 underflows to 0.0
        ("a6", 8, 7, {"w": 1e300}),  # w ** 6 overflows
        ("a10", 8, 7, {"w": 1e300}),
        ("c1", 8, 7, {"w": 1e300}),
        ("a5", 10, 3, {"alpha": 3e30}),  # inf - inf: nan
    ])
    def test_a_float_beyond_the_range_is_a_value_error(self, key, n, k, params):
        with pytest.raises(ValueError, match=f"family {key!r}"):
            bell_closed_form(key, n, k, **params)


class TestBellValues:
    def test_triangle_shape(self):
        rows = bell_values("a1", 5)
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert len(row) == n + 1
        assert rows[0][0] == 1
        assert rows[4][2] == 7

    def test_nmax_zero(self):
        assert bell_values("a2", 0) == [[ONE]]

    def test_matches_closed_form_per_cell(self):
        # every cell of the recurrence kernel against the paper's formula,
        # at the catalog's default parameters (exact for all fifteen)
        for key in CLOSED_FORM_FAMILIES:
            params = get_expansion(key).param_dict()
            rows = bell_values(key, 16, **params)
            for n in range(1, 17):
                assert rows[n][0] == ZERO
                for k in range(1, n + 1):
                    assert rows[n][k].is_exact, (key, n, k)
                    assert rows[n][k] == bell_closed_form(key, n, k, **params), (key, n, k)

    def test_series_defined_families_use_recurrence(self):
        seq = derivative_sequence("c3", 6)
        rows = bell_values("c3", 6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert rows[n][k] == bell_generic(n, k, seq[: n - k + 1]), (n, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            bell_values("a1", -1)
        with pytest.raises(ValueError):
            bell_values("a1", bell.MAX_ORDER + 1)


class TestColumnKernel:
    @pytest.mark.parametrize("key", ["c6", "a7"])
    def test_stored_integers_stay_small(self, key):
        # Scaling cell (n, k) by D^k stored integers of 15,009 (c6) and
        # 12,198 (a7) bits at this order; removing each column's content
        # keeps them near the size of the values.
        params = get_expansion(key).param_dict()
        values = bell._raw(derivative_sequence(key, MAX_ORDER, **params))
        cols, scales = bell._columns(values, MAX_ORDER)
        stored = [*scales, *(c for col in cols for c in col)]
        assert max(abs(v).bit_length() for v in stored) < 1000

    def test_columns_over_their_scales_match_the_partition_oracle(self):
        values = bell._raw(derivative_sequence("c4", 8))
        cols, scales = bell._columns(values, 8)
        for n in range(1, 9):
            for k in range(1, n + 1):
                expected = bell_by_partitions(n, k, values[: n - k + 1])
                assert Fraction(cols[k][n], scales[k]) == expected, (n, k)
        # with its content removed no column shares a factor with its scale
        assert all(math.gcd(scale, *col) == 1 for col, scale in zip(cols, scales))

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_capped_composite_matches_every_column(self, key):
        # a derivative list is the polynomial target f^(K + 1) = 0, whose
        # recurrence carries K + 1 states (3 for sq, 6 for a degree-5 list);
        # each of its coefficients is the sum over all MAX_ORDER columns
        exp = get_expansion(key)
        r, e = get_family(key).graded(MAX_ORDER, exp.param_dict())
        cols, scales = bell._columns(list(e), MAX_ORDER)
        pad = [0] * MAX_ORDER
        for f in ([0, 0, 2, *pad], [1, 2, -3, Fraction(1, 2), 5, 7, *pad]):
            model = assemble(exp, function_from_derivatives(f[:MAX_ORDER + 1]), MAX_ORDER)
            for n, c in enumerate(model.coefficients[1:], 1):
                full = sum(Fraction(fk * col[n], sk)
                           for fk, col, sk in zip(f[1:], cols[1:], scales[1:]))
                assert c == full * r**n / math.factorial(n), (key, f[:6], n)


class TestGrading:
    # the registry formulas state a geometric ratio r with d_j = r^j e_j

    def test_a7_values_are_a_power_times_an_integer(self):
        fam = get_family("a7")
        r, graded = fam.graded(MAX_ORDER, fam.validate(alpha=4, beta=3))
        assert r == Fraction(-3, 8)
        assert all(e.denominator == 1 for e in graded)
        values = bell._raw(derivative_sequence("a7", MAX_ORDER, alpha=4, beta=3))
        assert [r**j * e for j, e in enumerate(graded, 1)] == values

    def test_graded_triangle_is_the_row_scaled_triangle(self):
        # B(n, k) over r^j e_j is r^n B(n, k) over e_j
        fam = get_family("a7")
        for params in A7_EXACT_SAMPLES:
            values = bell._raw(derivative_sequence("a7", 10, **params))
            r, graded = fam.graded(10, fam.validate(**params))
            assert r != 1
            plain, scaled = bell._triangle(values, 10), bell._triangle(list(graded), 10)
            for n in range(11):
                assert plain[n] == [r**n * b for b in scaled[n]], (params, n)

    def test_a5_ratio_is_one_over_the_denominator_of_alpha(self):
        fam = get_family("a5")
        for alpha in (Fraction(-3, 2), Fraction(1, 5), Fraction(7, 3)):
            r, graded = fam.graded(12, fam.validate(alpha=alpha))
            assert r == Fraction(1, alpha.denominator)
            assert all(isinstance(e, int) for e in graded)
            assert [r**j * e for j, e in enumerate(graded, 1)] == [
                falling_factorial(alpha, j).as_fraction() for j in range(1, 13)]

    @pytest.mark.parametrize("key", [k for k in FAMILY_KEYS if k != "a7"])
    def test_other_families_are_left_alone(self, key):
        # at the catalog defaults no other formula states a ratio; its
        # values are the derivatives
        fam = get_family(key)
        params = get_expansion(key).param_dict()
        r, values = fam.graded(MAX_ORDER, params)
        assert r == 1
        assert list(values) == bell._raw(derivative_sequence(key, MAX_ORDER, **params))

    def test_degenerate_inputs(self):
        fam = get_family("a7")
        # one term, and a ratio of magnitude 1
        assert fam.derivatives(1, fam.validate(alpha=4, beta=3)) == [Fraction(3, 4)]
        r, e = fam.graded(3, fam.validate(alpha=1, beta=2))
        assert r == -1 and list(e) == [-1, -1, -3]
        # an irrational root or a float beta: float values, no ratio
        for params in ({"alpha": 2, "beta": 3}, {"alpha": 4, "beta": 0.5}):
            r, e = fam.graded(6, fam.validate(**params))
            assert r == 1 and all(isinstance(v, float) for v in e)


class TestInverseCoefficients:
    # the coefficients of the basis series by Lagrange inversion, an
    # independent oracle, match TruncatedSeries.reversion of every family's
    # inverse-basis series
    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_matches_series_reversion(self, key):
        params = get_expansion(key).param_dict()
        for order in (1, 2, 3, 9, 16):
            series = family_series(key, order, **params)
            got = [c.as_fraction() for c in series.reversion()]
            assert got == revert_by_lagrange([c.as_fraction() for c in series.coeffs],
                                             order), order

    def test_second_parameter_sets(self):
        for key, params in [("a5", {"alpha": Fraction(-3, 2)}), ("a6", {"w": 3}),
                            ("a10", {"w": Fraction(1, 2)}), ("c1", {"w": -2}),
                            ("c5", {"alpha": 2, "w": -1, "beta": 3})]:
            series = family_series(key, 12, **params)
            assert [c.as_fraction() for c in series.reversion()] == revert_by_lagrange(
                [c.as_fraction() for c in series.coeffs], 12), key


class TestGate:
    def test_clean_run_reports_no_fallbacks(self):
        bell_values("a1", 6)
        bell_values("a13", 6)
        report = gate_report()
        assert report, "gate should have recorded outcomes"
        relevant = {tok: ok for tok, ok in report.items() if tok[0] in ("a1", "a13")}
        assert all(relevant.values())

    def test_sabotaged_closed_form_falls_back(self, monkeypatch):
        # force a wrong formula through the gate and check the fallback
        def wrong(n, k):
            return bell._cf_a1(n, k) + 1

        monkeypatch.setattr(bell, "_gate_results", {})
        monkeypatch.setitem(bell._CLOSED_FORMS, "a1", wrong)
        with pytest.warns(RuntimeWarning, match="come from the recurrence"):
            rows = bell_values("a1", 6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert rows[n][k] == stirling2(n, k), (n, k)
        assert gate_report() == {("a1", ()): False}

    def test_gate_keys_exactness(self, monkeypatch):
        # 0.5 and 1/2 are equal numbers with different derivative tables
        monkeypatch.setattr(bell, "_gate_results", {})
        bell_values("a5", 5, alpha=0.5)
        bell_values("a5", 5, alpha=Fraction(1, 2))
        assert gate_report() == {("a5", (("alpha", (False, 0.5)),)): True,
                                 ("a5", (("alpha", (True, Fraction(1, 2))),)): True}

    def test_gate_outcome_is_cached(self, monkeypatch):
        calls = {"n": 0}
        real = bell._run_gate

        def counting(key, kwargs):
            calls["n"] += 1
            return real(key, kwargs)

        monkeypatch.setattr(bell, "_gate_results", {})
        monkeypatch.setattr(bell, "_run_gate", counting)
        bell_values("a4", 5)
        bell_values("a4", 7)
        assert calls["n"] == 1

    # a closed-form cell with no finite float is unchecked: here a float
    # power in the closed form overflows, or (a5) the closed form gives nan
    # where the recurrence's value is beyond the float range
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key,params", [
        *((key, {"w": w}) for key in ("a6", "a10", "c1") for w in (1e300, -1e300, 1e154)),
        ("a7", {"alpha": 1e154, "beta": 1e-30}),
        ("a5", {"alpha": 3e30}),
    ])
    def test_closed_form_without_a_finite_float_is_unchecked(self, monkeypatch, key, params):
        monkeypatch.setattr(bell, "_gate_results", {})
        rows = bell_values(key, 8, **params)
        assert [len(row) for row in rows] == list(range(1, 10))
        assert list(gate_report().values()) == [True]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", [math.nan, math.inf, OverflowError, ZeroDivisionError])
    def test_unchecked_cells_are_no_disagreement(self, monkeypatch, cell):
        def no_float(n, k):
            if isinstance(cell, float):
                return scalar(cell)
            raise cell

        monkeypatch.setattr(bell, "_gate_results", {})
        monkeypatch.setitem(bell._CLOSED_FORMS, "a1", no_float)
        bell_values("a1", 6)
        assert gate_report() == {("a1", ()): True}

    def test_a_finite_mismatch_beside_unchecked_cells_still_disagrees(self, monkeypatch):
        def partly(n, k):
            return scalar(math.nan) if k == 1 else scalar(float(bell._cf_a1(n, k)) * 2)

        monkeypatch.setattr(bell, "_gate_results", {})
        monkeypatch.setitem(bell._CLOSED_FORMS, "a1", partly)
        with pytest.warns(RuntimeWarning, match="disagree"):
            bell_values("a1", 6)
        assert gate_report() == {("a1", ()): False}
