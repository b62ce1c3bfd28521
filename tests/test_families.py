"""The family registry: its public views, parameter validation, and its
derivative formulas against independently built inverse-basis series."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

import funcseries.catalog as catalog
from funcseries.bell import (
    CLOSED_FORM_FAMILIES,
    bell_closed_form,
    bell_values,
    derivative_sequence,
)
from funcseries.catalog import PARAM_DEFAULTS, get_expansion
from funcseries.pseries import (
    ELEMENTARY_KINDS,
    FAMILIES,
    FAMILY_KEYS,
    FAMILY_PARAMS,
    MAX_ORDER,
    family_series,
)
from oracles import composite_inverse_series, elementary_series, sq_arccos_shift_by_reversion

KEYS = tuple(f"a{i}" for i in range(1, 14)) + tuple(f"c{i}" for i in range(1, 7))

LABELS = {
    "a1": "powers of ln(1+x)",
    "a2": "powers of 1 - exp(-x)",
    "a3": "powers of asinh(x)",
    "a4": "powers of arcsin(x)",
    "a5": "powers of (1+x)^(1/alpha) - 1",
    "a6": "powers of sqrt(2x + w^2) - w",
    "a7": "powers of (x^2 + 2 sqrt(alpha) x)/beta",
    "a8": "powers of 1 - 1/sqrt(1+x)",
    "a9": "powers of (sqrt(4x^2+1) - 1)/(2x)",
    "a10": "powers of W(exp(w-1) (w+x-1)) + 1 - w",
    "a11": "powers of W(-(1+x) exp(-(1+x)))/(1+x) + 1",
    "a12": "powers of the inverse of (exp(y)-1)/y - 1",
    "a13": "powers of sin(x)",
    "c1": "inverse basis y (exp(y) + w - 1)",
    "c2": "inverse basis (y-2) exp(y) - y + 2",
    "c3": "inverse basis (2 exp(y) - y^2 - 2y - 2)/(2 y^2)",
    "c4": "inverse basis (6y exp(y) - 12 exp(y) - y^3 + 6y + 12)/(6 y^3)",
    "c5": "inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)",
    "c6": "inverse basis -arccos(1+y)^2/(2y) - 1",
}

# The elementary series that is each a-family's inverse basis.
KINDS = {
    "a1": "exp_m1", "a2": "neg_ln_1m", "a3": "sinh", "a4": "sin", "a5": "pow_alpha_m1",
    "a6": "half_sq_plus_wx", "a7": "sqrt_shift", "a8": "inv_sq_m1", "a9": "odd_geom",
    "a10": "lambert_pair", "a11": "log_ratio", "a12": "expm1_ratio", "a13": "arcsin",
}


# -- the registry and its views ------------------------------------------------


def test_registry_keys_match_the_catalog():
    assert tuple(FAMILIES) == FAMILY_KEYS == KEYS
    assert set(catalog._BUILDERS) == set(KEYS)
    assert all(FAMILIES[key].key == key for key in KEYS)


def test_public_views_are_unchanged():
    assert FAMILY_PARAMS == {
        "a5": ("alpha",), "a6": ("w",), "a7": ("alpha", "beta"), "a10": ("w",),
        "c1": ("w",), "c5": ("alpha", "w", "beta"),
    }
    assert PARAM_DEFAULTS == {
        "a5": {"alpha": Fraction(2)},
        "a6": {"w": Fraction(1)},
        "a7": {"alpha": Fraction(4), "beta": Fraction(3)},
        "a10": {"w": Fraction(1)},
        "c1": {"w": Fraction(1)},
        "c5": {"alpha": Fraction(1), "w": Fraction(1), "beta": Fraction(1)},
    }
    assert ELEMENTARY_KINDS == tuple(KINDS.values()) + ("sq_arccos_shift",)
    assert CLOSED_FORM_FAMILIES == KEYS[:13] + ("c1", "c2")
    for key in KEYS:
        assert get_expansion(key).label == LABELS[key], key


def test_parameter_order_is_unchanged():
    for key in KEYS:
        exp = get_expansion(key)
        assert tuple(name for name, _ in exp.params) == FAMILY_PARAMS.get(key, ()), key
    exp = get_expansion("c5", beta=3, w=2, alpha=Fraction(1, 2))
    assert exp.params == (("alpha", Fraction(1, 2)), ("w", 2), ("beta", 3))


# -- validation: one table, every entry point -------------------------------------

INVALID = [
    ("a5", {"alpha": 0}),
    ("a6", {"w": 0}),
    ("a10", {"w": 0}),
    ("c1", {"w": 0}),
    ("c5", {"alpha": 1, "w": 0, "beta": 1}),
    ("a7", {"alpha": 0, "beta": 3}),
    ("a7", {"alpha": -1, "beta": 3}),
    ("a7", {"alpha": 4, "beta": 0}),
    ("a1", {"w": 1}),  # a parameter the family does not take
    ("a7", {"alpha": 4}),  # a missing parameter
    ("zz", {}),  # an unknown key
]

ENTRY_POINTS = {
    "family_series": lambda key, params: family_series(key, 4, **params),
    "derivative_sequence": lambda key, params: derivative_sequence(key, 4, **params),
    "bell_values": lambda key, params: bell_values(key, 4, **params),
    "get_expansion": lambda key, params: get_expansion(key, **params),
    "bell_closed_form": lambda key, params: bell_closed_form(key, 3, 2, **params),
}


def _applies(entry, key, params):
    if entry == "get_expansion":
        return params != {"alpha": 4}  # it fills a missing parameter with its default
    if entry == "bell_closed_form":
        return key in CLOSED_FORM_FAMILIES or key not in FAMILY_KEYS
    return True


@pytest.mark.parametrize(
    "entry,key,params",
    [(e, k, p) for k, p in INVALID for e in ENTRY_POINTS if _applies(e, k, p)],
    ids=lambda v: str(v).replace(" ", ""),
)
def test_invalid_parameters_raise_value_error(entry, key, params):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](key, params)


@pytest.mark.parametrize("key", ["a6", "a10"])
@pytest.mark.parametrize("w", [0, -1, Fraction(-1, 2)])
def test_catalog_requires_positive_w(key, w):
    # a non-positive w breaks g(0) = 0; the exact layers accept w < 0
    with pytest.raises(ValueError):
        get_expansion(key, w=w)
    if w:
        assert derivative_sequence(key, 3, w=w)[0] == w


# -- derivative formulas against independent series ------------------------------

SECOND_PARAMS = {
    "a5": {"alpha": Fraction(-5, 3)},
    "a6": {"w": 3},
    "a7": {"alpha": Fraction(9, 4), "beta": -2},
    "a10": {"w": Fraction(1, 2)},
    "c1": {"w": Fraction(-1, 2)},
    "c5": {"alpha": Fraction(-3, 2), "w": Fraction(5, 7), "beta": 0},
}

ORACLE_CASES = [(key, PARAM_DEFAULTS.get(key, {})) for key in KEYS]
ORACLE_CASES += SECOND_PARAMS.items()


@lru_cache(maxsize=None)
def _c6_oracle():
    return sq_arccos_shift_by_reversion(MAX_ORDER)


def _oracle_series(key, order, params):
    if key == "c6":
        return _c6_oracle()[: order + 1]
    if key.startswith("c"):
        return composite_inverse_series(key, order, **params)
    return elementary_series(KINDS[key], order, **params)


@pytest.mark.parametrize("key,params", ORACLE_CASES, ids=str)
def test_derivatives_are_factorial_times_the_oracle_series(key, params):
    # The oracles build each inverse basis from its defining function,
    # never from the package's derivative formulas.
    for order in (1, 2, 3, 20, MAX_ORDER):
        series = _oracle_series(key, order, params)
        assert series[0] == 0
        expected = [math.factorial(n) * c for n, c in enumerate(series[1:], 1)]
        got = derivative_sequence(key, order, **params)
        assert all(d.is_exact for d in got), (key, order)
        assert [d.as_fraction() for d in got] == expected, (key, order)
        assert [c.as_fraction() for c in family_series(key, order, **params)] == series
