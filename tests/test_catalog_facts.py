"""Pinned catalog facts: each entry's repr, its d_1 and its float evaluators.

Each case is (key, parameters, repr of the entry, d_1 as a float, digest).
The digest covers eval_g and invert_numeric at POINTS (the repr of each
value, or the name of the error raised) and str(map_domain) at RADII.  The
values were recorded with CPython 3.11 on x86-64 Linux; a change to a basis
builder, to the derived fields (increasing, implicit, side) or to the
domain scan of c1-c5 shows up here.
"""

import hashlib
from fractions import Fraction

import pytest

from funcseries.catalog import (
    ConvergenceError,
    DomainError,
    eval_g,
    get_expansion,
    invert_numeric,
    map_domain,
)
from funcseries.pseries import FAMILY_KEYS

POINTS = (-50.0, -3.0, -1.5, -1.0, -0.75, -0.5, -0.1, -1e-3, -1e-9, 0.0, 1e-9, 1e-3,
          0.1, 0.4, 0.9, 1.0, 1.3, 2.0, 5.0, 30.0, 1e3)
RADII = (0.25, 0.5, 1.0, 2.0, 10.0, float("inf"))

CASES = [
    ('a1', {},
     "Expansion(key='a1', label='powers of ln(1+x)', params=(), domain=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '7f93712993541dde'),
    ('a2', {},
     "Expansion(key='a2', label='powers of 1 - exp(-x)', params=(), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=1.0, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '5b9d2dcb97e1f9d7'),
    ('a3', {},
     "Expansion(key='a3', label='powers of asinh(x)', params=(), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '5dd146f1b03145ae'),
    ('a4', {},
     "Expansion(key='a4', label='powers of arcsin(x)', params=(), domain=Interval(lo=-1.0, hi=1.0, lo_closed=True, hi_closed=True), image=Interval(lo=-1.5707963267948966, hi=1.5707963267948966, lo_closed=True, hi_closed=True), side='both', increasing=True, implicit=False)",
     1.0, '12ab71557e11ab31'),
    ('a5', {},
     "Expansion(key='a5', label='powers of (1+x)^(1/alpha) - 1', params=(('alpha', ExactScalar(2)),), domain=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     2.0, 'eea89768622203f0'),
    ('a6', {},
     "Expansion(key='a6', label='powers of sqrt(2x + w^2) - w', params=(('w', ExactScalar(1)),), domain=Interval(lo=-0.5, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '9e71c255634090e5'),
    ('a7', {},
     "Expansion(key='a7', label='powers of (x^2 + 2 sqrt(alpha) x)/beta', params=(('alpha', ExactScalar(4)), ('beta', ExactScalar(3))), domain=Interval(lo=-2.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1.3333333333333333, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     0.75, 'bc0c5dcd20fc7fd5'),
    ('a8', {},
     "Expansion(key='a8', label='powers of 1 - 1/sqrt(1+x)', params=(), domain=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=1.0, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     2.0, 'cad416464a0cbf61'),
    ('a9', {},
     "Expansion(key='a9', label='powers of (sqrt(4x^2+1) - 1)/(2x)', params=(), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-1.0, hi=1.0, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '85eade2e7627d35a'),
    ('a10', {},
     "Expansion(key='a10', label='powers of W(exp(w-1) (w+x-1)) + 1 - w', params=(('w', ExactScalar(1)),), domain=Interval(lo=-0.36787944117144233, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, 'e18b8ff24740efb4'),
    ('a11', {},
     "Expansion(key='a11', label='powers of W(-(1+x) exp(-(1+x)))/(1+x) + 1', params=(), domain=Interval(lo=0.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=0.0, hi=1.0, lo_closed=True, hi_closed=False), side='right_of_zero', increasing=True, implicit=False)",
     0.5, '8c569e897d2cfc89'),
    ('a12', {},
     "Expansion(key='a12', label='powers of the inverse of (exp(y)-1)/y - 1', params=(), domain=Interval(lo=-1.0, hi=0.0, lo_closed=False, hi_closed=True), image=Interval(lo=-inf, hi=0.0, lo_closed=False, hi_closed=True), side='left_of_zero', increasing=True, implicit=False)",
     0.5, 'a9a410c05b290d9e'),
    ('a13', {},
     "Expansion(key='a13', label='powers of sin(x)', params=(), domain=Interval(lo=-1.5707963267948966, hi=1.5707963267948966, lo_closed=True, hi_closed=True), image=Interval(lo=-1.0, hi=1.0, lo_closed=True, hi_closed=True), side='both', increasing=True, implicit=False)",
     1.0, 'b08855b78584cdc9'),
    ('c1', {},
     "Expansion(key='c1', label='inverse basis y (exp(y) + w - 1)', params=(('w', ExactScalar(1)),), domain=Interval(lo=-0.3678794411714422, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-0.9999999999999997, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     1.0, '71e76748188a9572'),
    ('c2', {},
     "Expansion(key='c2', label='inverse basis (y-2) exp(y) - y + 2', params=(), domain=Interval(lo=-1.869586019429696, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=1.2784645427610737, lo_closed=False, hi_closed=False), side='both', increasing=False, implicit=True)",
     -2.0, 'ddcecd7422d7642e'),
    ('c3', {},
     "Expansion(key='c3', label='inverse basis (2 exp(y) - y^2 - 2y - 2)/(2 y^2)', params=(), domain=Interval(lo=-0.5, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     0.16666666666666666, 'b67e2892b4c0ff57'),
    ('c4', {},
     "Expansion(key='c4', label='inverse basis (6y exp(y) - 12 exp(y) - y^3 + 6y + 12)/(6 y^3)', params=(), domain=Interval(lo=-0.16666666666666666, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     0.08333333333333333, 'dfea93a463432a22'),
    ('c5', {},
     "Expansion(key='c5', label='inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)', params=(('alpha', ExactScalar(1)), ('w', ExactScalar(1)), ('beta', ExactScalar(1))), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     1.0, '1456dff93cd00019'),
    ('c6', {},
     "Expansion(key='c6', label='inverse basis -arccos(1+y)^2/(2y) - 1', params=(), domain=Interval(lo=0.0, hi=1.4674011002723395, lo_closed=True, hi_closed=True), image=Interval(lo=-2.0, hi=0.0, lo_closed=True, hi_closed=True), side='right_of_zero', increasing=False, implicit=True)",
     -0.16666666666666666, '7e734cb3a8df6124'),
    ('a5', {'alpha': Fraction(1, 1)},
     "Expansion(key='a5', label='powers of (1+x)^(1/alpha) - 1', params=(('alpha', ExactScalar(1)),), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=False)",
     1.0, '36a9af77869c482f'),
    ('a5', {'alpha': Fraction(-1, 1)},
     "Expansion(key='a5', label='powers of (1+x)^(1/alpha) - 1', params=(('alpha', ExactScalar(-1)),), domain=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=False, implicit=False)",
     -1.0, 'd4d1250ce4b77528'),
    ('a5', {'alpha': Fraction(1, 3)},
     "Expansion(key='a5', label='powers of (1+x)^(1/alpha) - 1', params=(('alpha', ExactScalar(1/3)),), domain=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1.0, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     0.3333333333333333, 'c26f1900e8d85426'),
    ('a6', {'w': Fraction(1, 100000000000000000000)},
     "Expansion(key='a6', label='powers of sqrt(2x + w^2) - w', params=(('w', ExactScalar(1/100000000000000000000)),), domain=Interval(lo=-5e-41, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1e-20, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     1e-20, 'add63f5026ba5b1f'),
    ('a10', {'w': Fraction(1, 100000000000000000000)},
     "Expansion(key='a10', label='powers of W(exp(w-1) (w+x-1)) + 1 - w', params=(('w', ExactScalar(1/100000000000000000000)),), domain=Interval(lo=0.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-1e-20, hi=inf, lo_closed=True, hi_closed=False), side='both', increasing=True, implicit=False)",
     1e-20, 'c4cfc4ce1a338b51'),
    ('a7', {'beta': Fraction(-1, 1)},
     "Expansion(key='a7', label='powers of (x^2 + 2 sqrt(alpha) x)/beta', params=(('alpha', ExactScalar(4)), ('beta', ExactScalar(-1))), domain=Interval(lo=-2.0, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-inf, hi=4.0, lo_closed=False, hi_closed=True), side='both', increasing=False, implicit=False)",
     -0.25, '9961f7b3cf7dfe8d'),
    ('a7', {'alpha': Fraction(2, 1), 'beta': Fraction(-1, 2)},
     "Expansion(key='a7', label='powers of (x^2 + 2 sqrt(alpha) x)/beta', params=(('alpha', ExactScalar(2)), ('beta', ExactScalar(-1/2))), domain=Interval(lo=-1.4142135623730951, hi=inf, lo_closed=True, hi_closed=False), image=Interval(lo=-inf, hi=4.0, lo_closed=False, hi_closed=True), side='both', increasing=False, implicit=False)",
     -0.17677669529663687, '5ed5d2ef4ebe487e'),
    ('c1', {'w': Fraction(2, 1)},
     "Expansion(key='c1', label='inverse basis y (exp(y) + w - 1)', params=(('w', ExactScalar(2)),), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     2.0, '528a7bc234bdf88e'),
    ('c1', {'w': Fraction(1, 2)},
     "Expansion(key='c1', label='inverse basis y (exp(y) + w - 1)', params=(('w', ExactScalar(1/2)),), domain=Interval(lo=-0.07238349903500386, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-0.3149230578454059, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     0.5, 'ed4c920378d4411d'),
    ('c1', {'w': Fraction(-1, 2)},
     "Expansion(key='c1', label='inverse basis y (exp(y) + w - 1)', params=(('w', ExactScalar(-1/2)),), domain=Interval(lo=-0.05593723326484689, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=0.2126538695820518, lo_closed=False, hi_closed=False), side='both', increasing=False, implicit=True)",
     -0.5, '381c9a6e98c6d16a'),
    ('c1', {'w': Fraction(-3, 1)},
     "Expansion(key='c1', label='inverse basis y (exp(y) + w - 1)', params=(('w', ExactScalar(-3)),), domain=Interval(lo=-1.4195701216969643, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=0.7990407531718925, lo_closed=False, hi_closed=False), side='both', increasing=False, implicit=True)",
     -3.0, 'd3dcd4eea1367c79'),
    ('c5', {'alpha': Fraction(1, 2), 'w': Fraction(2, 1), 'beta': Fraction(3, 1)},
     "Expansion(key='c5', label='inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)', params=(('alpha', ExactScalar(1/2)), ('w', ExactScalar(2)), ('beta', ExactScalar(3))), domain=Interval(lo=-0.8117432015509572, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-0.89276880143357, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     2.0, '3df54d23de2fe3c5'),
    ('c5', {'alpha': Fraction(2, 1), 'w': Fraction(-1, 1), 'beta': Fraction(0, 1)},
     "Expansion(key='c5', label='inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)', params=(('alpha', ExactScalar(2)), ('w', ExactScalar(-1)), ('beta', ExactScalar(0))), domain=Interval(lo=-0.7182818284590451, hi=2.0, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=0.9999999999999998, lo_closed=False, hi_closed=False), side='both', increasing=False, implicit=True)",
     -1.0, 'a65ecd5a1810f4c6'),
    ('c5', {'alpha': Fraction(0, 1), 'w': Fraction(1, 1), 'beta': Fraction(2, 1)},
     "Expansion(key='c5', label='inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)', params=(('alpha', ExactScalar(0)), ('w', ExactScalar(1)), ('beta', ExactScalar(2))), domain=Interval(lo=-0.36787944117144233, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-0.9999999999999999, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     1.0, '9b91f1bff8c10016'),
    ('c5', {'alpha': Fraction(-1, 1), 'w': Fraction(3, 1), 'beta': Fraction(-2, 1)},
     "Expansion(key='c5', label='inverse basis alpha + (alpha+w-1) y + (alpha+beta-2) y^2/2 + (y-alpha) exp(y)', params=(('alpha', ExactScalar(-1)), ('w', ExactScalar(3)), ('beta', ExactScalar(-2))), domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), side='both', increasing=True, implicit=True)",
     3.0, 'abf172ee427318d6'),
]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (DomainError, ConvergenceError) as err:
        return type(err).__name__


def _digest(exp):
    parts = [_outcome(eval_g, exp, x) for x in POINTS]
    parts += [_outcome(invert_numeric, exp, x) for x in POINTS]
    parts += [_outcome(lambda e, r: str(map_domain(e, r)), exp, r) for r in RADII]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def test_every_family_is_pinned_at_its_defaults():
    assert [key for key, params, *_ in CASES if not params] == list(FAMILY_KEYS)


@pytest.mark.parametrize(
    "key, params, text, d1, digest", CASES,
    ids=[key + "".join(f"-{n}={v}" for n, v in params.items()) for key, params, *_ in CASES],
)
def test_catalog_entry_pinned(key, params, text, d1, digest):
    exp = get_expansion(key, **params)
    assert repr(exp) == text
    assert exp._d1 == d1
    assert exp.increasing == (d1 > 0)
    assert _digest(exp) == digest
