"""Tests for coefficient assembly, evaluation, radius and error reporting."""

import copy
import hashlib
import json
import math
import os
import pickle
import random
import struct
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from funcseries import approx, bell, catalog, implicit
from funcseries.approx import (
    BUILTIN_FUNCTIONS,
    ApproximationModel,
    FunctionSpec,
    assemble,
    assemble_via_composition,
    builtin_function,
    error_report,
    estimate_radius,
    evaluate,
    format_decimal,
    function_from_derivatives,
    taylor_baseline,
)
from funcseries.catalog import ConvergenceError, DomainError, Interval, eval_g, get_expansion
from funcseries.exact import ExactScalar, falling_factorial
from funcseries.pseries import FAMILY_KEYS, MAX_ORDER, TruncatedSeries, family_series, get_family
from oracles import poly_eval_float, revert_by_lagrange


def fracs(model):
    return [c.as_fraction() for c in model.coefficients]


# repr of every coefficient of assemble(get_expansion(key), f at x0 = 1, 16),
# recorded before the Bell kernel replaced the gated closed forms.  The
# exp rows, whose every f^(k) is the float e, were re-recorded when each
# float coefficient became the correctly rounded value of its exact
# rational: 10 of their 51 coefficients moved, each by one ulp.
SHIFTED_CENTER_REPRS = {
    ('a1', 'ln1p'): (
        'ExactScalar(~0.6931471805599453)',
        'ExactScalar(1/2)',
        'ExactScalar(1/8)',
        'ExactScalar(0)',
        'ExactScalar(-1/192)',
        'ExactScalar(0)',
        'ExactScalar(1/2880)',
        'ExactScalar(0)',
        'ExactScalar(-17/645120)',
        'ExactScalar(0)',
        'ExactScalar(31/14515200)',
        'ExactScalar(0)',
        'ExactScalar(-691/3832012800)',
        'ExactScalar(0)',
        'ExactScalar(5461/348713164800)',
        'ExactScalar(0)',
        'ExactScalar(-929569/669529276416000)',
    ),
    ('a1', 'exp'): (
        'ExactScalar(~2.718281828459045)',
        'ExactScalar(~2.718281828459045)',
        'ExactScalar(~2.718281828459045)',
        'ExactScalar(~2.2652348570492045)',
        'ExactScalar(~1.6989261427869031)',
        'ExactScalar(~1.1779221256655863)',
        'ExactScalar(~0.7664044599683141)',
        'ExactScalar(~0.47300261181717906)',
        'ExactScalar(~0.27910929488641983)',
        'ExactScalar(~0.1584091320172603)',
        'ExactScalar(~0.08687520256160101)',
        'ExactScalar(~0.04620972874422434)',
        'ExactScalar(~0.02391170333783759)',
        'ExactScalar(~0.012067628030900567)',
        'ExactScalar(~0.005952378177122976)',
        'ExactScalar(~0.002874776147929865)',
        'ExactScalar(~0.0013615765445408779)',
    ),
    ('a8', 'ln1p'): (
        'ExactScalar(~0.6931471805599453)',
        'ExactScalar(1)',
        'ExactScalar(1)',
        'ExactScalar(5/6)',
        'ExactScalar(5/8)',
        'ExactScalar(9/20)',
        'ExactScalar(1/3)',
        'ExactScalar(15/56)',
        'ExactScalar(15/64)',
        'ExactScalar(31/144)',
        'ExactScalar(1/5)',
        'ExactScalar(65/352)',
        'ExactScalar(65/384)',
        'ExactScalar(129/832)',
        'ExactScalar(1/7)',
        'ExactScalar(17/128)',
        'ExactScalar(255/2048)',
    ),
    ('a8', 'exp'): (
        'ExactScalar(~2.718281828459045)',
        'ExactScalar(~5.43656365691809)',
        'ExactScalar(~13.591409142295225)',
        'ExactScalar(~30.80719405586918)',
        'ExactScalar(~65.69181085442692)',
        'ExactScalar(~133.92068474874895)',
        'ExactScalar(~263.46191544053613)',
        'ExactScalar(~503.31361157102793)',
        'ExactScalar(~937.9377514934672)',
        'ExactScalar(~1710.8407987201974)',
        'ExactScalar(~3062.7072408039708)',
        'ExactScalar(~5392.493832020861)',
        'ExactScalar(~9354.469507091066)',
        'ExactScalar(~16011.124401600908)',
        'ExactScalar(~27072.33074018488)',
        'ExactScalar(~45266.82233271947)',
        'ExactScalar(~74915.46098567889)',
    ),
    ('c3', 'ln1p'): (
        'ExactScalar(~0.6931471805599453)',
        'ExactScalar(1/12)',
        'ExactScalar(5/288)',
        'ExactScalar(17/6480)',
        'ExactScalar(109/414720)',
        'ExactScalar(73/8709120)',
        'ExactScalar(-4223/1567641600)',
        'ExactScalar(-3767/6270566400)',
        'ExactScalar(-33217/601974374400)',
        'ExactScalar(175699/111741493248000)',
        'ExactScalar(1011413/758487711744000)',
        'ExactScalar(5361683/26031298267054080)',
        'ExactScalar(2407264577/234281684403486720000)',
        'ExactScalar(-1085148937/468563368806973440000)',
        'ExactScalar(-544945319/865040065489797120000)',
        'ExactScalar(-10043437935919/150549410397680566272000000)',
        'ExactScalar(7510887714973/7708129812361244993126400000)',
    ),
    ('c3', 'exp'): (
        'ExactScalar(~2.718281828459045)',
        'ExactScalar(~0.45304697140984085)',
        'ExactScalar(~0.1510156571366136)',
        'ExactScalar(~0.04362674539502171)',
        'ExactScalar(~0.0115708755815322)',
        'ExactScalar(~0.002910613718070645)',
        'ExactScalar(~0.0007054906684991492)',
        'ExactScalar(~0.00016592091926565035)',
        'ExactScalar(~3.799718086059017e-05)',
        'ExactScalar(~8.49587197847385e-06)',
        'ExactScalar(~1.859258526447091e-06)',
        'ExactScalar(~3.991171431597848e-07)',
        'ExactScalar(~8.419637929478191e-08)',
        'ExactScalar(~1.748161409183201e-08)',
        'ExactScalar(~3.5769884309305574e-09)',
        'ExactScalar(~7.220609181033952e-10)',
        'ExactScalar(~1.4393353642011628e-10)',
    ),
}

# a7 with alpha = 2 (irrational root) at N = 12, as the closed form gave it.
A7_IRRATIONAL_FLOATS = {
    "ln1p": [
        0.0, 1.0606601717798212, -0.960247564417433,
        1.1179332377305078, -1.4390463287006197, 1.955421014365139,
        -2.7484772601769323, 3.9535544094284707, -5.783458281408734,
        8.569247740204515, -12.82535289929267, 19.35217505428049,
        -29.397454156253144,
    ],
    "exp": [
        1.0, 1.0606601717798212, 0.16475243558256703,
        0.07530945552179118, -0.055157073715813576, 0.06215108427470504,
        -0.07198836007338615, 0.08650818555813472, -0.10687804588259381,
        0.13494924775258818, -0.17339626645808226, 0.2260071443090762,
        -0.298112185994794,
    ],
}


# sha256 of the reprs of every coefficient of assemble(get_expansion(key,
# **params), target, N), one repr a line, over the case's targets and then
# its orders N.  Recorded from the commit before the column Bell kernel;
# the c6 ln1p digest is older, from when c6 was built by reverting the
# series of cos(sqrt(s)) - 1.  "name@1/2" is the builtin at x0 = 1/2.
PIN_TARGETS = ("ln1p", "exp", "pow:1/5", "sin", "sq")
PIN_ORDERS = (1, 7, 20, MAX_ORDER)
FAMILY_DIGESTS = {
    "a1": "c2d554694c76d9a67de44191cf9ed817a633ee496709d7ff71c86769b6c97967",
    "a2": "01948df27faf5dff7d5cc5d42e1c966c8d27d4b4737b590ddf36af4e8a67766c",
    "a3": "c48ecb15f1c5ffcdc86dc6b48626a47cf03198bbafe4e44b101406bc07934344",
    "a4": "f25fe586ad97e1eeeab56ea6f99ced9679a3ec83b82f805e18806ae26abb8777",
    "a5": "68f6a33f2fa3171695b8cb6ffa1b3414d3194c21b6e797ec1c0e05f2c1b9d56e",
    "a6": "f6a2624cbb21ac135c106869831501c25f8cc409b0d7d99b3d397d84f5b20cfd",
    "a7": "2158028ed9e171f316607cd5bee02d3cb10be6546cebe05245c018cf2fc8793b",
    "a8": "6f97fab0e10b485ea04169f34d4086ff38a863b217f5800fbd6d4897ec2c396a",
    "a9": "b0d77796e6c92e6918675c4039116b5948d415b0ba8092f53f16735e23cde6ba",
    "a10": "25cc6b5a96e59b326f03cd13f52e76f7aa0741d279750b7456e8b0c525a495f1",
    "a11": "59a72fa46364ba87892a501f1178e15e243d925336d8be7d0303622aa433033e",
    "a12": "e4868fe30264461233c9db662dad4aa0e437a0328ef1e4e40549ca140c1bec3d",
    "a13": "c123a1868a55f71afcc4282964796aaa9aef11e5f9fa2412368f7e6db55f288b",
    "c1": "25cc6b5a96e59b326f03cd13f52e76f7aa0741d279750b7456e8b0c525a495f1",
    "c2": "a8540fcd031d3a220de4ce9b0682146e801204c742112a09a9af9459c3ca5d1d",
    "c3": "1d26230938fd3df788faf33681b36350bd50d6e9e6e69d4c3ac71a70b7f4f157",
    "c4": "8f0edb340a1882642ae52ce7f03c976350c73d9230fb70615ebe46adfd48822f",
    "c5": "2e7424aef6c5485ad5ad90541fc90881492ad400a7a14d8e03d2686d7a803282",
    "c6": "2f545fa0d6afb5c7c25b9ab4667c59c4caae611437349a09d4a887c06cfed1ca",
}
FLOAT_TARGETS = ("ln1p@1/2", "exp@1/2", "sin@1/2", "sq@1/2")
COEFFICIENT_PINS = [
    pytest.param(key, {}, PIN_TARGETS, PIN_ORDERS, digest, id=key)
    for key, digest in FAMILY_DIGESTS.items()
] + [
    pytest.param("c6", {}, ("ln1p",), (MAX_ORDER,),
                 "1e16e21537d5b2ef753881dea224113178bf9f891daf56b3774afd345775d791",
                 id=f"c6-ln1p-{MAX_ORDER}"),
    # float inputs, re-recorded when each float coefficient became the
    # correctly rounded value of its exact rational: an irrational root in
    # the triangle, float target derivatives
    pytest.param("a7", {"alpha": Fraction(31, 21)}, PIN_TARGETS, (MAX_ORDER,),
                 "376e73929b090cdd9472c334fcfef54a84c0060d5a72d4488ebf4f4073fd2095",
                 id="a7-irrational-root"),
    pytest.param("a1", {}, FLOAT_TARGETS, PIN_ORDERS,
                 "e47cbad16a918132cb825da907a273bb3c6c9b1da1cb102b67f74d0063399ace",
                 id="a1-x0-half"),
    pytest.param("a8", {}, FLOAT_TARGETS, PIN_ORDERS,
                 "a29fd96503b794878a76dd4a7f1f810e1451e5a9e520a7ee219d3d1ce219f122",
                 id="a8-x0-half"),
    pytest.param("c3", {}, FLOAT_TARGETS, PIN_ORDERS,
                 "adb9ab1b25158be55ef5f2fcdc5dceaf4d934603822cf01314513ded169d19ba",
                 id="c3-x0-half"),
]
# The composition recurrence at MAX_ORDER, recorded before its running
# denominators: the three ODE targets plus two whose ODE has a common
# denominator t != 1, over a stated ratio r != 1 (a5 with alpha = p / q,
# a7), d_j with a common denominator D != 1 (a11, a12, c3, c4, c6, and c1
# and c5 at non-integer parameters), and odd (a9) and plain (a2) bases.
ODE_PIN_TARGETS = ("ln1p", "exp", "pow:1/5", "pow:-1/3", "pow:3/2")
ODE_PINS = [
    ("a2", {}, "c5bc8315a5ca42e7c380f8b810a13e19606bb9acd7cfe7e152475baa9d5d9933"),
    ("a9", {}, "ef753fcb286539e0afdfac163eb8fc537c48e349397ec65c0c219d7f4c062562"),
    ("a5", {"alpha": Fraction(2, 3)},
     "4ed697b91e1681c99471801bc201d2331a96152d274d0a2b6e4dc1a731aaf589"),
    ("a5", {"alpha": Fraction(-5, 7)},
     "67d1fac3521663ea766bd516fbafdfe818a4ce97d8165dee15864ee97517e7ee"),
    ("a7", {}, "e7792658a4af545298edcf290e765c4b80e174547a831805950887bf20255467"),
    ("a7", {"alpha": Fraction(9, 4), "beta": -1},
     "07a10dcf9aaf284e10edc4c43a0fd25e8d2d4e01219845a5f1d9b1b790544144"),
    ("a11", {}, "4f8dc15e0236eadfe6412a32d6720083cf2491b255fcb5585d47a2188e0778f3"),
    ("a12", {}, "2a89c5997b6ffd8a96d4715be70a66324c47c0f04e84f62d473b9b32c6a660d7"),
    ("c3", {}, "0cae059772e6317552811d486db3946892bb857c016fb37e94dbac77032789dc"),
    ("c4", {}, "10be7f734e62f4a85c08cc5bdaac3b788014d3e7174b31100a6cb139f253c1ec"),
    ("c5", {}, "f89368a6306762cab33c16f62c203f34d1cdb6b8799a7aba568efb3cb821bd1d"),
    ("c6", {}, "884fe9e0c8e97f5d1db02986a6328a4a5c1b4c5eccf0e813c76c3e5aeba47598"),
    ("c1", {"w": Fraction(3, 2)},
     "60c76f0e026f9fe855df03d5b8cc301f60ba99a15fe37e02dc7ccc6d425caa1d"),
    ("c5", {"alpha": Fraction(1, 2), "w": Fraction(-2, 3), "beta": Fraction(5, 4)},
     "08ca53e2c0ba73ef61d939511591f1ab9eeed481c6f0727e5d461f10b4f9c438"),
]
COEFFICIENT_PINS += [
    pytest.param(key, params, ODE_PIN_TARGETS, (MAX_ORDER,), digest,
                 id="-".join(["ode", key, *(f"{name}={v}" for name, v in params.items())]))
    for key, params, digest in ODE_PINS
]


def pin_target(spec):
    name, _, x0 = spec.partition("@")
    if name.startswith("pow:"):
        return builtin_function("pow", alpha=Fraction(name[4:]))
    return builtin_function(name, x0=Fraction(x0 or 0))


class TestBuiltinFunctions:
    def test_registry(self):
        assert set(BUILTIN_FUNCTIONS) == {"exp", "sin", "sq", "ln1p", "pow"}

    def test_exp(self):
        f = builtin_function("exp")
        assert [f.derivative(n).as_fraction() for n in range(5)] == [1, 1, 1, 1, 1]
        assert f.value_at(1.0) == pytest.approx(math.e, rel=1e-15)

    def test_sin(self):
        f = builtin_function("sin")
        assert [f.derivative(n).as_fraction() for n in range(6)] == [0, 1, 0, -1, 0, 1]
        assert f.value_at(math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_sq(self):
        f = builtin_function("sq")
        assert [f.derivative(n).as_fraction() for n in range(5)] == [0, 0, 2, 0, 0]
        assert f.value_at(-3.0) == 9.0

    def test_pow_alpha_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="alpha has no finite float value"):
            builtin_function("pow", alpha=Fraction(10**400))
        with pytest.raises(ValueError, match="alpha has no finite float value"):
            builtin_function("pow", alpha=-math.inf)

    def test_pow_alpha_that_rounds_to_zero_keeps_its_domain(self):
        f = builtin_function("pow", alpha=Fraction(1, 10**400))
        assert f.domain == Interval(-1.0, math.inf, lo_closed=True)
        assert f.value_at(-1.0) == 0.0 and f.value_at(3.0) == 1.0
        assert builtin_function("pow", alpha=Fraction(-1, 10**400)).value_at(-1.0) is None

    def test_overflowing_reference_is_inf(self):
        assert builtin_function("exp").value_at(1000.0) == math.inf
        assert builtin_function("pow", alpha=2).value_at(1e300) == math.inf
        assert builtin_function("pow", alpha=-100).value_at(-1.0 + 1e-16) == math.inf

    def test_ln1p(self):
        f = builtin_function("ln1p")
        assert f.derivative(0) == 0
        assert [f.derivative(n).as_fraction() for n in range(1, 5)] == [1, -1, 2, -6]
        assert f.value_at(4.0) == pytest.approx(math.log(5.0), rel=1e-15)
        assert f.value_at(-1.5) is None

    def test_ln1p_derivatives_at_zero_and_elsewhere(self):
        exact, shifted = builtin_function("ln1p"), builtin_function("ln1p", x0=Fraction(1, 2))
        for n in range(1, MAX_ORDER + 1):
            assert exact.derivative(n).as_fraction() == (-1) ** (n - 1) * math.factorial(n - 1)
            assert shifted.derivative(n).as_fraction() == (
                Fraction((-1) ** (n - 1) * math.factorial(n - 1)) / Fraction(3, 2) ** n)
        # a float x0 of zero stays approximate
        assert not builtin_function("ln1p", x0=0.0).derivative(3).is_exact

    def test_pow(self):
        f = builtin_function("pow", alpha=Fraction(1, 5))
        assert f.name == "pow:1/5"
        assert f.derivative(1).as_fraction() == Fraction(1, 5)
        assert f.derivative(2).as_fraction() == Fraction(-4, 25)
        assert f.value_at(31.0) == pytest.approx(2.0, rel=1e-15)
        assert f.value_at(-1.0) == 0.0
        assert f.value_at(-2.0) is None

    def test_pow_derivatives_are_falling_factorials(self):
        for alpha in (Fraction(1, 5), Fraction(-7, 3), 2):
            f = builtin_function("pow", alpha=alpha)
            for n in range(MAX_ORDER + 3):
                assert f.derivative(n) == falling_factorial(alpha, n), (alpha, n)

    def test_pow_requires_alpha_and_origin(self):
        with pytest.raises(ValueError):
            builtin_function("pow")
        with pytest.raises(ValueError):
            builtin_function("pow", alpha=Fraction(1, 2), x0=1)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            builtin_function("exp", alpha=2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_function("cosh")

    @pytest.mark.parametrize("name, params", [("exp", {"x0": "1/0"}), ("pow", {"alpha": "1/0"})])
    def test_zero_denominator_string(self, name, params):
        with pytest.raises(ValueError, match="'1/0'"):
            builtin_function(name, **params)

    def test_shifted_centers(self):
        f = builtin_function("ln1p", x0=1)
        for n in range(1, 5):
            expected = Fraction((-1) ** (n - 1) * math.factorial(n - 1), 2**n)
            assert f.derivative(n).as_fraction() == expected
        assert not f.derivative(0).is_exact
        assert float(f.derivative(0)) == pytest.approx(math.log(2.0), rel=1e-15)
        fe = builtin_function("exp", x0=1)
        assert not fe.derivative(2).is_exact
        assert float(fe.derivative(2)) == pytest.approx(math.e, rel=1e-15)

    def test_ln1p_center_outside_domain(self):
        with pytest.raises(ValueError):
            builtin_function("ln1p", x0=-1)

    def test_derivative_index_validation(self):
        f = builtin_function("exp")
        with pytest.raises(ValueError):
            f.derivative(-1)
        with pytest.raises(ValueError):
            f.derivative(True)


class TestFunctionFromDerivatives:
    def test_basic(self):
        f = function_from_derivatives([0, 1, 0, Fraction(-1, 3)], name="probe")
        assert f.name == "probe"
        assert f.derivative(3).as_fraction() == Fraction(-1, 3)
        assert f.value_at(0.5) is None

    def test_mixed_exactness(self):
        f = function_from_derivatives([0, 1.5, "2/3"])
        assert not f.derivative(1).is_exact
        assert f.derivative(2).as_fraction() == Fraction(2, 3)

    def test_zero_denominator_string(self):
        with pytest.raises(ValueError, match="'1/0'"):
            function_from_derivatives(["1/0"])
        with pytest.raises(ValueError, match="'1/0'"):
            function_from_derivatives([0, 1], x0="1/0")

    def test_beyond_declared_order(self):
        f = function_from_derivatives([0, 1])
        with pytest.raises(ValueError):
            f.derivative(2)


class TestAssemble:
    def test_frozen_log_coefficients(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 5)
        assert fracs(m) == [0, 2, 1, Fraction(2, 3), Fraction(1, 2), Fraction(2, 5)]
        assert m.route == "bell"
        assert m.is_exact()

    def test_constant_term_is_f_at_center(self):
        m = assemble(get_expansion("a2"), builtin_function("exp"), 3)
        assert m.coefficients[0] == 1

    def test_exact_single_term_representations(self):
        # ln(1+x) in its own basis and sin in the arcsin-derivative basis
        # collapse to the bare first power
        for key, fname in (("a1", "ln1p"), ("a13", "sin")):
            m = assemble(get_expansion(key), builtin_function(fname), 8)
            assert fracs(m) == [0, 1, 0, 0, 0, 0, 0, 0, 0], key

    def test_exact_terminating_squares(self):
        m5 = assemble(get_expansion("a5", alpha=2), builtin_function("sq"), 6)
        assert fracs(m5) == [0, 0, 4, 4, 1, 0, 0]
        m6 = assemble(get_expansion("a6", w=1), builtin_function("sq"), 6)
        assert fracs(m6) == [0, 0, 1, 1, Fraction(1, 4), 0, 0]

    def test_zero_skip_keeps_structural_zeros_exact(self):
        # float d_1 with exact-zero even derivatives in an odd basis: the
        # even coefficients see only zero summands and must stay exact
        f = function_from_derivatives([0, 1.1, 0, Fraction(1, 6), 0])
        m = assemble(get_expansion("a3"), f, 4)
        assert not m.coefficients[1].is_exact
        assert m.coefficients[2].is_exact and m.coefficients[2] == 0
        assert m.coefficients[4].is_exact and m.coefficients[4] == 0

    def test_order_validation(self):
        f = builtin_function("exp")
        with pytest.raises(ValueError):
            assemble(get_expansion("a1"), f, 0)
        short = function_from_derivatives([0, 1])
        with pytest.raises(ValueError):
            assemble(get_expansion("a1"), short, 3)

    @pytest.mark.parametrize("key,fname", sorted(SHIFTED_CENTER_REPRS))
    def test_shifted_center_coefficients_pinned(self, key, fname):
        m = assemble(get_expansion(key), builtin_function(fname, x0=1), 16)
        assert tuple(repr(c) for c in m.coefficients) == SHIFTED_CENTER_REPRS[key, fname]

    @pytest.mark.parametrize("fname", sorted(A7_IRRATIONAL_FLOATS))
    def test_irrational_root_stays_float(self, fname):
        m = assemble(get_expansion("a7", alpha=2, beta=3), builtin_function(fname), 12)
        assert len(m.coefficients) == len(A7_IRRATIONAL_FLOATS[fname])
        assert m.coefficients[0].is_exact
        for n, (c, ref) in enumerate(zip(m.coefficients, A7_IRRATIONAL_FLOATS[fname])):
            if n:
                assert not c.is_exact, n
            assert float(c) == pytest.approx(ref, rel=1e-12, abs=0), n

    def test_every_family_at_max_order_within_budget(self):
        # one catalog64 benchmark pass: every family with its fixed target.
        # With the gated closed forms on the hot path it took 35-88 s on a
        # 2-vCPU x86-64 VM (a5 and a10 most of it).  Never loosen this bound.
        targets = [
            builtin_function("ln1p"),
            builtin_function("exp"),
            builtin_function("pow", alpha=Fraction(1, 5)),
        ]
        start = time.perf_counter()
        for i, key in enumerate(FAMILY_KEYS):
            m = assemble(get_expansion(key), targets[i % 3], MAX_ORDER)
            assert m.is_exact(), key
        elapsed = time.perf_counter() - start
        assert elapsed < 8.0, f"order-{MAX_ORDER} pass took {elapsed:.2f}s"

    def test_c6_builds_without_series_reversion(self, monkeypatch):
        def refuse(self):
            raise AssertionError("c6 must not revert a series")

        catalog._series_floats.cache_clear()
        monkeypatch.setattr(TruncatedSeries, "reversion", refuse)
        exp = get_expansion("c6")
        m = assemble(exp, builtin_function("ln1p"), MAX_ORDER)
        assert m.is_exact()
        # x = 0.01 lands on the float series table (|g| < 0.0625); both
        # values were recorded while c6 was built by reversion
        assert eval_g(exp, 0.01) == -0.05905206466549482
        assert eval_g(exp, 0.3) == -1.1792266969130962

    def test_a11_a12_start_tables_without_series_reversion(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the Newton start tables must not revert a series")

        # the constant tables are the floats of the exact reversion, by both
        # the series reversion and Lagrange inversion
        for key in ("a11", "a12"):
            series = family_series(key, 16)
            by_reversion = tuple(float(c) for c in series.reversion())
            by_lagrange = tuple(float(c) for c in revert_by_lagrange(
                [c.as_fraction() for c in series.coeffs], 16))
            assert catalog._G_INIT[key] == by_reversion == by_lagrange, key
        monkeypatch.setattr(TruncatedSeries, "reversion", refuse)
        # points on the Newton branch that starts from the table; the values
        # were recorded while the tables came from the reversion
        recorded = {
            "a11": {0.0005: 0.0009993337220075228, 0.01: 0.019736410439591724,
                    0.05: 0.09370183707290142, 0.0624: 0.11512371661995716},
            "a12": {-0.0005: -0.0010003334722852133, -0.01: -0.02013445461476048,
                    -0.05: -0.10347883154622285, -0.0624: -0.13027788085100317},
        }
        for key, points in recorded.items():
            exp = get_expansion(key)
            assert {x: eval_g(exp, x) for x in points} == points

    @pytest.mark.parametrize("key,params,targets,orders,digest", COEFFICIENT_PINS)
    def test_coefficients_pinned(self, key, params, targets, orders, digest):
        exp = get_expansion(key, **params)
        text = "\n".join(
            repr(c)
            for spec in targets
            for n in orders
            for c in assemble(exp, pin_target(spec), n).coefficients
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

def _fresh(code: str) -> list:
    """stdout lines of code run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


class TestBellOnFirstUse:
    # funcseries.bell loads only when a caller names it: no build does, on
    # the composition recurrence (exp and ln1p at any x0, pow, a float alpha
    # or a float e_j included) or on the column kernel of funcseries.exact
    # (sin, sq, a derivative list), and neither does a float evaluator
    # (a11's and a12's Newton start tables are constants).
    def test_recurrence_builds_load_no_bell(self):
        lines = _fresh(
            "import sys\n"
            "from fractions import Fraction\n"
            "from funcseries import FAMILY_KEYS, MAX_ORDER, assemble, builtin_function, "
            "eval_g, function_from_derivatives, get_expansion\n"
            "targets = [builtin_function('exp'), builtin_function('ln1p'),\n"
            "           builtin_function('pow', alpha=Fraction(1, 5)),\n"
            "           builtin_function('pow', alpha=0.5)]\n"
            "targets += [builtin_function(name, x0=x0) for name in ('exp', 'ln1p')\n"
            "            for x0 in (Fraction(1, 2), 0.5)]\n"
            "targets += [builtin_function(name, x0=x0) for name in ('sin', 'sq')\n"
            "            for x0 in (0, Fraction(1, 2), 0.5)]\n"
            "targets.append(function_from_derivatives([Fraction(1, k + 1) for k in range(65)]))\n"
            "for key in FAMILY_KEYS:\n"
            "    for f in targets:\n"
            "        assert len(assemble(get_expansion(key), f, MAX_ORDER).coefficients) == 65\n"
            "assemble(get_expansion('a5', alpha=0.5), builtin_function('exp'), MAX_ORDER)\n"
            "print('funcseries.bell' in sys.modules)\n"
            "# both branches of each: the series-plus-Newton start near zero and\n"
            "# lambert_w0 on the far side\n"
            "for key, xs in (('a11', (0.01, 0.5)), ('a12', (-0.01, -0.5))):\n"
            "    for x in xs:\n"
            "        eval_g(get_expansion(key), x)\n"
            "print('funcseries.bell' in sys.modules)\n"
        )
        assert lines == ["False", "False"]

    def test_a8_pin_builds_load_no_bell(self):
        # the a8 pin builds ln1p, exp and pow:1/5 (the recurrence), then sin
        # and sq (the column kernel)
        lines = _fresh(
            "import hashlib, sys\n"
            "from fractions import Fraction\n"
            "from funcseries import assemble, builtin_function, get_expansion\n"
            f"targets, orders = {PIN_TARGETS!r}, {PIN_ORDERS!r}\n"
            "exp, text = get_expansion('a8'), []\n"
            "for spec in targets:\n"
            "    name, _, alpha = spec.partition(':')\n"
            "    f = builtin_function(name, **({'alpha': Fraction(alpha)} if alpha else {}))\n"
            "    text += [repr(c) for n in orders for c in assemble(exp, f, n).coefficients]\n"
            "    print(spec, 'funcseries.bell' in sys.modules)\n"
            "print(hashlib.sha256('\\n'.join(text).encode()).hexdigest())\n"
        )
        assert lines == ["ln1p False", "exp False", "pow:1/5 False", "sin False", "sq False",
                         FAMILY_DIGESTS["a8"]]


    # funcseries.implicit (the bases c1 .. c6 and their solvers) loads on
    # first use too: an explicit family's build and evaluation, through the
    # CLI's coeffs and eval, load neither it nor bell
    def test_explicit_families_load_neither_implicit_nor_bell(self):
        lines = _fresh(
            "import contextlib, io, sys\n"
            "from funcseries import FAMILY_KEYS\n"
            "from funcseries.cli import main\n"
            "for key in [k for k in FAMILY_KEYS if k[0] == 'a'] + ['tp']:\n"
            "    at = '--at=-0.01' if key == 'a12' else '--at=0.01'\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['coeffs', '--expansion', key, '--function', 'ln1p']) == 0\n"
            "        assert main(['eval', '--expansion', key, '--function', 'exp', at]) == 0\n"
            "print([m in sys.modules for m in ('funcseries.implicit', 'funcseries.bell')])\n"
        )
        assert lines == ["[False, False]"]

    @pytest.mark.parametrize("key", ["c1", "c2", "c3", "c4", "c5", "c6"])
    def test_implicit_basis_loads_implicit_not_bell(self, key):
        lines = _fresh(
            "import sys\n"
            "from funcseries import eval_g, get_expansion\n"
            "print('funcseries.implicit' in sys.modules)\n"
            f"e = get_expansion({key!r})\n"
            "eval_g(e, 0.01)\n"
            "print([m in sys.modules for m in ('funcseries.implicit', 'funcseries.bell')])\n"
        )
        assert lines == ["False", "[True, False]"]

    def test_invert_numeric_loads_implicit(self):
        lines = _fresh(
            "import sys\n"
            "from funcseries import get_expansion, invert_numeric\n"
            "e = get_expansion('a1')\n"
            "print('funcseries.implicit' in sys.modules)\n"
            "invert_numeric(e, 0.5)\n"
            "print([m in sys.modules for m in ('funcseries.implicit', 'funcseries.bell')])\n"
        )
        assert lines == ["False", "[True, False]"]

    def test_series_verifiers_and_stirling_load_bell(self):
        # the verifier-only code lives in bell: a reversion, and a Stirling
        # number through the package's first-use names
        lines = _fresh(
            "import sys\n"
            "import funcseries\n"
            "s = funcseries.family_series('a1', 6)\n"
            "print('funcseries.bell' in sys.modules)\n"
            "t = s.reversion()\n"
            "print('funcseries.bell' in sys.modules, t.order)\n"
        )
        assert lines == ["False", "True 6"]
        lines = _fresh(
            "import sys\n"
            "import funcseries\n"
            "print('funcseries.bell' in sys.modules)\n"
            "print(funcseries.stirling2(5, 2), 'funcseries.bell' in sys.modules)\n"
            "print('funcseries.implicit' in sys.modules)\n"
        )
        assert lines == ["False", "15 True", "False"]


class TestCompositionRoute:
    @pytest.mark.parametrize("key", ["a2", "a5", "a7", "a10", "c3", "c6"])
    def test_agrees_with_bell_route(self, key):
        for fname in ("ln1p", "sq", "exp"):
            f = builtin_function(fname)
            direct = assemble(get_expansion(key), f, 10)
            composed = assemble_via_composition(get_expansion(key), f, 10)
            assert direct.coefficients == composed.coefficients, (key, fname)
            assert composed.route == "composition"

    def test_pow_function(self):
        f = builtin_function("pow", alpha=Fraction(1, 5))
        direct = assemble(get_expansion("a5", alpha=2), f, 12)
        composed = assemble_via_composition(get_expansion("a5", alpha=2), f, 12)
        assert direct.coefficients == composed.coefficients

    @pytest.mark.parametrize("alpha,beta", [(4, 3), (Fraction(4, 9), 3), (Fraction(9, 4), 1)])
    def test_graded_a7_agrees(self, alpha, beta):
        # these a7 triangles are built over e_j = d_j / r^j, the ratio the
        # registry formula states
        exp = get_expansion("a7", alpha=alpha, beta=beta)
        assert get_family("a7").graded(10, exp.param_dict())[0] != 1
        for fname in ("ln1p", "sq", "exp"):
            f = builtin_function(fname)
            direct = assemble(exp, f, 10)
            assert direct.coefficients == assemble_via_composition(exp, f, 10).coefficients


class TestEvaluate:
    def test_single_term_model_reproduces_g(self):
        m = assemble(get_expansion("a1"), builtin_function("ln1p"), 8)
        assert evaluate(m, 4.0) == pytest.approx(math.log(5.0), rel=1e-15)
        assert evaluate(m, 0.0) == 0.0

    def test_horner_matches_naive(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 10)
        e = get_expansion("a8")
        rng = random.Random(7)
        from funcseries.catalog import eval_g

        for _ in range(20):
            x = rng.uniform(-0.9, 6.0)
            u = eval_g(e, x)
            expected = poly_eval_float([c.as_fraction() for c in m.coefficients], u)
            assert evaluate(m, x) == pytest.approx(expected, rel=1e-14)
        # each model's compiled evaluator against the loop it replaced
        # (poly_eval_float converts each coefficient as it goes), bit for bit:
        # every family and tp up to MAX_ORDER, whose Horner sum nests 65
        # terms.  The evaluator runs at x, and again on tp's basis u = x
        # over the whole line, where its inline sum meets every finite u;
        # the writer it inlines is compiled alone for the non-finite u that
        # only a basis value can bring.
        f = builtin_function("ln1p")
        us = _KERNEL_POINTS + tuple(rng.uniform(-1.5, 1.5) for _ in range(8))
        identity = get_expansion("a5", alpha=1)
        for key in FAMILY_KEYS + ("tp",):
            for order in _KERNEL_ORDERS:
                m = (taylor_baseline(f, order) if key == "tp"
                     else assemble(get_expansion(key), f, order))
                xs = us + _end_points(m.expansion.domain)
                assert [_outcome(m, x, True) for x in xs] == [_loop_outcome(m, x) for x in xs], (
                    key, order)
                twin = ApproximationModel(identity, f, order, m.coefficients, "bell")
                assert [_outcome(twin, u, True) for u in us] == [_loop_outcome(twin, u) for u in us]
                horner = _compiled_horner(m._float_form[1])
                for u in us:
                    assert repr(horner(u)) == repr(poly_eval_float(m.coefficients, u)), (
                        key, order, u)
        # -0.0 and 0.0 are distinct constants of one sum; on u = x (a5,
        # alpha = 1) the last step -0.0 + -0.0 keeps the sign of a_0
        coeffs = tuple(map(ExactScalar, (-0.0, 0.0, -0.0, 1.5, -0.0)))
        m = ApproximationModel(identity, f, 4, coeffs, "bell")
        for u in us:
            assert _outcome(m, u, True) == _loop_outcome(m, u), u
            assert _outcome(m, u) == _reference_outcome(m, u), u
        assert repr(evaluate(m, -0.0)) == "-0.0"
        # CPython parses at most 200 nested parentheses, one per term
        assert _compiled_horner((1.0,) * 199)(0.5) == 2.0
        with pytest.raises(ValueError, match="200 terms"):
            approx._horner_expr(["1.0"] * 200)

    def test_only_points_off_the_open_interior_take_eval_g(self, monkeypatch):
        # the evaluator looks eval_g up in approx's namespace at each call,
        # where a tracer patches it, and calls it for no point strictly inside
        calls = []

        def counted(exp, t):
            calls.append(t)
            return eval_g(exp, t)

        m = assemble(get_expansion("a4"), builtin_function("ln1p"), 8)
        evaluate(m, 1.0)  # compiled before the patch, as a traced run finds it
        monkeypatch.setattr(approx, "eval_g", counted)
        inside = [evaluate(m, x) for x in (-0.5, 0.0, 0.999)]
        assert calls == []
        assert evaluate(m, 1.0000000000001) == evaluate(m, 1.0)
        for x in (1.001, math.nan):
            with pytest.raises(DomainError, match="outside the validity domain"):
                evaluate(m, x)
        assert [repr(t) for t in calls] == ["1.0000000000001", "1.0", "1.001", "nan"]
        assert inside == [evaluate(m, x) for x in (-0.5, 0.0, 0.999)] and len(calls) == 4

    def test_series_branch_kernels_match_the_loops(self):
        # each series branch against Horner loops over tables recomputed
        # here, bit for bit, at points inside its switch: the value-only
        # ginv of c3, c4 and c6, the value-and-slope pair of all five, and
        # a11's and a12's Newton start series
        def loops(key, order, y):
            c = [float(v) for v in family_series(key, order).coeffs]
            acc = 0.0
            for cn in c[::-1]:
                acc = acc * y + cn
            acc_d = dacc = 0.0
            for n in range(order, 0, -1):
                acc_d = acc_d * y + c[n]
                dacc = dacc * y + n * c[n]
            return acc, (acc_d * y + c[0], dacc)

        branches = (("a11", 8, 1e-3), ("a12", 8, 1e-3), ("c3", 20, 0.25), ("c4", 24, 0.5),
                    ("c6", 20, 0.0625))
        for key, order, switch in branches:
            pieces = {**catalog._BUILDERS, **implicit._BUILDERS}[key]({})
            inner = math.nextafter(switch, 0.0)
            ys = [0.0, -0.0, 5e-324, -5e-324, inner, -inner]
            ys += [switch * k / 8 for k in range(-7, 8)]
            for y in ys:
                value, pair = loops(key, order, y)
                assert repr(pieces["ginv_d"](y)) == repr(pair), (key, y)
                if "value_form" in pieces:
                    assert repr(pieces["value_form"]()(y)) == repr(value), (key, y)
        for key, sign in (("a11", 1.0), ("a12", -1.0)):
            table = [float(t) for t in family_series(key, 16).reversion().coeffs]
            for x in [0.0, -0.0, 5e-324] + [sign * 0.0625 * k / 8 for k in range(8)]:
                acc = 0.0
                for t in table[::-1]:
                    acc = acc * x + t
                assert repr(catalog._horner(catalog._G_INIT[key], x)) == repr(acc), (key, x)

    def test_domain_error_propagates(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 5)
        with pytest.raises(DomainError):
            evaluate(m, -2.0)

    def test_shifted_center(self):
        f = builtin_function("ln1p", x0=1)
        m = assemble(get_expansion("a1"), f, 16)
        assert not m.is_exact()
        got = evaluate(m, 1.5)
        assert got == pytest.approx(math.log(2.5), abs=1e-3)
        assert evaluate(m, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)


# The compiled evaluators' orders and points: MAX_ORDER nests 65 terms, and
# signed zeros, subnormals, overflow and non-finite u reach every rule of
# float arithmetic that a Horner step meets (0.0 * inf is nan).
_KERNEL_ORDERS = (1, 8, 20, MAX_ORDER)
_KERNEL_POINTS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan)


def _compiled_horner(floats):
    """approx._horner_expr over the floats (highest degree first), each its
    repr, compiled as a function of u."""
    return eval(compile(f"lambda u: {approx._horner_expr(list(map(repr, floats)))}",
                        "<horner>", "eval"))


def _reference_outcome(model, x):
    """Horner with every coefficient converted to float at call time."""
    try:
        u = eval_g(model.expansion, float(x) - float(model.func.x0))
        acc = 0.0
        for c in reversed(model.coefficients):
            acc = acc * u + float(c)
        return repr(acc)
    except (DomainError, ConvergenceError) as err:
        return type(err).__name__


def _loop_outcome(model, x):
    """The reference route: eval_g at x - x0, then the Horner loop; an
    error as its class and message."""
    x0 = float(model.func.x0)
    try:
        try:
            t = x - x0
        except OverflowError:
            t = math.inf if x > 0 else -math.inf
        return repr(poly_eval_float(model.coefficients, eval_g(model.expansion, t)))
    except (DomainError, ConvergenceError) as err:
        return type(err).__name__, str(err)


def _outcome(model, x, message=False):
    try:
        return repr(evaluate(model, x))
    except (DomainError, ConvergenceError) as err:
        return (type(err).__name__, str(err)) if message else type(err).__name__


def _end_points(interval):
    """The finite ends of `interval`, and 1 ulp and 1e-12 * max(1, |end|)
    plus or minus 1 ulp on either side of each."""
    xs = []
    for end in (interval.lo, interval.hi):
        if math.isfinite(end):
            slack = 1e-12 * max(1.0, abs(end))
            for x in (end - slack, end, end + slack):
                xs += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return tuple(xs)


_EXTREME_POINTS = (
    -1e300, -1e6, -800.0, -500.0, -40.0, -1.0, -0.999, 40.0, 50.0, 1e6, 1e300,
    math.inf, -math.inf, math.nan,
)


# Points where Newton leaves the image or hits its step cap, so c4 and c6
# fall back to bisection; 1e300 in _EXTREME_POINTS does so for c1, c3, c5.
_BISECTION_POINTS = {"c4": (6.0, 9.0), "c6": (0.9, 1.1, 1.3)}

# Re-recorded when _admit stopped clipping +-inf onto a closed end: exactly
# the 12 (key, +-inf) lines at closed ends moved, each to DomainError in
# both columns (a4 and a13 at +-inf; a5, a6, a7, a10, a11 and c6 at -inf;
# a12 and c6 at inf).
EVALUATOR_PIN = "cf86556cb7e5cd3d3cbc58b163781517b1e4169fbce24b349da4ebaf9f006e46"


def _pinned_points(key, exp):
    """The float-form points of `key`, each closed end of its domain and
    its bisection-path points."""
    rng = random.Random(f"float-form:{key}")
    xs = [rng.uniform(-0.99, 6.0) for _ in range(40)] + list(_EXTREME_POINTS)
    dom = exp.domain
    xs += [end for end, closed in ((dom.lo, dom.lo_closed), (dom.hi, dom.hi_closed)) if closed]
    return xs + list(_BISECTION_POINTS.get(key, ()))


def _g_outcome(exp, x):
    try:
        return repr(eval_g(exp, x))
    except (DomainError, ConvergenceError) as err:
        return type(err).__name__


class TestEvaluateFloatForm:
    """evaluate runs Horner on float coefficients converted once per model;
    its results must equal converting each coefficient at call time."""

    @pytest.mark.parametrize("key", FAMILY_KEYS + ("tp",))
    def test_matches_call_time_conversion_bit_for_bit(self, key):
        f = builtin_function("ln1p")
        rng = random.Random(f"float-form:{key}")
        xs = [rng.uniform(-0.99, 6.0) for _ in range(40)] + list(_EXTREME_POINTS)
        for order in _KERNEL_ORDERS:
            if key == "tp":
                m = taylor_baseline(f, order)
            else:
                m = assemble(get_expansion(key), f, order)
            outcomes = [_outcome(m, x) for x in xs]
            assert outcomes == [_reference_outcome(m, x) for x in xs], order
            assert any(o not in ("DomainError", "ConvergenceError") for o in outcomes)

    def test_evaluator_bits_pinned(self):
        # The reference above calls eval_g itself, so it cannot see a moved
        # bit in a basis evaluator or a solver; this digest was recorded
        # from the evaluators before their per-point overhead was cut.
        f = builtin_function("ln1p")
        lines = []
        for key in FAMILY_KEYS + ("tp",):
            m = taylor_baseline(f, 20) if key == "tp" else assemble(get_expansion(key), f, 20)
            for x in _pinned_points(key, m.expansion):
                lines.append(f"{key} {x!r} {_g_outcome(m.expansion, x)} {_outcome(m, x)}")
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == EVALUATOR_PIN

    def test_overflowing_points_stay_inf(self):
        m = assemble(get_expansion("a2"), builtin_function("ln1p"), 20)
        assert _reference_outcome(m, -500.0) in ("inf", "-inf")
        assert _outcome(m, -500.0) == _reference_outcome(m, -500.0)

    @pytest.mark.parametrize("key,fname", [("a1", "ln1p"), ("a8", "exp"), ("c3", "sin")])
    def test_float_tagged_model(self, key, fname):
        f = builtin_function(fname, x0=Fraction(1, 2))
        m = assemble(get_expansion(key), f, 16)
        assert not m.is_exact()
        xs = [0.5 + 0.1 * i for i in range(-12, 30)] + list(_EXTREME_POINTS)
        assert [_outcome(m, x) for x in xs] == [_reference_outcome(m, x) for x in xs]

    def test_float_form_stays_out_of_identity_and_json(self):
        exp = get_expansion("a8")
        f = builtin_function("ln1p")
        used = assemble(exp, f, 10)
        fresh = assemble(exp, f, 10)
        state = dict(vars(used))
        value = evaluate(used, 0.5)
        estimate_radius(used)
        assert len(vars(used)) > len(state)  # the float form is now held
        assert callable(vars(used)["_kernel"])  # the evaluator, compiled once
        assert "_kernel" not in vars(fresh)  # assemble builds none
        evaluator = used._kernel
        assert repr(evaluate(used, 0.5)) == repr(value) and used._kernel is evaluator
        assert repr(used) == repr(fresh)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert used.to_json_dict() == fresh.to_json_dict()
        # a copy is the model called on its fields again: equal, without
        # the evaluator, and it evaluates to the same bits
        for other in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert "_kernel" not in vars(other)
            assert repr(other) == repr(used) and other == used and hash(other) == hash(used)
            assert repr(evaluate(other, 0.5)) == repr(value)
        # one code per number of coefficients, shared by the models' evaluators
        assert vars(other)["_kernel"].__code__ is evaluator.__code__

    def test_coefficient_beyond_float_range_is_a_domain_error(self):
        # a_1 = 1e400 from a derivative list; converting it to float overflows
        f = function_from_derivatives([0, Fraction(10) ** 400, 1])
        m = assemble(get_expansion("a1"), f, 2)
        for call in (lambda: evaluate(m, 0.5), m.to_json_dict):
            with pytest.raises(DomainError, match="coefficient a_1 "):
                call()
        for x in (-5.0, math.nan):  # outside a1's domain: the conversion comes first
            with pytest.raises(DomainError, match="coefficient a_1 "):
                evaluate(m, x)
        with pytest.raises(DomainError, match="coefficient a_1 "):
            evaluate(m, 0.5)  # a failure is never cached
        assert "_float_form" not in vars(m) and "_kernel" not in vars(m)


class TestTaylorBaseline:
    def test_is_plain_power_series(self):
        m = taylor_baseline(builtin_function("ln1p"), 3)
        assert fracs(m) == [0, 1, Fraction(-1, 2), Fraction(1, 3)]
        assert m.expansion.key == "a5"
        assert m.expansion.param_dict()["alpha"] == 1

    def test_square_terminates(self):
        m = taylor_baseline(builtin_function("sq"), 4)
        assert fracs(m) == [0, 0, 1, 0, 0]
        assert evaluate(m, 7.0) == 49.0


class TestEstimateRadius:
    def test_log_in_sq_basis(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 20)
        r = estimate_radius(m)
        assert 0.9 < r < 1.2

    def test_needs_enough_terms(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 7)
        with pytest.raises(ValueError):
            estimate_radius(m)

    def test_terminating_tail_is_infinite(self):
        m = assemble(get_expansion("a1"), builtin_function("ln1p"), 12)
        assert estimate_radius(m) == math.inf

    def test_single_surviving_term_uses_root_test(self):
        values = [0] * 9
        values[8] = 1
        f = function_from_derivatives(values, name="one_term")
        m = taylor_baseline(f, 8)
        expected = (1 / math.factorial(8)) ** (-1 / 8)
        assert estimate_radius(m) == pytest.approx(expected, rel=1e-12)


class TestErrorReport:
    def test_in_domain_rows(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 7)
        rows = error_report(m, [0.0, 0.5])
        assert rows[0].x == 0.0
        assert rows[0].approx == 0.0 and rows[0].exact == 0.0 and rows[0].delta == 0.0
        assert rows[1].note == ""
        assert rows[1].delta == pytest.approx(rows[1].approx - rows[1].exact)

    def test_out_of_domain_row(self):
        m = assemble(get_expansion("a8"), builtin_function("ln1p"), 7)
        row = error_report(m, [-2.0])[0]
        assert math.isnan(row.approx) and math.isnan(row.delta)
        assert "outside the validity domain" in row.note

    def test_overflowing_reference(self):
        m = taylor_baseline(builtin_function("exp"), 8)
        row = error_report(m, [1000.0])[0]
        assert math.isfinite(row.approx) and row.exact == math.inf
        assert row.delta == -math.inf and row.note == ""

    def test_no_reference_value(self):
        f = function_from_derivatives([0, 1, 0], name="probe")
        m = assemble(get_expansion("a1"), f, 2)
        row = error_report(m, [0.5])[0]
        assert math.isfinite(row.approx)
        assert math.isnan(row.exact) and math.isnan(row.delta)


class TestModelJson:
    def test_structure(self):
        m = assemble(get_expansion("a5", alpha=Fraction(1, 2)), builtin_function("ln1p"), 3)
        d = m.to_json_dict()
        assert set(d) == {"expansion", "params", "f", "x0", "N", "route", "coefficients"}
        assert d["expansion"] == "a5"
        assert d["params"] == {"alpha": "1/2"}
        assert d["f"] == "ln1p"
        assert d["x0"] == "0"
        assert d["N"] == 3
        assert len(d["coefficients"]) == 4
        assert d["coefficients"][1]["n"] == 1
        assert d["coefficients"][1]["exact"] == {"num": "1", "den": "2"}
        json.dumps(d)

    def test_approximate_coefficients_have_null_exact(self):
        m = assemble(get_expansion("a1"), builtin_function("exp", x0=1), 3)
        d = m.to_json_dict()
        assert d["x0"] == "1"
        assert d["coefficients"][1]["exact"] is None
        assert float(d["coefficients"][1]["decimal"]) == float(m.coefficients[1])


class TestFormatDecimal:
    def test_frozen_strings(self):
        assert format_decimal(0.0) == "0.0000000000000000"
        assert format_decimal(2.0) == "2.0000000000000000"
        assert format_decimal(-0.5) == "-0.50000000000000000"
        assert format_decimal(1 / 3) == "0.33333333333333330"
        assert format_decimal(1e22) == "1.0000000000000000e+22"
        assert format_decimal(math.nan) == "nan"
        assert format_decimal(math.inf) == "inf"

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            assert float(format_decimal(x)) == x

    def test_significant_digits(self):
        for x in (1 / 3, 2 / 3, math.pi, 1.5, -123.456):
            s = format_decimal(x).lstrip("-").split("e")[0]
            digits = s.replace(".", "").lstrip("0")
            assert len(digits) == 17, s

    @staticmethod
    def frozen(x):
        """format_decimal as it was before it worked from the repr alone."""
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if x == 0.0:
            return "-0.0000000000000000" if math.copysign(1.0, x) < 0 else "0.0000000000000000"
        mantissa, e, exponent = repr(float(x)).partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        pad = 17 - len(mantissa.lstrip("-0.").replace(".", ""))
        return mantissa + "0" * pad + e + exponent

    def test_matches_the_frozen_function(self):
        rng = random.Random(20261021)
        bits = [rng.getrandbits(64) for _ in range(20000)]  # every exponent, nan payloads
        # a zero exponent field under a random mantissa: subnormals of both signs
        bits += [rng.getrandbits(52) | sign for _ in range(2000) for sign in (0, 1 << 63)]
        xs = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]
        xs += [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 1e-4, 123.0,
               0.001, -0.5, 1 / 3, 9007199254740993.0, 1e22, 3, -7, 0]
        xs += [rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(5000)]
        for x in xs:
            assert format_decimal(x) == self.frozen(x), (x, struct.pack(">d", x).hex())
