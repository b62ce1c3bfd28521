"""Expansion catalog: basis evaluators, validity domains, numeric inversion.

Each catalog entry binds a family key ("a1" .. "a13", "c1" .. "c6") to
float evaluators for the basis g and its inverse, the interval on which the
construction is valid, and the image interval in the substituted variable.
The float pieces come from one basis builder per key; the label, the
parameters with their defaults and checks, and the derivative sequence
come from the family's record in :data:`funcseries.pseries.FAMILIES`.
The a6 and a10 builders add one catalog-only check, w > 0, without
which g(0) = 0 fails, and :func:`get_expansion` another: each parameter
and the slope d_1 have a finite float, nonzero where the exact value must
be.  The recorded domain is the
maximal interval around zero on which g stays monotone (hence invertible);
families whose defining formula only works on one side of zero (a11, a12
and c6) carry a side marker and their domain is already restricted
accordingly.  :func:`get_expansion` derives three fields of an entry
instead of taking them from the builder: ``increasing`` is the sign of the
registry's d_1, ``implicit`` says that the builder gave no g, and ``side``
is "both" unless the builder names one.

Families "c1" .. "c6" have no explicit basis formula; g is obtained by
Newton iteration on the inverse basis, with a bisection fallback and a
reported (never silent) failure mode.  Their builders and the solver live
in :mod:`funcseries.implicit`, which loads on first use: by
:func:`get_expansion` for one of those six keys, and by
:func:`invert_numeric`.  An explicit family's build and evaluation never
load it.  A build compiles no float code beyond an implicit family's
pair: each of the six compiles its solver with its inverse basis inline
once per process, on the first read of ``Expansion._g`` (the first
``evaluate`` or :func:`eval_g`), and g is a function from that code.
a10 always calls :func:`lambert_w0`.  a11 and a12 call it away from zero
and switch to a series-plus-Newton branch near zero, where the W argument
sits so close to the branch point that the direct formula loses half the
mantissa; no evaluation of theirs compiles code, and this module compiles
none.

Evaluators for formulas with removable singularities or catastrophic
cancellation near zero are written in a stable form: either an algebraic
rewrite (conjugate fractions) when one exists, or a series branch below a
documented threshold.  The series branches of a11, a12, c3, c4 and c6
sum their tables with Horner's rule as a loop, :func:`_horner`, which the
compiled pairs and solvers of c3, c4 and c6 call.  Only the models of
:mod:`funcseries.approx` write the same multiply-adds as a straight-line
expression in their code.

Every point passes one domain step, :func:`_admit`, before an evaluator
sees it (in :func:`eval_g`, :func:`eval_ginv`, :func:`invert_numeric` and
``approx.FunctionSpec.value_at``): NaN, +-inf and a point at or beyond an
open end lie outside; a closed end also admits 1e-12 * max(1, |x|) of
float fuzz beyond it and clips such a point onto the end.

Each builder gives the inverse basis once, as the pair
``ginv_d(y) -> (ginv(y), ginv'(y))``, which computes the subexpressions
they share (exp(y), arccos(1+y), a numerator, one series-branch test)
once; its slope never raises on its own.  :func:`eval_ginv`,
:func:`map_domain` and :func:`invert_numeric` read the pair's value.  The
builders of the implicit bases c1 .. c6 state it as two texts, the pair's
statements and the value alone as an expression, which their compiled
solver runs inline: a Newton step computes the pair, a bisection step the
value, bit-identical to the pair's and raising where it raises.
:func:`invert_numeric` runs the same solver text over any family's pair,
one call per step.  The solver loops' tests are comparisons.  The series
branches of a11, a12, c3, c4 and c6 read one float table per family,
:func:`_series_floats`.

:class:`Interval` and :class:`Expansion` are records on the one immutable
base of :mod:`funcseries.exact`.  An entry's evaluators are closures or
compiled functions, so it copies and pickles as its key and parameters
alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .exact import ExactScalar, _Record, _tagged
from .pseries import FAMILIES, family_series, get_family

__all__ = [
    "DomainError",
    "ConvergenceError",
    "Interval",
    "Expansion",
    "PARAM_DEFAULTS",
    "lambert_w0",
    "get_expansion",
    "eval_g",
    "eval_ginv",
    "invert_numeric",
    "map_domain",
]


class DomainError(ValueError):
    """An argument fell outside the validity region of an evaluator."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its residual target."""


class _InfiniteEnd(ValueError):
    """A closed interval end that is infinite."""


class Interval(_Record):
    """A real interval with independent open/closed endpoint flags."""

    __slots__ = _fields = _shown = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool = False,
                 hi_closed: bool = False):
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"bad interval bounds {lo}, {hi}")
        if (math.isinf(lo) and lo_closed) or (math.isinf(hi) and hi_closed):
            raise _InfiniteEnd("an infinite endpoint cannot be closed")
        self._set(lo, hi, lo_closed, hi_closed)

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo!r}, {self.hi!r}{right}"


class Expansion(_Record):
    """One catalog entry, immutable after construction.

    params holds ordered (name, ExactScalar) pairs; domain is the
    x-interval of validity with the side restriction applied, image is
    g(domain), side is "both", "right_of_zero" or "left_of_zero", and an
    implicit g is computed by numeric inversion of the inverse basis.  The
    float evaluator _g, the inverse basis as the value-and-slope pair
    _ginv_d and d_1 as a float are fields that repr leaves out.  Every
    field is a function of key and params, so two entries compare and hash
    by those two alone, each parameter with its exactness, and an entry
    copies and pickles as those two, which :func:`get_expansion` rebuilds.

    An implicit entry is built with _g None and the builder's
    ``_solver(image, increasing, d1, context)``, which compiles its
    family's solver once per process: g is made on the first read of _g
    and kept in the field, so a build that nothing evaluates compiles no
    solver.
    """

    _fields = ("key", "label", "params", "domain", "image", "side",
               "increasing", "implicit", "_g", "_ginv_d", "_d1")
    __slots__ = (*_fields, "_solver")
    _shown = _fields[:8]

    def __init__(self, key: str, label: str, params: tuple, domain: Interval,
                 image: Interval, side: str, increasing: bool, implicit: bool,
                 _g: Callable | None, _ginv_d: Callable, _d1: float,
                 _solver: Callable | None = None):
        self._set(key, label, params, domain, image, side, increasing, implicit, _g, _ginv_d, _d1)
        if _g is None:  # an unset slot: its first read goes to __getattr__
            object.__delattr__(self, "_g")
            object.__setattr__(self, "_solver", _solver)

    def __getattr__(self, name: str):
        if name != "_g":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        g = self._solver(self.image, self.increasing, self._d1,
                         f"family {self.key!r} numeric inversion")
        object.__setattr__(self, "_g", g)
        return g

    def _identity(self) -> tuple:
        return self.key, tuple((name, _tagged(v)) for name, v in self.params)

    def __reduce__(self):
        return _expansion, (self.key, self.params)

    def param_dict(self) -> dict:
        return dict(self.params)


# -- Lambert W ---------------------------------------------------------------

_W_BRANCH = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x for x >= -1/e.

    Halley iteration from a piecewise initial guess (branch-point square
    root series, log asymptote, or log1p); the returned w satisfies
    |w*exp(w) - x| <= 1e-14 * max(1, |x|).  Arguments within a few ulp
    below -1/e are clamped to the branch point.  An int or Fraction beyond
    the float range reads as +-inf.
    """
    try:  # _as_float inline: a10 .. a12 call this once per point
        x = float(x)
    except OverflowError:
        x = math.inf if x > 0 else -math.inf
    if math.isnan(x):
        raise DomainError("lambert_w0 is undefined for nan")
    if x < _W_BRANCH:
        if x < _W_BRANCH - 4.0 * math.ulp(_W_BRANCH):
            raise DomainError(f"lambert_w0 argument {x!r} lies below -1/e")
        x = _W_BRANCH
    if x == _W_BRANCH:
        return -1.0
    if x == 0.0:
        return 0.0
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif x > math.e:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        w = math.log1p(x)
    # The tolerance test is a comparison, as in the implicit solvers:
    # mtol <= f <= tol is abs(f) <= tol, False for nan.
    tol = 1e-15 * max(1.0, abs(x))
    mtol = -tol
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if mtol <= f <= tol:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0 or not math.isfinite(denom):
            break
        step = f / denom
        wn = w - step
        if not math.isfinite(wn):
            break
        w = wn
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            ew = math.exp(w)
            if abs(w * ew - x) <= 10.0 * tol:
                return w
            break
    if abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x)):
        return w
    raise ConvergenceError(f"lambert_w0 failed to converge at x={x!r}")


# -- Horner's rule and series tables -----------------------------------------
#
# The tables are kept in ascending order.  The series branches of a11, a12,
# c3, c4 and c6 sum the ones they read with the loop _horner, c3's, c4's
# and c6's from their compiled pairs and solvers.
# The inverse-series tables come from family_series; the a11/a12 Newton
# start tables are constants, so no float basis reverts a series.


def _horner(table: tuple, u: float) -> float:
    """Horner's rule over the floats c_0 .. c_N of `table` (ascending) at
    u: the loop acc = acc*u + c from c_N down, which makes the multiply-adds
    of :func:`funcseries.approx._horner_expr` in its order, so every result
    is its bit for bit."""
    acc = 0.0
    for c in reversed(table):
        acc = acc * u + c
    return acc


@lru_cache(maxsize=None)
def _series_floats(key: str, order: int) -> tuple:
    """The floats c_0 .. c_order of a parameter-free family's family_series,
    computed once per process."""
    return tuple(float(v) for v in family_series(key, order).coeffs)


@lru_cache(maxsize=None)
def _slope_floats(key: str, order: int) -> tuple:
    """n c_n for n = 1 .. order over :func:`_series_floats`: the slope's
    table of that series, computed once per process."""
    c = _series_floats(key, order)
    return tuple(n * c[n] for n in range(1, order + 1))


def _series_d(key: str, y: float) -> tuple:
    """The pair (value, slope) at y of a11's or a12's inverse series
    c_0 + ... + c_8 y^8."""
    return _horner(_series_floats(key, 8), y), _horner(_slope_floats(key, 8), y)


# t_0 .. t_16 of a11's and a12's basis series, the compositional inverse of
# the inverse basis (Comtet, *Advanced Combinatorics*, section 3.8): the
# floats of family_series(key, 16).reversion(), which tests/test_approx.py
# recomputes; _near_zero_start sums them.
_G_INIT = {
    "a11": (0.0, 2.0, -2.6666666666666665, 3.111111111111111, -3.437037037037037,
            3.6938271604938273, -3.905467372134039, 4.085314520870076, -4.241583382324123,
            4.379680797787794, -4.503351862078885, 4.61529634414813, -4.717523850826701,
            4.811570134040083, -4.898634914511976, 4.97967305428333, -5.055456810099063),
    "a12": (0.0, 2.0, -1.3333333333333333, 1.1111111111111112, -1.0074074074074073,
            0.9530864197530864, -0.9241622574955908, 0.9100058788947678, -0.9051303155006859,
            0.906382737823067, -0.9117982674745363, 0.9200702099206247, -0.9302815440890212,
            0.9417588123044464, -0.9539880375254968, 0.9665641271849269, -0.9791593232074152),
}


# -- family builders -----------------------------------------------------------
#
# A builder returns what only it knows: the float evaluators, that is the
# pair ginv_d and g, and the domain and image; a11 and a12 also name their
# side.  The builders of the implicit bases c1 .. c6 live in
# funcseries.implicit with their solver, and give in place of g the
# function that makes g from the image, which the expansion calls on the
# first read of its g.
# get_expansion derives the other fields.  A pair computes what its value
# shares with the slope once.

_FULL_LINE = Interval(-math.inf, math.inf)


def _make_a1(p):
    return dict(
        domain=Interval(-1.0, math.inf), image=_FULL_LINE,
        g=math.log1p, ginv_d=lambda y: (math.expm1(y), math.exp(y)),
    )


def _make_a2(p):
    return dict(
        domain=_FULL_LINE, image=Interval(-math.inf, 1.0),
        g=lambda x: -math.expm1(-x),
        ginv_d=lambda y: (-math.log1p(-y), 1.0 / (1.0 - y)),
    )


def _make_a3(p):
    return dict(
        domain=_FULL_LINE, image=_FULL_LINE,
        g=math.asinh, ginv_d=lambda y: (math.sinh(y), math.cosh(y)),
    )


def _make_a4(p):
    half_pi = 0.5 * math.pi
    return dict(
        domain=Interval(-1.0, 1.0, True, True),
        image=Interval(-half_pi, half_pi, True, True),
        g=math.asin, ginv_d=lambda y: (math.sin(y), math.cos(y)),
    )


def _make_a5(p):
    af = float(p["alpha"])
    if p["alpha"] == 1:
        return dict(
            domain=_FULL_LINE, image=_FULL_LINE,
            g=lambda x: x, ginv_d=lambda y: (y, 1.0),
        )

    def ginv_d(y):
        if y == -1.0 and af > 0:
            return -1.0, 0.0 if af > 1 else math.inf
        ly = math.log1p(y)
        v = math.expm1(af * ly)
        try:
            return v, af * math.exp((af - 1.0) * ly)
        except OverflowError:  # alpha < -18: the slope leaves the float range first
            return v, -math.inf

    def g(x):
        if x == -1.0:
            return -1.0
        return math.expm1(math.log1p(x) / af)

    # -1 belongs to both intervals only when it maps to -1, i.e. alpha > 0.
    dom = img = Interval(-1.0, math.inf, lo_closed=af > 0)
    return dict(domain=dom, image=img, g=g, ginv_d=ginv_d)


def _make_a6(p):
    if not p["w"] > 0:
        raise ValueError("family 'a6' requires w > 0; non-positive w breaks g(0) = 0")
    wf = float(p["w"])

    def g(x):
        return 2.0 * x / (math.sqrt(max(wf * wf + 2.0 * x, 0.0)) + wf)

    return dict(
        domain=Interval(-0.5 * wf * wf, math.inf, lo_closed=True),
        image=Interval(-wf, math.inf, lo_closed=True),
        g=g, ginv_d=lambda y: (0.5 * y * y + wf * y, y + wf),
    )


def _make_a7(p):
    af = float(p["alpha"])
    bf = float(p["beta"])
    root = math.sqrt(af)

    def g(x):
        return (x * x + 2.0 * root * x) / bf

    def ginv_d(y):
        s = math.sqrt(max(af + bf * y, 0.0))
        # at (or rounded onto) the closed image end the slope is infinite
        d = math.copysign(math.inf, bf) if s == 0.0 else bf / (2.0 * s)
        return bf * y / (s + root), d

    if bf > 0:
        img = Interval(-af / bf, math.inf, lo_closed=True)
    else:
        img = Interval(-math.inf, -af / bf, hi_closed=True)
    return dict(
        domain=Interval(-root, math.inf, lo_closed=True), image=img,
        g=g, ginv_d=ginv_d,
    )


def _make_a8(p):
    def ginv_d(y):
        u = 1.0 - y
        uu = u * u
        return y * (2.0 - y) / uu, 2.0 / (uu * u)

    return dict(
        domain=Interval(-1.0, math.inf), image=Interval(-math.inf, 1.0),
        g=lambda x: -math.expm1(-0.5 * math.log1p(x)), ginv_d=ginv_d,
    )


def _make_a9(p):
    def g(x):
        if x == 0.0:
            return 0.0
        return 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * x * x))

    def ginv_d(y):
        yy = y * y
        u = 1.0 - yy
        return y / ((1.0 - y) * (1.0 + y)), (1.0 + yy) / (u * u)

    return dict(
        domain=_FULL_LINE, image=Interval(-1.0, 1.0),
        g=g, ginv_d=ginv_d,
    )


def _make_a10(p):
    if not p["w"] > 0:
        raise ValueError("family 'a10' requires w > 0; non-positive w breaks g(0) = 0")
    wf = float(p["w"])
    scale = math.exp(wf - 1.0)

    def g(x):
        return lambert_w0(scale * (wf + x - 1.0)) + 1.0 - wf

    def ginv_d(y):
        ey = math.exp(y)
        return (wf + y - 1.0) * ey + 1.0 - wf, (wf + y) * ey

    return dict(
        domain=Interval(1.0 - wf - math.exp(-wf), math.inf, lo_closed=True),
        image=Interval(-wf, math.inf, lo_closed=True),
        g=g, ginv_d=ginv_d,
    )


# Series-branch switch for formulas that cancel near zero.  The default
# threshold/degree pair follows the catalog-wide policy (1e-3, degree 8);
# entries whose direct formula is still noisy at 1e-3 get a wider series
# with a correspondingly higher degree.
_NEAR_ZERO = 1e-3


def _near_zero_start(key: str, ginv_d: Callable, x: float) -> float:
    """a11's or a12's g near zero: its basis series from _G_INIT, then two
    Newton steps on the inverse basis."""
    y = _horner(_G_INIT[key], x)
    for _ in range(2):
        v, d = ginv_d(y)
        y -= (v - x) / d
    return y


def _make_a11(p):
    def ginv_d(y):
        if abs(y) < _NEAR_ZERO:
            return _series_d("a11", y)
        ly = math.log1p(-y)
        return -ly / y - 1.0, (y / (1.0 - y) + ly) / (y * y)

    def g(x):
        if x >= 0.0625:
            t = 1.0 + x
            return lambert_w0(-t * math.exp(-t)) / t + 1.0
        return _near_zero_start("a11", ginv_d, x)

    return dict(
        domain=Interval(0.0, math.inf, lo_closed=True),
        image=Interval(0.0, 1.0, lo_closed=True),
        side="right_of_zero", g=g, ginv_d=ginv_d,
    )


def _make_a12(p):
    def ginv_d(y):
        if abs(y) < _NEAR_ZERO:
            return _series_d("a12", y)
        return math.expm1(y) / y - 1.0, ((y - 1.0) * math.exp(y) + 1.0) / (y * y)

    def g(x):
        if x <= -0.0625:
            t = 1.0 + x
            u = lambert_w0(-math.exp(-1.0 / t) / t)
            return -(u + 1.0 / t)
        return _near_zero_start("a12", ginv_d, x)

    return dict(
        domain=Interval(-1.0, 0.0, hi_closed=True),
        image=Interval(-math.inf, 0.0, hi_closed=True),
        side="left_of_zero", g=g, ginv_d=ginv_d,
    )


def _make_a13(p):
    half_pi = 0.5 * math.pi
    return dict(
        domain=Interval(-half_pi, half_pi, True, True),
        image=Interval(-1.0, 1.0, True, True),
        g=math.sin, ginv_d=lambda y: (math.asin(y), 1.0 / math.sqrt(max(1.0 - y * y, 5e-324))),
    )


_BUILDERS = {
    "a1": _make_a1, "a2": _make_a2, "a3": _make_a3, "a4": _make_a4,
    "a5": _make_a5, "a6": _make_a6, "a7": _make_a7, "a8": _make_a8,
    "a9": _make_a9, "a10": _make_a10, "a11": _make_a11, "a12": _make_a12,
    "a13": _make_a13,
}

# {key: {name: default}} for the families that take parameters, read from
# the registry.
PARAM_DEFAULTS = {key: dict(f.defaults) for key, f in FAMILIES.items() if f.defaults}


def _float_param(value: ExactScalar, what: str, nonzero: bool = False) -> float:
    """float(value), or ValueError when the float evaluators cannot use it:
    it has no finite float, or it must not be 0 and rounds to 0.0."""
    f = _as_float(value)
    if not math.isfinite(f):
        raise ValueError(f"{what} has no finite float value")
    if nonzero and f == 0.0:
        raise ValueError(f"{what} must not be 0 and rounds to 0.0 as a float")
    return f


def get_expansion(key: str, *, alpha=None, beta=None, w=None) -> Expansion:
    """Construct the catalog entry for a family key, applying defaults.

    For "c5" the flags map onto the three shape parameters as
    alpha -> constant shift, w -> first derivative, beta -> second
    derivative of the inverse basis.  Raises ValueError for a parameter,
    or a slope d_1, that has no finite float or must not be 0 and rounds
    to 0.0, and for parameters that overflow a basis builder or put a
    closed domain or image end beyond the float range: the float
    evaluators could not use them.
    """
    fam = get_family(key)
    params = fam.validate(alpha, beta, w, fill=True)
    for name, value in params.items():
        _float_param(value, f"family {key!r} parameter {name}",
                     name in fam.nonzero or name in fam.positive)
    d1 = _float_param(fam.derivatives(1, params)[0], f"family {key!r} slope d_1", True)
    try:
        if key in _BUILDERS:
            pieces = _BUILDERS[key](params)
        else:  # c1 .. c6: their builders load with their solvers, on first use
            from . import implicit as solver
            pieces = solver._BUILDERS[key](params)
    except OverflowError:  # a10's exp(w - 1) for w > 710
        raise ValueError(f"family {key!r} parameters overflow its float evaluators") from None
    except _InfiniteEnd:  # a6's -w^2 / 2, a7's -alpha / beta
        raise ValueError(f"family {key!r} parameters put a domain or image end beyond "
                         "the float range") from None
    ginv_d = pieces["ginv_d"]
    if "tail_neg" in pieces:
        domain, image = solver._scan_pieces(ginv_d, d1, pieces["tail_neg"])
    else:
        domain, image = pieces["domain"], pieces["image"]
    g = pieces.get("g")
    return Expansion(
        key=key,
        label=fam.label,
        params=tuple(params.items()),
        domain=domain,
        image=image,
        side=pieces.get("side", "both"),
        increasing=d1 > 0,
        implicit=g is None,
        _g=g,
        _ginv_d=ginv_d,
        _d1=d1,
        _solver=pieces.get("solver"),
    )


def _expansion(key: str, params: tuple) -> Expansion:
    """get_expansion for a key and its (name, value) pairs: unpickling."""
    return get_expansion(key, **dict(params))


# -- public evaluation entry points -------------------------------------------


def _as_float(x) -> float:
    """float(x), with an int, Fraction or exact scalar beyond the float range
    read as +-inf: the package's one statement of that rule."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _admit(interval: Interval, x: float) -> float | None:
    """The float x moved into `interval`, or None if it lies outside.

    NaN and +-inf lie outside every interval (a closed end is finite).  An
    open end admits nothing at or beyond it; a closed end also admits up to
    1e-12 * max(1, |x|) of float fuzz beyond it and clips such an x onto
    the end.
    """
    lo, hi = interval.lo, interval.hi
    if lo < x < hi:
        return x
    if not math.isfinite(x):  # its slack would be infinite
        return None
    slack = 1e-12 * max(1.0, abs(x))
    if x < lo - slack if interval.lo_closed else x <= lo:
        return None
    if x > hi + slack if interval.hi_closed else x >= hi:
        return None
    # a closed end: on it, or within the slack beyond it
    return lo if x < lo else hi if x > hi else x


def eval_g(exp: Expansion, x: float) -> float:
    """g(x) for the expansion, with domain enforcement; an int or Fraction
    beyond the float range reads as +-inf."""
    try:  # _as_float inline: evaluate calls this once per point
        x = float(x)
    except OverflowError:
        x = math.inf if x > 0 else -math.inf
    xd = _admit(exp.domain, x)
    if xd is None:
        raise DomainError(
            f"x={x!r} outside the validity domain {exp.domain} of family {exp.key!r}"
        )
    try:
        return exp._g(xd)
    except OverflowError:
        raise DomainError(
            f"g(x) overflows the float range at x={x!r} for family {exp.key!r}"
        ) from None


def eval_ginv(exp: Expansion, y: float) -> float:
    """g^{-1}(y) for the expansion, with image enforcement; DomainError
    where it leaves the float range, raising or not."""
    y = _as_float(y)
    yd = _admit(exp.image, y)
    if yd is None:
        raise DomainError(
            f"y={y!r} outside the image {exp.image} of family {exp.key!r}"
        )
    try:
        x = exp._ginv_d(yd)[0]
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):  # a finite y in the image has a finite g^-1(y)
        raise DomainError(
            f"g^-1(y) overflows the float range at y={y!r} for family {exp.key!r}"
        )
    return x


def invert_numeric(exp: Expansion, x: float) -> float:
    """Solve g(y-var) = x by Newton/bisection regardless of family kind.

    For explicit families this provides an independent cross-check of the
    closed-form basis evaluator.  Where the inverse basis or its
    derivative leaves the float range near an image endpoint (a2 and a11
    at large x, a8 at 1e300, a9 at -1e300) the solver's math error is
    raised as :class:`DomainError`.
    """
    x = _as_float(x)
    xd = _admit(exp.domain, x)
    if xd is None:
        raise DomainError(
            f"x={x!r} outside the validity domain {exp.domain} of family {exp.key!r}"
        )
    from .implicit import _invert_monotone  # loads on first use

    try:
        return _invert_monotone(xd, exp._ginv_d, exp.image, exp.increasing, exp._d1,
                                f"family {exp.key!r} numeric inversion")
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(
            f"numeric inversion fails at x={xd!r} for family {exp.key!r}: {err}"
        ) from None


def map_domain(exp: Expansion, radius: float) -> Interval:
    """The x-interval where |g(x)| < radius, within the validity domain.

    Where the image reaches beyond +-radius, that end is g's crossing
    ginv(+-radius), open; elsewhere it is the domain end, closed when the
    domain end is closed and |g| < radius there.  A crossing at which ginv
    overflows or is not finite reads as the open domain end it lies
    toward: only an open end has an infinite image end to approach.  A
    radius beyond the float range reads as inf.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    r, img = _as_float(radius), exp.image

    def end(s, x_end, closed):  # the end where g tends to the image's s-side
        y_end = img.hi if s > 0 else img.lo
        if not s * y_end > r:
            return x_end, closed and s * y_end < r
        try:
            x = exp._ginv_d(s * r)[0]
        except OverflowError:
            return x_end, False
        return (x if math.isfinite(x) else x_end), False

    s = 1.0 if exp.increasing else -1.0
    x_lo, lo_closed = end(-s, exp.domain.lo, exp.domain.lo_closed)
    x_hi, hi_closed = end(s, exp.domain.hi, exp.domain.hi_closed)
    return Interval(x_lo, x_hi, lo_closed, hi_closed)
