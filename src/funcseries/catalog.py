"""Expansion catalog: basis evaluators, validity domains, numeric inversion.

Each catalog entry binds a family key ("a1" .. "a13", "c1" .. "c6") to
float evaluators for the basis g and its inverse, the interval on which the
construction is valid, and the image interval in the substituted variable.
The float pieces come from one basis builder per key; the label, the
parameters with their defaults and checks, and the derivative sequence
come from the family's record in :data:`funcseries.pseries.FAMILIES`.
The a6 and a10 builders add the one catalog-only check, w > 0, without
which g(0) = 0 fails.  The recorded domain is the
maximal interval around zero on which g stays monotone (hence invertible);
families whose defining formula only works on one side of zero carry a side
marker and their domain is already restricted accordingly.

Families "c1" .. "c6" have no explicit basis formula; g is obtained by
Newton iteration on the inverse basis, with a bisection fallback and a
reported (never silent) failure mode.  The three Lambert-based families use
:func:`lambert_w0` away from zero and switch to a series-plus-Newton branch
near zero, where the W argument sits so close to the branch point that the
direct formula loses half the mantissa.

Evaluators for formulas with removable singularities or catastrophic
cancellation near zero are written in a stable form: either an algebraic
rewrite (conjugate fractions) when one exists, or a series branch below a
documented threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from . import bell
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


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields in ``_fields``, in constructor order, and
    the ones its repr shows in ``_shown``; its ``__init__`` sets each field
    once through ``object.__setattr__``.  Records compare and hash by
    ``_identity()``, the tuple of all their fields unless a subclass
    narrows it, only against an instance of the same class, and any later
    assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()
    _shown: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _identity = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Interval(_Record):
    """A real interval with independent open/closed endpoint flags."""

    __slots__ = _fields = _shown = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool = False,
                 hi_closed: bool = False):
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"bad interval bounds {lo}, {hi}")
        if math.isinf(lo) and lo_closed:
            raise ValueError("an infinite endpoint cannot be closed")
        if math.isinf(hi) and hi_closed:
            raise ValueError("an infinite endpoint cannot be closed")
        set_field = object.__setattr__
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lo_closed", lo_closed)
        set_field(self, "hi_closed", hi_closed)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Membership test; closed endpoints tolerate `slack` of float fuzz."""
        if math.isnan(x):
            return False
        if self.lo_closed:
            if x < self.lo - slack:
                return False
        elif x <= self.lo:
            return False
        if self.hi_closed:
            if x > self.hi + slack:
                return False
        elif x >= self.hi:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

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
    float evaluators _g, _ginv, _dginv and d_1 as a float are fields that
    repr leaves out.  Every field is a function of key and params, so two
    entries compare and hash by those two alone.
    """

    __slots__ = _fields = ("key", "label", "params", "domain", "image", "side",
                           "increasing", "implicit", "_g", "_ginv", "_dginv", "_d1")
    _shown = _fields[:8]

    def __init__(self, key: str, label: str, params: tuple, domain: Interval,
                 image: Interval, side: str, increasing: bool, implicit: bool,
                 _g: Callable, _ginv: Callable, _dginv: Callable, _d1: float):
        set_field = object.__setattr__
        set_field(self, "key", key)
        set_field(self, "label", label)
        set_field(self, "params", params)
        set_field(self, "domain", domain)
        set_field(self, "image", image)
        set_field(self, "side", side)
        set_field(self, "increasing", increasing)
        set_field(self, "implicit", implicit)
        set_field(self, "_g", _g)
        set_field(self, "_ginv", _ginv)
        set_field(self, "_dginv", _dginv)
        set_field(self, "_d1", _d1)

    def _identity(self) -> tuple:
        return self.key, self.params

    def param_dict(self) -> dict:
        return dict(self.params)

    def derivative_sequence(self, order: int) -> tuple:
        """d_1 .. d_order of the inverse basis (see bell.derivative_sequence)."""
        return bell.derivative_sequence(self.key, order, **self.param_dict())

    def bell_values(self, nmax: int) -> list:
        return bell.bell_values(self.key, nmax, **self.param_dict())

    def series(self, order: int):
        return family_series(self.key, order, **self.param_dict())


# -- Lambert W ---------------------------------------------------------------

_W_BRANCH = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x for x >= -1/e.

    Halley iteration from a piecewise initial guess (branch-point square
    root series, log asymptote, or log1p); the returned w satisfies
    |w*exp(w) - x| <= 1e-14 * max(1, |x|).  Arguments within a few ulp
    below -1/e are clamped to the branch point.
    """
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
    tol = 1e-15 * max(1.0, abs(x))
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
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


# -- small numeric helpers ----------------------------------------------------


def _horner(coeffs: tuple, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _series_floats(key: str, order: int) -> tuple:
    """Float coefficients of a parameter-free family's inverse series."""
    return tuple(float(c) for c in family_series(key, order).coeffs)


@lru_cache(maxsize=None)
def _series_deriv_floats(key: str, order: int) -> tuple:
    c = _series_floats(key, order)
    return tuple(n * c[n] for n in range(1, order + 1))


@lru_cache(maxsize=None)
def _g_init_floats(key: str, order: int) -> tuple:
    """Float coefficients of the basis series, the inverse of the inverse basis."""
    d = bell._raw(bell.derivative_sequence(key, order))
    return tuple(float(c) for c in bell._inverse_coefficients(d, order))


# -- numeric inversion of a monotone inverse basis ----------------------------


def _invert_monotone(
    x: float,
    ginv: Callable,
    dginv: Callable,
    image: Interval,
    increasing: bool,
    d1: float,
    context: str,
) -> float:
    """Solve ginv(y) = x for y inside `image` (monotone there)."""
    if x == 0.0:
        return 0.0
    tol = 1e-14 * max(1.0, abs(x))
    lo, hi = image.lo, image.hi
    y = x / d1
    if y <= lo:
        y = 0.75 * lo
    elif y >= hi:
        y = 0.75 * hi
    for _ in range(60):
        try:
            f = ginv(y) - x
        except (OverflowError, ValueError):
            break
        if abs(f) <= tol:
            return y
        d = dginv(y)
        if d == 0.0 or not math.isfinite(d):
            break
        yn = y - f / d
        if not math.isfinite(yn) or yn <= lo or yn >= hi:
            break
        if yn == y:
            break
        y = yn
    return _bisect_monotone(x, ginv, image, increasing, tol, context)


def _ginv_capped(ginv: Callable, y: float, increasing: bool) -> float:
    try:
        return ginv(y)
    except OverflowError:
        big = math.inf if (y > 0.0) == increasing else -math.inf
        return big


def _bisect_monotone(x, ginv, image, increasing, tol, context) -> float:
    # Walk outward from 0 toward the end where ginv passes x, then bisect.
    f0 = -x  # ginv(0) - x
    direction = 1.0 if (x > 0.0) == increasing else -1.0
    end = image.hi if direction > 0 else image.lo
    good = 0.0
    bad = None
    y = 0.5 * direction
    for _ in range(200):
        if math.isfinite(end):
            if (direction > 0 and y >= end) or (direction < 0 and y <= end):
                y = 0.5 * (good + end)
        v = _ginv_capped(ginv, y, increasing)
        f = v - x
        if abs(f) <= tol:
            return y
        if f == 0.0 or (f > 0) != (f0 > 0):
            bad = y
            break
        good = y
        if math.isfinite(end):
            y = 0.5 * (y + end)
            if y == good:
                break
        else:
            y *= 2.0
    if bad is None:
        raise ConvergenceError(f"{context}: could not bracket a solution for x={x!r}")
    a, b = good, bad
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        f = _ginv_capped(ginv, mid, increasing) - x
        if abs(f) <= tol:
            return mid
        if (f > 0) == (f0 > 0):
            a = mid
        else:
            b = mid
    y = 0.5 * (a + b)
    if abs(_ginv_capped(ginv, y, increasing) - x) <= 100.0 * tol:
        return y
    raise ConvergenceError(f"{context}: inversion stalled at x={x!r}")


# -- monotone-interval scan for the series-defined families -------------------


def _find_flip(dginv: Callable, s0: float, sgn: float) -> float:
    """First sign change of dginv * s0 in direction sgn, or +-inf."""
    prev = 0.0
    steps = [0.125 * k for k in range(1, 129)] + [32.0, 64.0]
    for mag in steps:
        y = sgn * mag
        if dginv(y) * s0 <= 0.0:
            a, b = prev, y
            for _ in range(100):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                if dginv(mid) * s0 > 0.0:
                    a = mid
                else:
                    b = mid
            return a
        prev = y
    return sgn * math.inf


def _scan_pieces(ginv, dginv, d1: float, tail_neg: float, tail_pos: float):
    """Domain/image/direction for a family defined only through its inverse."""
    s0 = 1.0 if d1 > 0 else -1.0
    ylo = _find_flip(dginv, s0, -1.0)
    yhi = _find_flip(dginv, s0, 1.0)
    x_at_ylo = ginv(ylo) if math.isfinite(ylo) else tail_neg
    x_at_yhi = ginv(yhi) if math.isfinite(yhi) else tail_pos
    increasing = d1 > 0
    if increasing:
        domain = Interval(x_at_ylo, x_at_yhi)
    else:
        domain = Interval(x_at_yhi, x_at_ylo)
    return domain, Interval(ylo, yhi), increasing


# -- family builders -----------------------------------------------------------

_FULL_LINE = Interval(-math.inf, math.inf)


def _make_a1(p):
    dom = Interval(-1.0, math.inf)
    return dict(
        domain=dom, image=_FULL_LINE, increasing=True, implicit=False, side="both",
        g=math.log1p, ginv=math.expm1, dginv=math.exp,
    )


def _make_a2(p):
    return dict(
        domain=_FULL_LINE, image=Interval(-math.inf, 1.0), increasing=True,
        implicit=False, side="both",
        g=lambda x: -math.expm1(-x),
        ginv=lambda y: -math.log1p(-y),
        dginv=lambda y: 1.0 / (1.0 - y),
    )


def _make_a3(p):
    return dict(
        domain=_FULL_LINE, image=_FULL_LINE, increasing=True, implicit=False,
        side="both", g=math.asinh, ginv=math.sinh, dginv=math.cosh,
    )


def _make_a4(p):
    half_pi = 0.5 * math.pi
    return dict(
        domain=Interval(-1.0, 1.0, True, True),
        image=Interval(-half_pi, half_pi, True, True),
        increasing=True, implicit=False, side="both",
        g=math.asin, ginv=math.sin, dginv=math.cos,
    )


def _make_a5(p):
    af = float(p["alpha"])
    if p["alpha"] == 1:
        return dict(
            domain=_FULL_LINE, image=_FULL_LINE, increasing=True, implicit=False,
            side="both", g=lambda x: x, ginv=lambda y: y, dginv=lambda y: 1.0,
        )

    def ginv(y):
        if y == -1.0 and af > 0:
            return -1.0
        return math.expm1(af * math.log1p(y))

    def dginv(y):
        if y == -1.0:
            return 0.0 if af > 1 else math.inf
        return af * math.exp((af - 1.0) * math.log1p(y))

    def g(x):
        if x == -1.0:
            return -1.0
        return math.expm1(math.log1p(x) / af)

    if af > 0:
        dom = Interval(-1.0, math.inf, lo_closed=True)
        img = Interval(-1.0, math.inf, lo_closed=True)
        increasing = True
    else:
        dom = Interval(-1.0, math.inf)
        img = Interval(-1.0, math.inf)
        increasing = False
    return dict(domain=dom, image=img, increasing=increasing, implicit=False,
                side="both", g=g, ginv=ginv, dginv=dginv)


def _make_a6(p):
    if not p["w"] > 0:
        raise ValueError("family 'a6' requires w > 0; non-positive w breaks g(0) = 0")
    wf = float(p["w"])

    def g(x):
        return 2.0 * x / (math.sqrt(max(wf * wf + 2.0 * x, 0.0)) + wf)

    return dict(
        domain=Interval(-0.5 * wf * wf, math.inf, lo_closed=True),
        image=Interval(-wf, math.inf, lo_closed=True),
        increasing=True, implicit=False, side="both",
        g=g,
        ginv=lambda y: 0.5 * y * y + wf * y,
        dginv=lambda y: y + wf,
    )


def _make_a7(p):
    af = float(p["alpha"])
    bf = float(p["beta"])
    root = math.sqrt(af)

    def g(x):
        return (x * x + 2.0 * root * x) / bf

    def ginv(y):
        return bf * y / (math.sqrt(max(af + bf * y, 0.0)) + root)

    def dginv(y):
        return bf / (2.0 * math.sqrt(af + bf * y))

    if bf > 0:
        img = Interval(-af / bf, math.inf, lo_closed=True)
        increasing = True
    else:
        img = Interval(-math.inf, -af / bf, hi_closed=True)
        increasing = False
    return dict(
        domain=Interval(-root, math.inf, lo_closed=True), image=img,
        increasing=increasing, implicit=False, side="both",
        g=g, ginv=ginv, dginv=dginv,
    )


def _make_a8(p):
    def ginv(y):
        u = 1.0 - y
        return y * (2.0 - y) / (u * u)

    def dginv(y):
        u = 1.0 - y
        return 2.0 / (u * u * u)

    return dict(
        domain=Interval(-1.0, math.inf), image=Interval(-math.inf, 1.0),
        increasing=True, implicit=False, side="both",
        g=lambda x: -math.expm1(-0.5 * math.log1p(x)),
        ginv=ginv, dginv=dginv,
    )


def _make_a9(p):
    def g(x):
        if x == 0.0:
            return 0.0
        return 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * x * x))

    def ginv(y):
        return y / ((1.0 - y) * (1.0 + y))

    def dginv(y):
        u = 1.0 - y * y
        return (1.0 + y * y) / (u * u)

    return dict(
        domain=_FULL_LINE, image=Interval(-1.0, 1.0), increasing=True,
        implicit=False, side="both", g=g, ginv=ginv, dginv=dginv,
    )


def _make_a10(p):
    if not p["w"] > 0:
        raise ValueError("family 'a10' requires w > 0; non-positive w breaks g(0) = 0")
    wf = float(p["w"])
    scale = math.exp(wf - 1.0)

    def g(x):
        return lambert_w0(scale * (wf + x - 1.0)) + 1.0 - wf

    def ginv(y):
        return (wf + y - 1.0) * math.exp(y) + 1.0 - wf

    def dginv(y):
        return (wf + y) * math.exp(y)

    return dict(
        domain=Interval(1.0 - wf - math.exp(-wf), math.inf, lo_closed=True),
        image=Interval(-wf, math.inf, lo_closed=True),
        increasing=True, implicit=False, side="both",
        g=g, ginv=ginv, dginv=dginv,
    )


# Series-branch switch for formulas that cancel near zero.  The default
# threshold/degree pair follows the catalog-wide policy (1e-3, degree 8);
# entries whose direct formula is still noisy at 1e-3 get a wider series
# with a correspondingly higher degree.
_NEAR_ZERO = 1e-3


def _make_a11(p):
    c = _series_floats("a11", 8)
    dc = _series_deriv_floats("a11", 8)
    init = _g_init_floats("a11", 16)

    def ginv(y):
        if abs(y) < _NEAR_ZERO:
            return _horner(c, y)
        return -math.log1p(-y) / y - 1.0

    def dginv(y):
        if abs(y) < _NEAR_ZERO:
            return _horner(dc, y)
        return (y / (1.0 - y) + math.log1p(-y)) / (y * y)

    def g(x):
        if x >= 0.0625:
            t = 1.0 + x
            return lambert_w0(-t * math.exp(-t)) / t + 1.0
        y = _horner(init, x)
        for _ in range(2):
            y -= (ginv(y) - x) / dginv(y)
        return y

    return dict(
        domain=Interval(0.0, math.inf, lo_closed=True),
        image=Interval(0.0, 1.0, lo_closed=True),
        increasing=True, implicit=False, side="right_of_zero",
        g=g, ginv=ginv, dginv=dginv,
    )


def _make_a12(p):
    c = _series_floats("a12", 8)
    dc = _series_deriv_floats("a12", 8)
    init = _g_init_floats("a12", 16)

    def ginv(y):
        if abs(y) < _NEAR_ZERO:
            return _horner(c, y)
        return math.expm1(y) / y - 1.0

    def dginv(y):
        if abs(y) < _NEAR_ZERO:
            return _horner(dc, y)
        return ((y - 1.0) * math.exp(y) + 1.0) / (y * y)

    def g(x):
        if x <= -0.0625:
            t = 1.0 + x
            u = lambert_w0(-math.exp(-1.0 / t) / t)
            return -(u + 1.0 / t)
        y = _horner(init, x)
        for _ in range(2):
            y -= (ginv(y) - x) / dginv(y)
        return y

    return dict(
        domain=Interval(-1.0, 0.0, hi_closed=True),
        image=Interval(-math.inf, 0.0, hi_closed=True),
        increasing=True, implicit=False, side="left_of_zero",
        g=g, ginv=ginv, dginv=dginv,
    )


def _make_a13(p):
    half_pi = 0.5 * math.pi
    return dict(
        domain=Interval(-half_pi, half_pi, True, True),
        image=Interval(-1.0, 1.0, True, True),
        increasing=True, implicit=False, side="both",
        g=math.sin, ginv=math.asin,
        dginv=lambda y: 1.0 / math.sqrt(max(1.0 - y * y, 5e-324)),
    )


def _make_c1(p):
    wf = float(p["w"])

    def ginv(y):
        return y * (math.exp(y) + wf - 1.0)

    def dginv(y):
        return (y + 1.0) * math.exp(y) + wf - 1.0

    if wf > 1.0:
        tail_neg = -math.inf
    elif wf == 1.0:
        tail_neg = 0.0  # unreachable: the w=1 branch has a critical point first
    else:
        tail_neg = math.inf
    domain, image, increasing = _scan_pieces(ginv, dginv, wf, tail_neg, math.inf)
    return dict(domain=domain, image=image, increasing=increasing, implicit=True,
                side="both", g=None, ginv=ginv, dginv=dginv)


def _make_c2(p):
    def ginv(y):
        return (y - 2.0) * math.exp(y) - y + 2.0

    def dginv(y):
        return (y - 1.0) * math.exp(y) - 1.0

    domain, image, increasing = _scan_pieces(ginv, dginv, -2.0, math.inf, math.inf)
    return dict(domain=domain, image=image, increasing=increasing, implicit=True,
                side="both", g=None, ginv=ginv, dginv=dginv)


def _make_c3(p):
    c = _series_floats("c3", 20)
    dc = _series_deriv_floats("c3", 20)

    def ginv(y):
        if abs(y) < 0.25:
            return _horner(c, y)
        return (2.0 * math.exp(y) - 2.0 - 2.0 * y - y * y) / (2.0 * y * y)

    def dginv(y):
        if abs(y) < 0.25:
            return _horner(dc, y)
        ey = math.exp(y)
        num = 2.0 * ey - 2.0 - 2.0 * y - y * y
        nump = 2.0 * ey - 2.0 - 2.0 * y
        return (y * nump - 2.0 * num) / (2.0 * y ** 3)

    domain, image, increasing = _scan_pieces(ginv, dginv, 1.0 / 6.0, -0.5, math.inf)
    return dict(domain=domain, image=image, increasing=increasing, implicit=True,
                side="both", g=None, ginv=ginv, dginv=dginv)


def _make_c4(p):
    c = _series_floats("c4", 24)
    dc = _series_deriv_floats("c4", 24)

    def ginv(y):
        if abs(y) < 0.5:
            return _horner(c, y)
        ey = math.exp(y)
        return (6.0 * y * ey - 12.0 * ey - y ** 3 + 6.0 * y + 12.0) / (6.0 * y ** 3)

    def dginv(y):
        if abs(y) < 0.5:
            return _horner(dc, y)
        ey = math.exp(y)
        num = 6.0 * y * ey - 12.0 * ey - y ** 3 + 6.0 * y + 12.0
        nump = (6.0 * y - 6.0) * ey - 3.0 * y * y + 6.0
        return (y * nump - 3.0 * num) / (6.0 * y ** 4)

    domain, image, increasing = _scan_pieces(
        ginv, dginv, 1.0 / 12.0, -1.0 / 6.0, math.inf
    )
    return dict(domain=domain, image=image, increasing=increasing, implicit=True,
                side="both", g=None, ginv=ginv, dginv=dginv)


def _make_c5(p):
    af = float(p["alpha"])
    a1f = float(p["w"])
    a2f = float(p["beta"])

    def ginv(y):
        return af + (af + a1f - 1.0) * y + 0.5 * (af + a2f - 2.0) * y * y \
            + (y - af) * math.exp(y)

    def dginv(y):
        return (af + a1f - 1.0) + (af + a2f - 2.0) * y + (1.0 + y - af) * math.exp(y)

    q = af + a2f - 2.0
    lin = af + a1f - 1.0
    if q != 0.0:
        tail_neg = math.copysign(math.inf, q)
    elif lin != 0.0:
        tail_neg = -math.copysign(math.inf, lin)
    else:
        tail_neg = af
    domain, image, increasing = _scan_pieces(ginv, dginv, a1f, tail_neg, math.inf)
    return dict(domain=domain, image=image, increasing=increasing, implicit=True,
                side="both", g=None, ginv=ginv, dginv=dginv)


def _make_c6(p):
    c = _series_floats("c6", 20)
    dc = _series_deriv_floats("c6", 20)

    def ginv(y):
        if abs(y) < 0.0625:
            return _horner(c, y)
        a = math.acos(1.0 + y)
        return -a * a / (2.0 * y) - 1.0

    def dginv(y):
        if abs(y) < 0.0625:
            return _horner(dc, y)
        a = math.acos(1.0 + y)
        ap = -1.0 / math.sqrt(max(-y * (2.0 + y), 5e-324))
        return (a * a - 2.0 * a * ap * y) / (2.0 * y * y)

    hi = 0.25 * math.pi * math.pi - 1.0
    return dict(
        domain=Interval(0.0, hi, True, True),
        image=Interval(-2.0, 0.0, True, True),
        increasing=False, implicit=True, side="right_of_zero",
        g=None, ginv=ginv, dginv=dginv,
    )


_BUILDERS = {
    "a1": _make_a1, "a2": _make_a2, "a3": _make_a3, "a4": _make_a4,
    "a5": _make_a5, "a6": _make_a6, "a7": _make_a7, "a8": _make_a8,
    "a9": _make_a9, "a10": _make_a10, "a11": _make_a11, "a12": _make_a12,
    "a13": _make_a13, "c1": _make_c1, "c2": _make_c2, "c3": _make_c3,
    "c4": _make_c4, "c5": _make_c5, "c6": _make_c6,
}

# {key: {name: default}} for the families that take parameters, read from
# the registry.
PARAM_DEFAULTS = {key: dict(f.defaults) for key, f in FAMILIES.items() if f.defaults}


def get_expansion(key: str, *, alpha=None, beta=None, w=None) -> Expansion:
    """Construct the catalog entry for a family key, applying defaults.

    For "c5" the flags map onto the three shape parameters as
    alpha -> constant shift, w -> first derivative, beta -> second
    derivative of the inverse basis.
    """
    fam = get_family(key)
    params = fam.validate(alpha, beta, w, fill=True)
    pieces = _BUILDERS[key](params)
    d1 = float(fam.derivatives(1, **params)[0])
    g = pieces["g"]
    if g is None:
        image = pieces["image"]
        increasing = pieces["increasing"]
        ginv = pieces["ginv"]
        dginv = pieces["dginv"]
        ctx = f"family {key!r} numeric inversion"

        def g(x, _ginv=ginv, _dginv=dginv, _img=image, _inc=increasing, _d1=d1, _ctx=ctx):
            return _invert_monotone(x, _ginv, _dginv, _img, _inc, _d1, _ctx)

    return Expansion(
        key=key,
        label=fam.label,
        params=tuple(params.items()),
        domain=pieces["domain"],
        image=pieces["image"],
        side=pieces["side"],
        increasing=pieces["increasing"],
        implicit=pieces["implicit"],
        _g=g,
        _ginv=pieces["ginv"],
        _dginv=pieces["dginv"],
        _d1=d1,
    )


# -- public evaluation entry points -------------------------------------------


def _slack(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


def _clip_to(interval: Interval, x: float) -> float:
    if interval.lo_closed and x < interval.lo:
        return interval.lo
    if interval.hi_closed and x > interval.hi:
        return interval.hi
    return x


def eval_g(exp: Expansion, x: float) -> float:
    """g(x) for the expansion, with domain enforcement."""
    x = float(x)
    if not exp.domain.contains(x, _slack(x)):
        raise DomainError(
            f"x={x!r} outside the validity domain {exp.domain} of family {exp.key!r}"
        )
    try:
        return exp._g(_clip_to(exp.domain, x))
    except OverflowError:
        raise DomainError(
            f"g(x) overflows the float range at x={x!r} for family {exp.key!r}"
        ) from None


def eval_ginv(exp: Expansion, y: float) -> float:
    """g^{-1}(y) for the expansion, with image enforcement."""
    y = float(y)
    if not exp.image.contains(y, _slack(y)):
        raise DomainError(
            f"y={y!r} outside the image {exp.image} of family {exp.key!r}"
        )
    return exp._ginv(_clip_to(exp.image, y))


def invert_numeric(exp: Expansion, x: float) -> float:
    """Solve g(y-var) = x by Newton/bisection regardless of family kind.

    For explicit families this provides an independent cross-check of the
    closed-form basis evaluator.  Where the inverse basis or its
    derivative leaves the float range near an image endpoint (a2 and a11
    at large x, a8 at 1e300, a9 at -1e300) the solver's math error is
    raised as :class:`DomainError`.
    """
    x = float(x)
    if not exp.domain.contains(x, _slack(x)):
        raise DomainError(
            f"x={x!r} outside the validity domain {exp.domain} of family {exp.key!r}"
        )
    x = _clip_to(exp.domain, x)
    try:
        return _invert_monotone(
            x, exp._ginv, exp._dginv, exp.image, exp.increasing, exp._d1,
            f"family {exp.key!r} numeric inversion",
        )
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(
            f"numeric inversion fails at x={x!r} for family {exp.key!r}: {err}"
        ) from None


def map_domain(exp: Expansion, radius: float) -> Interval:
    """The x-interval where |g(x)| < radius, within the validity domain."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    dom, img = exp.domain, exp.image
    r = float(radius)
    if exp.increasing:
        if img.lo < -r:
            x_lo, lo_closed = exp._ginv(-r), False
        else:
            x_lo, lo_closed = dom.lo, dom.lo_closed and img.lo > -r
        if img.hi > r:
            x_hi, hi_closed = exp._ginv(r), False
        else:
            x_hi, hi_closed = dom.hi, dom.hi_closed and img.hi < r
    else:
        if img.hi > r:
            x_lo, lo_closed = exp._ginv(r), False
        else:
            x_lo, lo_closed = dom.lo, dom.lo_closed and img.hi < r
        if img.lo < -r:
            x_hi, hi_closed = exp._ginv(-r), False
        else:
            x_hi, hi_closed = dom.hi, dom.hi_closed and img.lo > -r
    return Interval(x_lo, x_hi, lo_closed, hi_closed)
