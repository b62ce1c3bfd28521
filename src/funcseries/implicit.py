"""The implicit bases c1 .. c6 and the numeric inversion they run on.

These six families have no explicit basis formula: g is the solution y of
ginv(y) = x, found by capped Newton on the inverse basis with a bisection
walk as its fallback and a reported (never silent) failure mode.  For
c1 .. c5 the domain and image are not written down either:
:func:`_scan_pieces` scans the slope of the inverse basis for its first
sign change on each side of zero (:func:`_find_flip`).

The solver has one source, ``_SOLVER``: the Newton loop
``_invert_monotone`` and the walk ``_bisect_monotone`` over the names of
the inverse basis's constants, with two slots for the inverse basis, a
*pair* (statements that bind v and d, its value and slope at y) and a
*value* (an expression in y, its value alone).  With the call slots
``v, d = ginv_d(y)`` and ``ginv_d(y)[0]`` it gives this module's
``_invert_monotone(x, ginv_d, image, increasing, d1, context)`` and
``_bisect_monotone(x, ginv_d, image, increasing, tol, context)``, which
:func:`funcseries.catalog.invert_numeric` runs on any family's pair; they
compile on first use.

A builder here states its inverse basis once, as a pair text and a value
text over its float constants (c3, c4 and c6 sum their series branches
with ``catalog._horner`` over two of them, the tables of the series and
of its slope).
:func:`_compile` puts the two texts into the slots of a source and
compiles it, once per source per family per process.  A build compiles
the pair ``ginv_d`` alone, a function of y, which the scan, ``eval_ginv``
and ``map_domain`` read.  The solver, with the value form ``ginv`` beside
it, compiles on the first read of ``Expansion._g``: the first
``evaluate`` or ``eval_g`` of any expansion of the family, so ``coeffs``,
``radius``, ``map_domain`` and pickling never compile it.  An expansion
instantiates that code with its constants as the functions' defaults,
and g with its image, direction, d_1 and error context as well, so every
Newton and bisection step of g runs the formula inline, with one call to
``catalog._horner`` per table it reads on a series branch.  The operations
and their order are those of the call-slot solver over the pair, so g is
that solver's float bit for bit.

The module loads on first use: :func:`funcseries.catalog.get_expansion`
imports it for one of these six keys, and
:func:`funcseries.catalog.invert_numeric` on its first call, so an
explicit family's build and evaluation, a bare ``import funcseries`` and
``import funcseries.cli`` never compile it.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from types import FunctionType
from typing import Callable

from .catalog import ConvergenceError, Interval, _horner, _series_floats, _slope_floats

# -- numeric inversion of a monotone inverse basis ----------------------------
#
# ${args} names the inverse basis's constants, each followed by ", "; a
# line "$pair" takes the pair's statements at its indentation, and $value
# is the value expression.  The tests are comparisons, not calls: mtol <= f
# <= tol is abs(f) <= tol and ninf < d < inf is isfinite(d), both False for
# NaN, with -inf bound once per call.

_SOLVER = '''
def _invert_monotone(x, ${args}image, increasing, d1, context):
    # Solve ginv(y) = x for y inside `image` (monotone there).  Newton takes
    # value and slope from the pair at each step and hands over to the walk
    # when the pair raises, the slope is 0 or not finite, or a step leaves
    # the image.
    if x == 0.0:
        return 0.0
    tol = 1e-14 * max(1.0, abs(x))
    lo, hi = image.lo, image.hi
    inf = math.inf
    ninf = -inf
    y = x / d1
    if y <= lo:
        y = 0.75 * lo
    elif y >= hi:
        y = 0.75 * hi
    mtol = -tol
    for _ in range(60):
        try:
            $pair
        except (OverflowError, ValueError):
            break
        f = v - x
        if mtol <= f <= tol:
            return y
        if d == 0.0 or not ninf < d < inf:
            break
        yn = y - f / d
        if not lo < yn < hi:
            break
        if yn == y:
            break
        y = yn
    return _bisect_monotone(x, ${args}image, increasing, tol, context)


def _bisect_monotone(x, ${args}image, increasing, tol, context):
    # Walk outward from 0 toward the end where ginv passes x, then bisect.
    # Where ginv overflows, it counts as the infinity it tends to, which
    # lies beyond the finite x: f is +-inf.  A walk that stalls next to a
    # closed end tries the end itself, where the solution may lie (a7 at
    # x = -2); when f changes sign between the last point and the end, the
    # root lies between two adjacent floats, and the one with the smaller
    # residual is returned (a7 a hair above -2, where g' = 0 and no float
    # meets the tolerance).  The value is always taken at y.
    pos0 = -x > 0  # the sign of f = ginv(0) - x
    mtol = -tol
    inf = math.inf
    ninf = -inf
    direction = 1.0 if (x > 0.0) == increasing else -1.0
    if direction > 0:
        end, closed = image.hi, image.hi_closed
    else:
        end, closed = image.lo, image.lo_closed
    bounded = ninf < end < inf
    good, fgood = 0.0, -x
    bad = None
    y = 0.5 * direction
    for _ in range(200):
        if bounded and (y >= end if direction > 0 else y <= end):
            y = 0.5 * (good + end)
        try:
            f = ($value) - x
        except OverflowError:
            f = inf if (y > 0.0) == increasing else ninf
        if mtol <= f <= tol:
            return y
        if f == 0.0 or (f > 0) != pos0:
            bad = y
            break
        good, fgood = y, f
        if bounded:
            y = 0.5 * (y + end)
            if y == good:
                break
        else:
            y *= 2.0
    if bad is None and closed:
        y = end
        fend = ($value) - x  # a closed end maps to a finite x, so this is finite
        if mtol <= fend <= tol:
            return end
        if (fend > 0) != pos0:
            return end if abs(fend) < abs(fgood) else good
    if bad is None:
        raise ConvergenceError(f"{context}: could not bracket a solution for x={x!r}")
    a, b = good, bad
    for _ in range(200):
        y = 0.5 * (a + b)
        if y == a or y == b:
            break
        try:
            f = ($value) - x
        except OverflowError:
            f = inf if (y > 0.0) == increasing else ninf
        if mtol <= f <= tol:
            return y
        if (f > 0) == pos0:
            a = y
        else:
            b = y
    y = 0.5 * (a + b)
    try:
        f = ($value) - x
    except OverflowError:
        f = inf
    if abs(f) <= 100.0 * tol:
        return y
    raise ConvergenceError(f"{context}: inversion stalled at x={x!r}")
'''

# The pair of an implicit basis, and its value form, as functions of y: a
# build compiles the pair, and the first read of g the solver with the
# value form.
_PAIR = '''
def ginv_d(y, ${args}):
    $pair
    return v, d
'''

_VALUE = '''
def ginv(y, ${args}):
    return $value
'''


@lru_cache(maxsize=None)
def _compile(args: str, pair: str, value: str, source: str) -> dict:
    """The namespace in which `source` ran with its slots filled, compiled
    once per process: the pair's lines, their common indentation taken out,
    at the indentation of each "$pair" line, and args and value in place.
    The Newton loop finds its walk there."""
    lines = [line for line in pair.split("\n") if line.strip()]
    margin = min(len(line) - len(line.lstrip()) for line in lines)
    text = re.sub(r"^( *)\$pair$", lambda m: "\n".join(m[1] + line[margin:] for line in lines),
                  source, flags=re.M)
    text = text.replace("${args}", args).replace("$value", value)
    ns = {"math": math, "exp": math.exp, "acos": math.acos, "sqrt": math.sqrt,
          "_horner": _horner, "ConvergenceError": ConvergenceError}
    exec(compile(text, "<solver>", "exec"), ns)
    return ns


def __getattr__(name: str):
    # the solver with the call slots, over any family's pair, compiles here
    # on first use, so a process that only builds and evaluates implicit
    # bases never compiles it
    if name in ("_invert_monotone", "_bisect_monotone"):
        return _compile("ginv_d, ", "v, d = ginv_d(y)", "ginv_d(y)[0]", _SOLVER)[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _basis(names: tuple, consts: tuple, pair: str, value: str, **pieces) -> dict:
    """A builder's pieces: the pair ``ginv_d``, compiled here;
    ``solver(image, increasing, d1, context)``, which gives g; and
    ``value_form()``, which gives the value form ``ginv``.  Each is code of
    :func:`_compile` with the constants as defaults, and the last two
    compile the solver and the value form on first use."""
    args = "".join(n + ", " for n in names)
    ns = _compile(args, pair, value, _PAIR)

    def solver(image, increasing, d1, context):
        ns = _compile(args, pair, value, _SOLVER + _VALUE)
        return FunctionType(ns["_invert_monotone"].__code__, ns, "g",
                            consts + (image, increasing, d1, context))

    def value_form():
        ns = _compile(args, pair, value, _SOLVER + _VALUE)
        return FunctionType(ns["ginv"].__code__, ns, "ginv", consts)

    return dict(pieces, solver=solver, value_form=value_form,
                ginv_d=FunctionType(ns["ginv_d"].__code__, ns, "ginv_d", consts))


# -- monotone-interval scan for the series-defined families -------------------


def _find_flip(ginv_d: Callable, s0: float, sgn: float) -> float:
    """First sign change of the slope ginv' * s0 in direction sgn, or +-inf.

    The scan steps by 1/8 out to |y| = 16, doubles from 32 to 512, then
    takes 640 and 704, below 709.78, past which exp(y) overflows (exp(-y)
    stays a normal float up to 708.39).  c5's slope tends to lin + q y as
    y -> -inf, so its flip lies near -lin / q, beyond 512 at alpha = -1/2,
    w = -100, beta = 7/3 (y = -609)."""
    prev = 0.0
    steps = [0.125 * k for k in range(1, 129)] + [32.0, 64.0, 128.0, 256.0, 512.0, 640.0, 704.0]
    for mag in steps:
        y = sgn * mag
        if ginv_d(y)[1] * s0 <= 0.0:
            a, b = prev, y
            for _ in range(100):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                if ginv_d(mid)[1] * s0 > 0.0:
                    a = mid
                else:
                    b = mid
            return a
        prev = y
    return sgn * math.inf


def _scan_pieces(ginv_d, d1: float, tail_neg: float):
    """Domain and image for a family defined only through its inverse.

    tail_neg is the limit of ginv as y -> -inf, used when the slope keeps
    its sign on the whole negative half-line; towards +inf the exp(y) term
    of every scanned inverse basis (c1 .. c5) sends ginv to +inf.
    """
    s0 = 1.0 if d1 > 0 else -1.0
    ylo = _find_flip(ginv_d, s0, -1.0)
    yhi = _find_flip(ginv_d, s0, 1.0)
    x_at_ylo = ginv_d(ylo)[0] if math.isfinite(ylo) else tail_neg
    x_at_yhi = ginv_d(yhi)[0] if math.isfinite(yhi) else math.inf
    if d1 > 0:
        domain = Interval(x_at_ylo, x_at_yhi)
    else:
        domain = Interval(x_at_yhi, x_at_ylo)
    return domain, Interval(ylo, yhi)


# -- family builders -----------------------------------------------------------
#
# A builder states its inverse basis once, as the pair and value texts of
# _basis, and gives either tail_neg (c1 .. c5, see _scan_pieces) or, for
# c6, the domain and image with its side.  c3, c4 and c6 bind two tables,
# S = catalog._series_floats (their inverse series c_0 .. c_N) and
# T = catalog._slope_floats (its slope's, n c_n), and sum them with
# catalog._horner below their switches.


def _make_c1(p):
    wf = float(p["w"])
    if wf > 1.0:
        tail_neg = -math.inf
    elif wf == 1.0:
        tail_neg = 0.0  # unreachable: the w=1 branch has a critical point first
    else:
        tail_neg = math.inf
    return _basis(("wf",), (wf,), """
        ey = exp(y)
        v, d = y * (ey + wf - 1.0), (y + 1.0) * ey + wf - 1.0
    """, "y * (exp(y) + wf - 1.0)", tail_neg=tail_neg)


def _make_c2(p):
    return _basis((), (), """
        ey = exp(y)
        v, d = (y - 2.0) * ey - y + 2.0, (y - 1.0) * ey - 1.0
    """, "(y - 2.0) * exp(y) - y + 2.0", tail_neg=math.inf)


def _make_c3(p):
    return _basis(("S", "T"), (_series_floats("c3", 20), _slope_floats("c3", 20)), """
        if abs(y) < 0.25:
            v, d = _horner(S, y), _horner(T, y)
        else:
            ey = exp(y)
            num = 2.0 * ey - 2.0 - 2.0 * y - y * y
            nump = 2.0 * ey - 2.0 - 2.0 * y
            try:
                v, d = num / (2.0 * y * y), (y * nump - 2.0 * num) / (2.0 * y ** 3)
            except OverflowError:  # y ** 3 for y < -5e102, where the slope is below 1e-200
                v, d = num / (2.0 * y * y), 0.0
    """, "_horner(S, y) if abs(y) < 0.25 else "
         "(2.0 * exp(y) - 2.0 - 2.0 * y - y * y) / (2.0 * y * y)",
        tail_neg=-0.5)


def _make_c4(p):
    return _basis(("S", "T"), (_series_floats("c4", 24), _slope_floats("c4", 24)), """
        if abs(y) < 0.5:
            v, d = _horner(S, y), _horner(T, y)
        else:
            ey = exp(y)
            y3 = y ** 3
            num = 6.0 * y * ey - 12.0 * ey - y3 + 6.0 * y + 12.0
            nump = (6.0 * y - 6.0) * ey - 3.0 * y * y + 6.0
            try:
                v, d = num / (6.0 * y3), (y * nump - 3.0 * num) / (6.0 * y ** 4)
            except OverflowError:  # y ** 4 for y < -1.3e77, where the slope is below 1e-200
                v, d = num / (6.0 * y3), 0.0
    """, "_horner(S, y) if abs(y) < 0.5 else "
         "(6.0 * y * (ey := exp(y)) - 12.0 * ey - (y3 := y ** 3) + 6.0 * y + 12.0) / (6.0 * y3)",
        tail_neg=-1.0 / 6.0)


def _make_c5(p):
    af = float(p["alpha"])
    a1f = float(p["w"])
    a2f = float(p["beta"])

    q = af + a2f - 2.0
    lin = af + a1f - 1.0
    if q != 0.0:
        tail_neg = math.copysign(math.inf, q)
    elif lin != 0.0:
        tail_neg = -math.copysign(math.inf, lin)
    else:
        tail_neg = af
    return _basis(("af", "lin", "q"), (af, lin, q), """
        ey = exp(y)
        v, d = af + lin * y + 0.5 * q * y * y + (y - af) * ey, lin + q * y + (1.0 + y - af) * ey
    """, "af + lin * y + 0.5 * q * y * y + (y - af) * exp(y)", tail_neg=tail_neg)


def _make_c6(p):
    hi = 0.25 * math.pi * math.pi - 1.0
    return _basis(("S", "T"), (_series_floats("c6", 20), _slope_floats("c6", 20)), """
        if abs(y) < 0.0625:
            v, d = _horner(S, y), _horner(T, y)
        else:
            ac = acos(1.0 + y)
            acp = -1.0 / sqrt(max(-y * (2.0 + y), 5e-324))
            v, d = -ac * ac / (2.0 * y) - 1.0, (ac * ac - 2.0 * ac * acp * y) / (2.0 * y * y)
    """, "_horner(S, y) if abs(y) < 0.0625 else -(ac := acos(1.0 + y)) * ac / (2.0 * y) - 1.0",
        domain=Interval(0.0, hi, True, True),
        image=Interval(-2.0, 0.0, True, True),
        side="right_of_zero")


_BUILDERS = {
    "c1": _make_c1, "c2": _make_c2, "c3": _make_c3,
    "c4": _make_c4, "c5": _make_c5, "c6": _make_c6,
}
