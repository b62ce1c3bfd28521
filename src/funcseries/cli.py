"""Command-line front end: table, figures, coeffs, eval, radius, compare.

All numeric output is deterministic: floats are printed as their shortest
round-trip decimal padded to 17 significant digits, CSV uses LF line
endings and a header row, and grids are the points numpy.linspace gives
for the parsed start:stop:count triple, computed in plain Python so that
only the radius command imports numpy (the optional "radius" extra).
Likewise json and csv are imported by the commands that write them, so
start-up loads only what every command needs; no command loads the Bell
verifiers of :mod:`funcseries.bell`.
Exit codes: 0 success, 1 usage error, 2 domain or convergence failure,
3 I/O failure or a missing optional dependency (radius without numpy).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .approx import (
    BUILTIN_FUNCTIONS,
    FunctionSpec,
    assemble,
    builtin_function,
    error_report,
    estimate_radius,
    evaluate,
    format_decimal,
    function_from_derivatives,
    taylor_baseline,
)
from .catalog import ConvergenceError, DomainError, get_expansion, map_domain
from .pseries import FAMILY_KEYS

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad command line or derivative file content."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this project reserves 2
    # for domain failures, so parsing problems are rethrown as UsageError
    # and mapped to exit code 1 in main().
    def error(self, message):
        raise UsageError(message)


# Converters for argparse's type=.  argparse turns only ArgumentTypeError,
# TypeError and ValueError into its own message, so the UsageError each of
# them raises reaches main() with its text unchanged.


def _parse_expansions(text: str) -> tuple:
    keys = tuple(key.strip() for key in text.split(",") if key.strip())
    for key in keys:
        if key != "tp" and key not in FAMILY_KEYS:
            raise UsageError(f"unknown family key {key!r}")
    return keys


def _parse_terms(text: str) -> int:
    try:
        terms = int(text)
    except ValueError as err:
        raise UsageError(f"--terms must be an integer, got {text!r}") from err
    if terms < 1:
        raise UsageError("--terms must be at least 1")
    return terms


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"not a rational number: {text!r}") from err


def _parse_point(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):  # float("1e400") is inf
        pass
    try:
        return float(text)
    except ValueError as err:
        raise UsageError(f"not a number: {text!r}") from err


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    start = _parse_point(parts[0])
    stop = _parse_point(parts[1])
    try:
        count = int(parts[2])
    except ValueError as err:
        raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from err
    if count < 1:
        raise UsageError("grid count must be at least 1")
    if start > stop:
        raise UsageError("grid start must not exceed stop")
    return (start, stop, count)


def _parse_n_list(text: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            n = int(piece)
        except ValueError as err:
            raise UsageError(f"--n-list entries must be integers, got {piece!r}") from err
        if n < 1:
            raise UsageError("--n-list entries must be at least 1")
        out.append(n)
    return tuple(out)


_PLAIN_BUILTINS = tuple(name for name in BUILTIN_FUNCTIONS if name != "pow")  # no alpha


def _load_function(spec_text: str) -> FunctionSpec:
    """Resolve --function: a builtin name, pow:RATIONAL, or a derivative file."""
    if spec_text in _PLAIN_BUILTINS:
        return builtin_function(spec_text)
    if spec_text == "pow":
        raise UsageError("builtin 'pow' needs an exponent, e.g. pow:1/5")
    if spec_text.startswith("pow:"):
        return builtin_function("pow", alpha=_parse_rational(spec_text[4:]))
    if os.path.exists(spec_text):
        values = []
        with open(spec_text, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(Fraction(line))
                except (ValueError, ZeroDivisionError) as err:
                    raise UsageError(
                        f"{spec_text}:{lineno}: not a rational number: {line!r}"
                    ) from err
        if not values:
            raise UsageError(f"{spec_text}: no derivative values found")
        name = os.path.splitext(os.path.basename(spec_text))[0]
        return function_from_derivatives(values, name=name)
    raise UsageError(
        f"unknown function {spec_text!r}: expected one of "
        f"{', '.join(BUILTIN_FUNCTIONS)} (pow as pow:RATIONAL) or a readable "
        "derivative file"
    )


def _build_model(key: str, func: FunctionSpec, terms: int, alpha=None, beta=None, w=None):
    """The order-terms model of a family key, or of "tp", the Taylor
    baseline; a parameter left None takes the family's catalog default."""
    if key == "tp":
        return taylor_baseline(func, terms)
    return assemble(get_expansion(key, alpha=alpha, beta=beta, w=w), func, terms)


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_csv(path: Optional[str], header, rows):
    """Write header and rows as CSV to the file at path, or to stdout."""
    import csv

    fh, owned = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if owned:
            fh.close()


def _write_text(path: Optional[str], text: str):
    fh, owned = _open_out(path)
    try:
        fh.write(text)
    finally:
        if owned:
            fh.close()


def _linspace(start: float, stop: float, count: int) -> list:
    """numpy.linspace(start, stop, count) as a list of floats, bit for bit.

    Same arithmetic as numpy: i * step + start, or (i / div) * delta +
    start when the step underflows to zero, with the last point set to
    stop exactly; an infinite delta sets the first point to start (not nan).
    """
    div = count - 1
    delta = stop - start
    if div <= 0:
        return [start if math.isinf(delta) else 0.0 * delta + start] * count
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    if math.isinf(delta):
        points[0] = start
    points[-1] = stop
    return points


# -- commands ------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    func = builtin_function("ln1p")
    x = 0.5
    exact = math.log1p(x)
    a8 = get_expansion("a8")
    rows = []
    for n in args.n_list:
        delta_a8 = abs(evaluate(assemble(a8, func, n), x) - exact)
        delta_tp = abs(evaluate(taylor_baseline(func, n), x) - exact)
        rows.append([str(n), format_decimal(delta_a8), format_decimal(delta_tp)])
    _write_csv(args.out, ["N", "delta_a8", "delta_tp"], rows)
    return 0


_FIGURE_FAMILIES = tuple(f"a{i}" for i in range(1, 14)) + ("tp",)


def _cmd_figures(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    xs = _linspace(*args.grid)
    manifest = []

    def emit(filename, header, rows, func_name, family):
        _write_csv(os.path.join(args.out, filename), header, rows)
        kept = [float(r[0]) for r in rows]
        manifest.append([
            func_name, family, filename, str(len(rows)),
            format_decimal(min(kept)) if kept else "nan",
            format_decimal(max(kept)) if kept else "nan",
        ])

    for func_name in _PLAIN_BUILTINS:
        func = builtin_function(func_name)
        for family in _FIGURE_FAMILIES:
            # figures takes no --alpha/--beta/--w: each family at its catalog defaults
            model = _build_model(family, func, args.terms)
            rows = []
            for point in error_report(model, xs):
                if point.note or math.isnan(point.exact):
                    continue  # outside the family's or the target's domain
                rows.append([
                    format_decimal(point.x),
                    format_decimal(point.approx),
                    format_decimal(point.exact),
                ])
            emit(
                f"{func_name}_{family}.csv", ["x", "approx", "exact"],
                rows, func_name, family,
            )

    # The fifth-root experiment: one file, both approximants side by side.
    func = builtin_function("pow", alpha=Fraction(1, 5))
    a5 = assemble(get_expansion("a5", alpha=2), func, args.terms)
    tp = taylor_baseline(func, args.terms)
    rows = []
    for x in _linspace(-1.0, 6.0, 281):
        rows.append([
            format_decimal(x),
            format_decimal(evaluate(a5, x)),
            format_decimal(evaluate(tp, x)),
            format_decimal(func.value_at(x)),
        ])
    emit(
        "fifth_root.csv", ["x", "approx_a5", "approx_tp", "exact"],
        rows, func.name, "a5",
    )

    _write_csv(os.path.join(args.out, "manifest.csv"),
               ["function", "expansion", "file", "points", "x_lo", "x_hi"], manifest)
    return 0


def _require_single_expansion(args: argparse.Namespace) -> str:
    if len(args.expansions) != 1:
        raise UsageError("this command takes exactly one --expansion")
    return args.expansions[0]


def _cmd_coeffs(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    func = _load_function(args.function)
    model = _build_model(key, func, args.terms, args.alpha, args.beta, args.w)
    if args.fmt == "json":
        import json

        _write_text(args.out, json.dumps(model.to_json_dict(), indent=2) + "\n")
        return 0
    # to_json_dict gives the decimal column, and raises DomainError for a
    # coefficient beyond the float range
    rows = [[str(entry["n"]), entry["decimal"], str(c) if c.is_exact else ""]
            for entry, c in zip(model.to_json_dict()["coefficients"], model.coefficients)]
    _write_csv(args.out, ["n", "decimal", "exact"], rows)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    if (args.at is None) == (args.grid is None):
        raise UsageError("eval needs exactly one of --at or --grid")
    model = _build_model(key, _load_function(args.function), args.terms,
                         args.alpha, args.beta, args.w)
    if args.at is not None:
        _write_text(args.out, format_decimal(evaluate(model, args.at)) + "\n")
        return 0
    failed = False
    rows = []
    for x in _linspace(*args.grid):
        try:
            value = evaluate(model, x)
        except DomainError:
            value = math.nan
            failed = True
        rows.append([format_decimal(x), format_decimal(value)])
    _write_csv(args.out, ["x", "approx"], rows)
    return 2 if failed else 0


def _cmd_radius(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    if key == "tp":
        raise UsageError("radius needs a catalog family, not the Taylor baseline")
    model = _build_model(key, _load_function(args.function), args.terms,
                         args.alpha, args.beta, args.w)
    radius = estimate_radius(model)
    interval = map_domain(model.expansion, radius if math.isfinite(radius) else math.inf)
    if args.fmt == "json":
        import json

        _write_text(args.out, json.dumps({
            "R": format_decimal(radius),
            "x_lo": format_decimal(interval.lo),
            "x_hi": format_decimal(interval.hi),
        }, indent=2) + "\n")
        return 0
    _write_csv(args.out, ["R", "x_lo", "x_hi"], [[
        format_decimal(radius), format_decimal(interval.lo),
        format_decimal(interval.hi),
    ]])
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if not args.expansions:
        raise UsageError("compare needs --expansion with one or more family keys")
    if (args.at is None) == (args.grid is None):
        raise UsageError("compare needs exactly one of --at or --grid")
    func = _load_function(args.function)
    xs = [args.at] if args.at is not None else _linspace(*args.grid)
    failed = False
    rows = []
    for key in args.expansions:
        model = _build_model(key, func, args.terms, args.alpha, args.beta, args.w)
        for point in error_report(model, xs):
            if point.note:
                failed = True
            rows.append([
                key,
                format_decimal(point.x),
                format_decimal(point.approx),
                format_decimal(point.exact),
                format_decimal(point.delta),
            ])
    _write_csv(args.out, ["expansion", "x", "approx", "exact", "delta"], rows)
    return 2 if failed else 0


def _add_terms_flag(sub):
    sub.add_argument("--terms", type=_parse_terms, default=8,
                     help="matched derivative order N (default 8)")


def _add_model_flags(sub, run, *, points: bool):
    """The flags of the one-model commands, bound to run: eval and compare
    also take --at/--grid, coeffs and radius take --format."""
    sub.set_defaults(run=run)
    sub.add_argument("--expansion", dest="expansions", metavar="EXPANSION",
                     type=_parse_expansions, required=True,
                     help="family key (a1..a13, c1..c6) or tp; compare "
                          "accepts a comma-separated list")
    sub.add_argument("--alpha", type=_parse_rational,
                     help="alpha parameter (rational, e.g. 1/2; use --alpha=-1/2 for a "
                          "negative value)")
    sub.add_argument("--beta", type=_parse_rational,
                     help="beta parameter (rational; use --beta=-1/2 for a negative value)")
    sub.add_argument("--w", type=_parse_rational,
                     help="w parameter (rational; use --w=-1/2 for a negative value)")
    sub.add_argument("--function", required=True,
                     help="exp | sin | sq | ln1p | pow:RATIONAL | derivative file")
    _add_terms_flag(sub)
    sub.add_argument("--out", help="output path (default stdout)")
    if points:
        sub.add_argument("--at", type=_parse_point,
                         help="single evaluation point (use --at=-0.5 for negative values)")
        sub.add_argument("--grid", type=_parse_grid,
                         help="start:stop:count (use --grid=-1:1:21 when start is negative)")
    else:
        sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="funcseries",
        description="Derivative-matching power-series approximations: "
                    "coefficients, evaluation, error tables, figure data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    table = subs.add_parser("table", help="error table for ln1p at x=0.5")
    table.add_argument("--n-list", type=_parse_n_list, default="3,7,10,20",
                       help="comma-separated list of orders (default 3,7,10,20)")
    table.add_argument("--out", help="output path (default stdout)")
    table.set_defaults(run=_cmd_table)

    figures = subs.add_parser("figures", help="grid data files for all families")
    figures.add_argument("--out", default="figures",
                         help="output directory (default ./figures)")
    _add_terms_flag(figures)
    figures.add_argument("--grid", type=_parse_grid, default="-3:3:241",
                         help="start:stop:count; write --grid=-3:3:241 when "
                              "start is negative (default -3:3:241)")
    figures.set_defaults(run=_cmd_figures)

    for name, help_text, run, points in (
        ("coeffs", "coefficient listing for one model", _cmd_coeffs, False),
        ("eval", "evaluate one model at a point or grid", _cmd_eval, True),
        ("radius", "convergence radius and x-interval", _cmd_radius, False),
        ("compare", "side-by-side family comparison", _cmd_compare, True),
    ):
        _add_model_flags(subs.add_parser(name, help=help_text), run, points=points)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (DomainError, ConvergenceError) as err:
        code, message = 2, err
    except (UsageError, ValueError) as err:
        code, message = 1, err
    except OSError as err:
        code, message = 3, err
    except ModuleNotFoundError as err:  # only radius imports lazily: numpy
        code, message = 3, (f"{err.name} is not installed; it comes with the 'radius' "
                            "extra: pip install 'funcseries[radius]'")
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
