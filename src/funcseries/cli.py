"""Command-line front end: table, figures, coeffs, eval, radius, compare.

All numeric output is deterministic: floats are printed as their shortest
round-trip decimal padded to 17 significant digits, CSV uses LF line
endings and a header row, and grids are the points numpy.linspace gives
for the parsed start:stop:count triple, computed in plain Python so that
only the radius command imports numpy (the optional "radius" extra).
The CLI has no number rule of its own: every number, a flag's or a
derivative file's, is read by :func:`funcseries.exact.scalar`, and a point
(--at, a grid end) falls back to float() only for what that refuses (inf,
nan, a decimal exponent beyond its bound).
Likewise json and csv are imported by the commands that write them, so
start-up loads only what every command needs; no command loads the Bell
verifiers of :mod:`funcseries.bell`.  An invocation builds the parser of
the command it names alone (no command, -h or an unknown one gets the full
parser), from the one declaration of each command's flags, `_declare`.
Exit codes: 0 success, 1 usage error, 2 domain or convergence failure,
3 I/O failure or a missing optional dependency (radius without numpy).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
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
from .catalog import ConvergenceError, DomainError, _as_float, get_expansion, map_domain
from .exact import ExactScalar, scalar
from .pseries import FAMILY_KEYS, _check_order

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
# them raises reaches main() with its text unchanged.  Number text goes to
# scalar, the package's one reader of it.


def _parse_expansions(text: str) -> tuple:
    keys = tuple(key.strip() for key in text.split(",") if key.strip())
    for key in keys:
        if key != "tp" and key not in FAMILY_KEYS:
            raise UsageError(f"unknown family key {key!r}")
    return keys


def _parse_count(text: str, flag: str = "--terms") -> int:
    """A count: --terms, an --n-list entry or the grid's; at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"{flag} must be a positive integer, got {text!r}")
    return count


def _parse_rational(text: str, flag: Optional[str] = None) -> ExactScalar:
    try:
        return scalar(text)
    except ValueError as err:
        raise UsageError(str(err) if flag is None else f"{flag}: {err}") from None


def _parse_point(text: str) -> float:
    """scalar(text) as a float, beyond the float range +-inf; what scalar
    refuses (inf, nan, an exponent beyond its bound) as float() reads it."""
    try:
        return _as_float(scalar(text))
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid must be start:stop:count, got {text!r}")
    start, stop = _parse_point(parts[0]), _parse_point(parts[1])
    count = _parse_count(parts[2], "--grid count")
    if start > stop:
        raise UsageError("--grid start must not exceed stop")
    return (start, stop, count)


def _parse_n_list(text: str) -> tuple:
    return tuple(_parse_count(piece, "--n-list entry") for piece in text.split(","))


_PLAIN_BUILTINS = tuple(name for name in BUILTIN_FUNCTIONS if name != "pow")  # no alpha


def _load_function(spec_text: str) -> FunctionSpec:
    """Resolve --function: a builtin name, pow:RATIONAL, or a derivative file."""
    if spec_text in _PLAIN_BUILTINS:
        return builtin_function(spec_text)
    if spec_text == "pow":
        raise UsageError("builtin 'pow' needs an exponent, e.g. pow:1/5")
    if spec_text.startswith("pow:"):
        return builtin_function("pow", alpha=spec_text[4:])
    if os.path.exists(spec_text):
        values = []
        with open(spec_text, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(scalar(line))
                except ValueError as err:
                    raise UsageError(f"{spec_text}:{lineno}: {err}") from None
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


def _write(path: Optional[str], header, rows, doc=None):
    """Write doc as indented JSON, or else header (unless None) and rows as
    CSV, to the file at path or to stdout: every command's one writer."""
    fh = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
    try:
        if doc is not None:
            import json

            fh.write(json.dumps(doc, indent=2) + "\n")
        else:
            import csv

            writer = csv.writer(fh, lineterminator="\n")
            if header is not None:
                writer.writerow(header)
            writer.writerows(rows)
    finally:
        if path is not None:
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
    _write(args.out, ["N", "delta_a8", "delta_tp"], rows)
    return 0


def _approx(model, x: float) -> Optional[float]:
    """evaluate(model, x), or None where x lies outside the model's domain."""
    try:
        return evaluate(model, x)
    except DomainError:
        return None


def _cmd_figures(args: argparse.Namespace) -> int:
    _check_order(args.terms)  # before the output directory is made
    os.makedirs(args.out, exist_ok=True)
    xs = _linspace(*args.grid)
    manifest = []

    def emit(filename, header, points, func_name, family):
        """Write the rows of (x, row) points, and list the file and its x range in the manifest."""
        _write(os.path.join(args.out, filename), header, [row for _, row in points])
        kept = [x for x, _ in points]
        span = [format_decimal(min(kept)), format_decimal(max(kept))] if kept else ["nan"] * 2
        manifest.append([func_name, family, filename, str(len(kept))] + span)

    # figures takes no --alpha/--beta/--w: a1..a13 at their catalog defaults, each built once
    expansions = {f"a{i}": get_expansion(f"a{i}") for i in range(1, 14)}
    for func_name in _PLAIN_BUILTINS:
        func = builtin_function(func_name)
        # once per target: the points with a reference, and their x and reference texts
        refs = [(x, format_decimal(x), format_decimal(ref))
                for x, ref in zip(xs, map(func.value_at, xs))
                if ref is not None and not math.isnan(ref)]
        for family in (*expansions, "tp"):
            model = (taylor_baseline(func, args.terms) if family == "tp"
                     else assemble(expansions[family], func, args.terms))
            # of those, the points inside the family's domain
            points = [(x, [x_text, format_decimal(v), ref_text]) for x, x_text, ref_text in refs
                      if (v := _approx(model, x)) is not None]
            emit(f"{func_name}_{family}.csv", ["x", "approx", "exact"], points, func_name, family)

    # The fifth-root experiment: one file, both approximants side by side.
    func = builtin_function("pow", alpha="1/5")
    a5 = assemble(get_expansion("a5", alpha=2), func, args.terms)
    tp = taylor_baseline(func, args.terms)
    points = [(x, [format_decimal(v) for v in (x, evaluate(a5, x), evaluate(tp, x),
                                                func.value_at(x))])
              for x in _linspace(-1.0, 6.0, 281)]
    emit("fifth_root.csv", ["x", "approx_a5", "approx_tp", "exact"], points, func.name, "a5")

    _write(os.path.join(args.out, "manifest.csv"),
           ["function", "expansion", "file", "points", "x_lo", "x_hi"], manifest)
    return 0


def _require_single_expansion(args: argparse.Namespace) -> str:
    if len(args.expansions) != 1:
        raise UsageError("this command takes exactly one --expansion")
    return args.expansions[0]


def _exact_column(exact: Optional[dict]) -> str:
    """to_json_dict's num and den written as str(Fraction) writes them; "" for a float."""
    if exact is None:
        return ""
    return exact["num"] if exact["den"] == "1" else f"{exact['num']}/{exact['den']}"


def _cmd_coeffs(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    func = _load_function(args.function)
    model = _build_model(key, func, args.terms, args.alpha, args.beta, args.w)
    doc = model.to_json_dict()  # each coefficient's text, once, or the error that names it
    rows = [[str(c["n"]), c["decimal"], _exact_column(c["exact"])] for c in doc["coefficients"]]
    _write(args.out, ["n", "decimal", "exact"], rows, doc if args.fmt == "json" else None)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    if (args.at is None) == (args.grid is None):
        raise UsageError("eval needs exactly one of --at or --grid")
    model = _build_model(key, _load_function(args.function), args.terms,
                         args.alpha, args.beta, args.w)
    if args.at is not None:
        _write(args.out, None, [[format_decimal(evaluate(model, args.at))]])
        return 0
    values = [(x, _approx(model, x)) for x in _linspace(*args.grid)]  # and no reference
    _write(args.out, ["x", "approx"],
           [[format_decimal(x), "nan" if v is None else format_decimal(v)] for x, v in values])
    return 2 if any(v is None for _, v in values) else 0


def _cmd_radius(args: argparse.Namespace) -> int:
    key = _require_single_expansion(args)
    if key == "tp":
        raise UsageError("radius needs a catalog family, not the Taylor baseline")
    model = _build_model(key, _load_function(args.function), args.terms,
                         args.alpha, args.beta, args.w)
    radius = estimate_radius(model)
    interval = map_domain(model.expansion, radius if math.isfinite(radius) else math.inf)
    header = ["R", "x_lo", "x_hi"]
    row = [format_decimal(radius), format_decimal(interval.lo), format_decimal(interval.hi)]
    _write(args.out, header, [row], dict(zip(header, row)) if args.fmt == "json" else None)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if not args.expansions:
        raise UsageError("compare needs --expansion with one or more family keys")
    if (args.at is None) == (args.grid is None):
        raise UsageError("compare needs exactly one of --at or --grid")
    func = _load_function(args.function)
    xs = [args.at] if args.at is not None else _linspace(*args.grid)
    failed, rows, texts = False, [], None
    for key in args.expansions:
        model = _build_model(key, func, args.terms, args.alpha, args.beta, args.w)
        report = error_report(model, xs)
        failed = failed or any(point.note for point in report)
        # each point's x and reference are every key's: formatted once
        texts = texts or [(format_decimal(p.x), format_decimal(p.exact)) for p in report]
        rows += [[key, x_text, format_decimal(p.approx), ref_text, format_decimal(p.delta)]
                 for p, (x_text, ref_text) in zip(report, texts)]
    _write(args.out, ["expansion", "x", "approx", "exact", "delta"], rows)
    return 2 if failed else 0


# Each command's help line and runner.
_COMMANDS = {
    "table": ("error table for ln1p at x=0.5", _cmd_table),
    "figures": ("grid data files for all families", _cmd_figures),
    "coeffs": ("coefficient listing for one model", _cmd_coeffs),
    "eval": ("evaluate one model at a point or grid", _cmd_eval),
    "radius": ("convergence radius and x-interval", _cmd_radius),
    "compare": ("side-by-side family comparison", _cmd_compare),
}


def _declare(sub: _Parser, command: str) -> _Parser:
    """Declare a command's runner and flags on sub: the one declaration of
    them, read by the full parser and by the command's own parser alike."""
    sub.set_defaults(run=_COMMANDS[command][1])
    if command == "table":
        sub.add_argument("--n-list", type=_parse_n_list, default="3,7,10,20",
                         help="comma-separated list of orders (default 3,7,10,20)")
    elif command == "figures":
        sub.add_argument("--out", default="figures", help="output directory (default ./figures)")
    else:  # the one-model commands
        sub.add_argument("--expansion", dest="expansions", metavar="EXPANSION",
                         type=_parse_expansions, required=True,
                         help="family key (a1..a13, c1..c6) or tp; compare "
                              "accepts a comma-separated list")
        sub.add_argument("--alpha", type=partial(_parse_rational, flag="--alpha"),
                         help="alpha parameter (rational, e.g. 1/2; use --alpha=-1/2 for a "
                              "negative value)")
        sub.add_argument("--beta", type=partial(_parse_rational, flag="--beta"),
                         help="beta parameter (rational; use --beta=-1/2 for a negative value)")
        sub.add_argument("--w", type=partial(_parse_rational, flag="--w"),
                         help="w parameter (rational; use --w=-1/2 for a negative value)")
        sub.add_argument("--function", required=True,
                         help="exp | sin | sq | ln1p | pow:RATIONAL | derivative file")
    if command != "table":
        sub.add_argument("--terms", type=_parse_count, default=8,
                         help="matched derivative order N (default 8)")
    if command == "figures":
        sub.add_argument("--grid", type=_parse_grid, default="-3:3:241",
                         help="start:stop:count; write --grid=-3:3:241 when "
                              "start is negative (default -3:3:241)")
    else:
        sub.add_argument("--out", help="output path (default stdout)")
    if command in ("eval", "compare"):
        sub.add_argument("--at", type=_parse_point,
                         help="single evaluation point (use --at=-0.5 for negative values)")
        sub.add_argument("--grid", type=_parse_grid,
                         help="start:stop:count (use --grid=-1:1:21 when start is negative)")
    elif command in ("coeffs", "radius"):
        sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return sub


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The full parser of all six commands or, given a command, the parser
    that the full parser's subparser for it would be, built alone."""
    if command is not None:
        return _declare(_Parser(prog=f"funcseries {command}"), command)
    parser = _Parser(
        prog="funcseries",
        description="Derivative-matching power-series approximations: "
                    "coefficients, evaluation, error tables, figure data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _declare(subs.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command's own parser; anything else (none, -h, a typo) the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv[1:] if command else argv)
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
