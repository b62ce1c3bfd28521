"""Power-series approximations in substituted bases, beyond plain Taylor.

The package builds approximants of the form

    A(x) = a_0 + a_1 g(x) + a_2 g(x)^2 + ... + a_N g(x)^N

where g is drawn from a catalog of basis functions and the coefficients
are fixed by matching all derivatives of the target function up to order
N at the expansion point.  Coefficient arithmetic is exact rational
wherever the inputs are; floats only enter through explicitly approximate
derivative values or at final evaluation time.

Layering: exact scalars, combinatorics and the Bell column kernel
(`exact`), truncated series arithmetic and the registry of the 19 basis
families (`pseries`), the paper's closed-form Bell values and their
verification gate (`bell`), the basis catalog with float evaluators
(`catalog`), model assembly and evaluation (`approx`), and the
command-line front end (`cli`).  `bell` loads on first use, by a caller
that names it; no model build, float evaluator or `import funcseries.cli`
loads it.
"""

import importlib

from .exact import (
    ONE,
    ZERO,
    ExactScalar,
    binomial,
    double_factorial,
    falling_factorial,
    scalar,
    stirling1,
    stirling2,
)
from .pseries import (
    FAMILY_KEYS,
    FAMILY_PARAMS,
    MAX_ORDER,
    TruncatedSeries,
    family_series,
)
from .catalog import (
    PARAM_DEFAULTS,
    ConvergenceError,
    DomainError,
    Expansion,
    Interval,
    eval_g,
    eval_ginv,
    get_expansion,
    invert_numeric,
    lambert_w0,
    map_domain,
)
from .approx import (
    BUILTIN_FUNCTIONS,
    ApproximationModel,
    FunctionSpec,
    PointReport,
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

__version__ = "0.1.0"

# bell and the names it exports load on first use (PEP 562): no model build
# and not the CLI's start-up reach its verifiers.
_BELL_NAMES = frozenset({"CLOSED_FORM_FAMILIES", "bell_closed_form", "bell_generic",
                         "bell_values", "derivative_sequence", "gate_report"})


def __getattr__(name: str):
    if name == "bell" or name in _BELL_NAMES:
        bell = importlib.import_module(".bell", __name__)
        return bell if name == "bell" else getattr(bell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    # exact
    "ExactScalar", "scalar", "ZERO", "ONE",
    "stirling2", "stirling1", "falling_factorial", "double_factorial", "binomial",
    # pseries
    "MAX_ORDER", "TruncatedSeries", "family_series", "FAMILY_KEYS", "FAMILY_PARAMS",
    # bell
    "CLOSED_FORM_FAMILIES", "bell_generic", "bell_closed_form",
    "derivative_sequence", "bell_values", "gate_report",
    # catalog
    "DomainError", "ConvergenceError", "Interval", "Expansion",
    "PARAM_DEFAULTS", "lambert_w0", "get_expansion", "eval_g", "eval_ginv",
    "invert_numeric", "map_domain",
    # approx
    "BUILTIN_FUNCTIONS", "FunctionSpec", "builtin_function",
    "function_from_derivatives", "ApproximationModel", "assemble",
    "assemble_via_composition", "evaluate", "taylor_baseline",
    "estimate_radius", "PointReport", "error_report", "format_decimal",
]
