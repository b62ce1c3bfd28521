"""Power-series approximations in substituted bases, beyond plain Taylor.

The package builds approximants of the form

    A(x) = a_0 + a_1 g(x) + a_2 g(x)^2 + ... + a_N g(x)^N

where g is drawn from a catalog of basis functions and the coefficients
are fixed by matching all derivatives of the target function up to order
N at the expansion point.  Coefficient arithmetic is exact rational
wherever the inputs are; floats only enter through explicitly approximate
derivative values or at final evaluation time.

Layering: exact scalars and combinatorics (`exact`), truncated series
arithmetic and the registry of the 19 basis families (`pseries`), Bell
triangles and derivative sequences (`bell`),
the basis catalog with float evaluators (`catalog`), model assembly and
evaluation (`approx`), and the command-line front end (`cli`).
"""

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
    ELEMENTARY_KINDS,
    FAMILY_KEYS,
    FAMILY_PARAMS,
    MAX_ORDER,
    TruncatedSeries,
    constant,
    elementary,
    family_series,
    identity,
)
from .bell import (
    CLOSED_FORM_FAMILIES,
    bell_closed_form,
    bell_generic,
    bell_values,
    derivative_sequence,
    gate_report,
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

__all__ = [
    "__version__",
    # exact
    "ExactScalar", "scalar", "ZERO", "ONE",
    "stirling2", "stirling1", "falling_factorial", "double_factorial", "binomial",
    # pseries
    "MAX_ORDER", "TruncatedSeries", "constant", "identity", "elementary",
    "family_series", "ELEMENTARY_KINDS", "FAMILY_KEYS", "FAMILY_PARAMS",
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
