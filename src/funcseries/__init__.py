"""Power-series approximations in substituted bases, beyond plain Taylor.

The package builds approximants of the form

    A(x) = a_0 + a_1 g(x) + a_2 g(x)^2 + ... + a_N g(x)^N

where g is drawn from a catalog of basis functions and the coefficients
are fixed by matching all derivatives of the target function up to order
N at the expansion point.  Coefficient arithmetic is exact rational
wherever the inputs are; floats only enter through explicitly approximate
derivative values or at final evaluation time.

Layering: exact scalars and falling factorials (`exact`), truncated
series and the registry of the 19 basis families (`pseries`), the
paper's side (`bell`: the Bell column kernel, the closed-form Bell values
with the Stirling numbers they read, their verification gate, and series
multiplication, composition and reversion), the basis catalog with float
evaluators (`catalog`), the implicit bases c1 .. c6 with their numeric
inversion (`implicit`), model assembly and evaluation (`approx`), and the
command-line front end (`cli`).  Two modules load on first use, so that
start-up compiles only what runs: `bell`, by a caller that names it or
calls a series verifier (no model build, float evaluator or
`import funcseries.cli` loads it), and `implicit`, by the catalog for a
c-family or `invert_numeric`.

The package exports every name in the `__all__` lists of its modules:
those of `exact`, `pseries`, `catalog` and `approx` on import, and
`bell`'s on first use.  `cli`'s names stay in `funcseries.cli`, whose
`argparse` a bare `import funcseries` does not load.
"""

import importlib

from . import exact, pseries, catalog, approx
from .exact import *
from .pseries import *
from .catalog import *
from .approx import *

__version__ = "0.1.0"

# bell and the names it exports load on first use (PEP 562): no model build
# and not the CLI's start-up reach its verifiers.
_BELL_NAMES = frozenset({"CLOSED_FORM_FAMILIES", "bell_closed_form", "bell_generic",
                         "bell_values", "derivative_sequence", "double_factorial",
                         "gate_report", "stirling1", "stirling2"})


def __getattr__(name: str):
    if name == "bell" or name in _BELL_NAMES:
        bell = importlib.import_module(".bell", __name__)
        return bell if name == "bell" else getattr(bell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__", *exact.__all__, *pseries.__all__, *catalog.__all__, *approx.__all__,
           *sorted(_BELL_NAMES)]
