"""Record the reference digests in perfbench/refs from the current sources.

    python3 perfbench/record.py catalog64|cli_session|eval_grid

References are recorded once, from the commit the benchmark was written
against, and never while measuring.  catalog64 cross-checks every model
against `assemble_via_composition`, the independent assembly route, before
it records a digest.  An outcome that broke the error contract (an
exception other than DomainError/ConvergenceError, or a CLI traceback) is
recorded as a defect: no op draws it, and each run probes it once after
its timed region and reports whether it still breaks the contract.
"""

from __future__ import annotations

import json
import os
import sys

import plan

sys.path.insert(0, os.path.join(plan.ROOT, "src"))


def _write(name: str, data: dict) -> None:
    path = os.path.join(plan.REFS, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_catalog() -> None:
    from funcseries import approx, catalog

    from worker import raw_coefficients, target

    digests = {}
    for key in plan.FAMILIES:
        exp = catalog.get_expansion(key)
        for func in plan.CATALOG_TARGETS:
            for order in (plan.SMOKE_CATALOG_ORDER, plan.CATALOG_ORDER):
                model = approx.assemble(exp, target(func), order)
                other = approx.assemble_via_composition(exp, target(func), order)
                if model.coefficients != other.coefficients:
                    raise SystemExit(f"{key} {func} N={order}: the two routes disagree")
                digests[f"{key}:{func}:{order}"] = plan.coeff_digest(raw_coefficients(model))
                print(key, func, order, flush=True)
    _write("catalog64", {"digests": digests})


def record_eval() -> None:
    from worker import build_eval_models, outcome_function

    outcome = outcome_function()
    digests = {}
    for key, model in zip(plan.KEYS, build_eval_models()):
        out = []
        for x in plan.pool_points(key):
            value = outcome(model, x)
            # An exception other than DomainError/ConvergenceError is a
            # contract breach at the seed.
            out.append(plan.DEFECT if isinstance(value, Exception)
                       else plan.eval_digest(str(value)))
        digests[key] = "".join(out)
    _write("eval_grid", {"digests": digests})


def record_cli() -> None:
    import run

    run.TIME_LIMIT_S = 3600.0  # the whole pool takes longer than one run
    work = os.path.relpath(os.path.join(run.OUT, "work-record"), plan.ROOT)
    os.makedirs(os.path.join(plan.ROOT, work), exist_ok=True)
    outcomes = {}
    for op, argv in plan.cli_pool().items():
        _, digest, broke = run.invoke(argv, work)
        outcomes[op] = plan.DEFECT if broke else digest
    _write("cli_session", {"outcomes": outcomes})


def main(argv: list) -> None:
    os.makedirs(plan.REFS, exist_ok=True)
    which = argv[0]
    if which == "catalog64":
        record_catalog()
    elif which == "eval_grid":
        record_eval()
    elif which == "cli_session":
        record_cli()
    else:
        raise SystemExit(f"unknown workload {which!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
