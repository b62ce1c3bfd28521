"""Work that runs inside a fresh funcseries interpreter.

    worker.py catalog KEY TARGET ORDER TRACE_DIR         one catalog64 op
    worker.py eval SEED OPS SECONDS TRACE_DIR LAT_FILE   eval_grid measurement
    worker.py setup WORKLOAD                             set-up only, then exit
    worker.py cli TRACE_FILE ARG...                      one traced CLI invocation

The orchestrator (run.py) starts it with `src` on PYTHONPATH.  A worker
prints "ready" once set-up is done and one JSON line when it finishes.
TRACE_DIR is "-" for an untraced worker; OPS is 0 for a run bounded by
SECONDS instead of an op count.  LAT_FILE receives eval_grid's latency
sample as raw doubles, which costs the worker no memory beyond the sample.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from array import array
from fractions import Fraction

import plan
from speed import SpeedMeter

_perf = time.perf_counter
# eval_grid keeps a uniform sample of this many point latencies, allocated
# before the timed region, so that its memory does not grow with the
# number of points a run manages.
SAMPLE = 1 << 18


def _ready() -> None:
    print("ready", flush=True)


def _finish(result: dict) -> None:
    print(json.dumps(result), flush=True)


def _tracer(trace_dir: str):
    if trace_dir == "-":
        return None
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    return tr


def _close_tracer(tr, trace_dir: str, tag: str):
    if tr is None:
        return None
    tr.uninstall()
    tr.write_spans(os.path.join(trace_dir, f"spans-{tag}.csv"))
    return tr.summary()


def target(name: str):
    from funcseries import builtin_function

    if name.startswith("pow:"):
        return builtin_function("pow", alpha=Fraction(name[4:]))
    return builtin_function(name)


def raw_coefficients(model) -> list:
    return [c.as_fraction() if c.is_exact else float(c) for c in model.coefficients]


def catalog_op(key: str, func: str, order: int, trace_dir: str) -> None:
    """Build one family's model, alone in this interpreter, so that no
    basis, triangle or table built for another family is reused and the
    op's cost does not depend on the build order.  An untraced op runs a
    speed meter and reports reference seconds beside the wall time."""
    from funcseries import approx, catalog

    f = target(func)
    _ready()
    tr = _tracer(trace_dir)
    exp = catalog.get_expansion(key)
    meter = SpeedMeter()
    if tr is None:
        meter.start()
    spent = meter.spent
    start = _perf()
    try:
        model = approx.assemble(exp, f, order)
    except Exception as err:  # a failed op; its digest matches no reference
        model = err
    end = _perf()
    spent = meter.spent - spent
    meter.stop()
    if isinstance(model, Exception):
        digest = f"!{type(model).__name__}"
    else:
        digest = plan.coeff_digest(raw_coefficients(model))
    _finish({
        "lat": meter.reference(start, end, spent),
        "wall": end - start - spent,
        "digest": digest,
        "trace": _close_tracer(tr, trace_dir, f"catalog-{key}"),
    })


def build_eval_models() -> list:
    from funcseries import approx, catalog

    func = target(plan.EVAL_TARGET)
    models = []
    for key in plan.KEYS:
        if key == "tp":
            models.append(approx.taylor_baseline(func, plan.EVAL_ORDER))
        else:
            models.append(approx.assemble(catalog.get_expansion(key), func, plan.EVAL_ORDER))
    return models


def outcome_function():
    """outcome(model, x): the float value of `approx.evaluate` as it is
    bound now (traced or not), "!DomainError"/"!ConvergenceError", or any
    other exception raised, which breaks the error contract."""
    from funcseries import approx
    from funcseries.catalog import ConvergenceError, DomainError

    evaluate = approx.evaluate

    def outcome(model, x):
        try:
            return evaluate(model, x)
        except DomainError:
            return "!DomainError"
        except ConvergenceError:
            return "!ConvergenceError"
        except Exception as err:  # a breach of the error contract
            return err

    return outcome


def eval_run(seed: int, ops: int, seconds: float, trace_dir: str, lat_file: str) -> None:
    """Evaluate seeded pool points until `ops` are done (when > 0) or
    `seconds` have been measured.  Each batch is timed point by point and
    checked against the references after its timed region.  An untraced
    run converts each batch's latencies to reference seconds with the
    speed meter's factor for that batch.  Points recorded as seed defects
    are not drawn; they are probed once after the timed region."""
    tr = _tracer(trace_dir)
    models = build_eval_models()
    pools = [plan.pool_points(key) for key in plan.KEYS]
    refs = plan.load_refs("eval_grid")["digests"]
    refs = [[refs[key][4 * i:4 * i + 4] for i in range(plan.POOL_SIZE)] for key in plan.KEYS]
    stream = plan.eval_stream(seed)
    digest = plan.eval_digest
    outcome = outcome_function()
    sample = array("d", bytes(8 * SAMPLE))
    pick = random.Random(f"eval-sample:{seed}").randrange
    meter = SpeedMeter()
    _ready()
    if tr is None:
        meter.start()
    counts = {"attempted": 0, "failed": 0, "raw": 0, "domain": 0, "convergence": 0}
    timed = busy = 0.0
    batch = 256
    while (counts["attempted"] < ops) if ops > 0 else (timed < seconds):
        if ops > 0:
            batch = min(batch, ops - counts["attempted"])
        todo = []
        while len(todo) < batch:
            m, i = next(stream)
            if refs[m][i] != plan.DEFECT:
                todo.append((m, i))
        results, walls = [], []
        batch_spent = meter.spent
        start = _perf()
        for m, i in todo:
            model, x = models[m], pools[m][i]
            if tr is not None:
                tr.op += 1
            spent = meter.spent
            t0 = _perf()
            value = outcome(model, x)
            walls.append(_perf() - t0 - (meter.spent - spent))
            results.append(value)
        end = _perf()
        batch_spent = meter.spent - batch_spent
        factor = meter.factor(start, end)
        timed += end - start - batch_spent
        busy += (end - start - batch_spent) * factor
        for (m, i), value, wall in zip(todo, results, walls):
            n = counts["attempted"]
            if n < SAMPLE:
                sample[n] = wall * factor
            else:
                k = pick(n + 1)
                if k < SAMPLE:
                    sample[k] = wall * factor
            counts["attempted"] += 1
            ref = refs[m][i]
            if isinstance(value, Exception):
                counts["raw"] += 1
            elif isinstance(value, str):
                counts["domain" if value == "!DomainError" else "convergence"] += 1
            if isinstance(value, Exception) or digest(str(value)) != ref:
                counts["failed"] += 1
    meter.stop()
    defects = [(m, i) for m in range(len(models)) for i in range(plan.POOL_SIZE)
               if refs[m][i] == plan.DEFECT]
    breaches = sum(isinstance(outcome(models[m], pools[m][i]), Exception) for m, i in defects)
    summary = _close_tracer(tr, trace_dir, "eval")
    with open(lat_file, "wb") as fh:
        sample[:min(counts["attempted"], SAMPLE)].tofile(fh)
    _finish({"counts": counts, "timed": timed, "busy": busy, "trace": summary,
             "defects": {"probed": len(defects), "breaking": breaches}})


def setup_only(workload: str) -> None:
    import funcseries  # noqa: F401  (the import is the set-up being timed)

    if workload == "eval_grid":
        build_eval_models()
    elif workload == "cli_session":
        import funcseries.cli  # noqa: F401
    _ready()


def cli_invocation(trace_file: str, argv: list) -> None:
    """Run the CLI as its entry point does, inside a root span `cli.main`,
    and write the trace summary even when the CLI raises."""
    from tracer import Tracer

    from funcseries import cli

    tr = Tracer()
    tr.install(with_cli=True)
    tr.enter("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tr.exit()
        tr.uninstall()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tr.summary(), fh)
        tr.write_spans(trace_file[:-len(".json")] + ".csv")
    sys.exit(code)


def main(argv: list) -> None:
    mode = argv[0]
    if mode == "catalog":
        catalog_op(argv[1], argv[2], int(argv[3]), argv[4])
    elif mode == "eval":
        eval_run(int(argv[1]), int(argv[2]), float(argv[3]), argv[4], argv[5])
    elif mode == "setup":
        setup_only(argv[1])
    elif mode == "cli":
        cli_invocation(argv[1], argv[2:])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
