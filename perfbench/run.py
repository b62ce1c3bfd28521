"""funcseries benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload catalog64|cli_session|eval_grid \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout that holds `src/funcseries`.  Every
operation runs in a child interpreter with `src` on PYTHONPATH; outputs are
checked against the digests in perfbench/refs outside the timed regions.
Untraced timings are reference seconds at a fixed CPU speed (speed.py).
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run.  The line before it holds
the details (environment, sample counts, tail percentile).  --smoke shrinks
every workload for the benchmark's own tests.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import plan
import speed
from tracer import merge

SRC = os.path.join(plan.ROOT, "src")
WORKER = os.path.join(plan.HERE, "worker.py")
OUT = os.path.join(plan.HERE, "out")
CLI_ENTRY = "import sys; from funcseries.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3
PROBE_SAMPLES = 5
TRACE_EVAL_OPS = 60_000
SMOKE_EVAL_OPS = 2_000
# catalog64 measures its tracing overhead on a pass at this order, traced
# and untraced: two more passes at order 64 would not fit the time limit.
OVERHEAD_ORDER = 40
TIME_LIMIT_S = 170.0
# Untraced runs report times at the reference CPU speed (speed.py); traced
# runs report wall times, so that spans do not hold the meter's ticks.
NORMALISE = True

_perf = time.perf_counter
_START = _perf()


class BenchError(Exception):
    pass


def _remaining() -> float:
    left = TIME_LIMIT_S - (_perf() - _START)
    if left <= 0:
        raise BenchError(f"the run exceeded its {TIME_LIMIT_S:.0f} s limit")
    return left


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


def run_worker(args: list) -> tuple:
    """Start a worker; return (reference seconds from start to "ready",
    final JSON or None)."""
    log_path = os.path.join(OUT, "worker.log")
    proc = timer = None
    with open(log_path, "a", encoding="utf-8") as log:
        try:
            with speed.measured(NORMALISE) as ready:
                proc = subprocess.Popen(
                    [sys.executable, WORKER, *args], cwd=plan.ROOT, env=ENV,
                    stdout=subprocess.PIPE, stderr=log, text=True,
                )
                timer = threading.Timer(_remaining(), proc.kill)
                timer.start()
                line = proc.stdout.readline()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            if timer is not None:
                timer.cancel()
            if proc is not None:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"worker {args[0]} exited with code {code}; see {log_path}")
    lines = rest.strip().splitlines()
    return ready.seconds, json.loads(lines[-1]) if lines else None


def setup_samples(workload: str, n: int) -> list:
    return [run_worker(["setup", workload])[0] for _ in range(n)]


# -- catalog64 -------------------------------------------------------------------


def catalog_pass(seed: int, index: int, order: int, trace_dir: str) -> list:
    """One pass: every family once, in the seeded order, each in a fresh
    worker.  Returns (key, target, set-up seconds, worker JSON) per op."""
    steps = plan.catalog_plan(f"{seed}:{index}")
    return [(key, func, *run_worker(["catalog", key, func, str(order), trace_dir]))
            for key, func in steps]


def catalog64(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    order = plan.SMOKE_CATALOG_ORDER if smoke else plan.CATALOG_ORDER
    refs = plan.load_refs("catalog64")["digests"]
    lat, wall, setups, summaries = [], [], [], []
    by_key = {}
    wrong = passes = 0
    elapsed = 0.0
    trace_dir = _trace_dir("catalog64", seed) if trace else "-"
    while passes == 0 or (elapsed < seconds and not trace):
        t0 = _perf()
        for key, func, ready, res in catalog_pass(seed, passes, order, trace_dir):
            setups.append(ready)
            lat.append(res["lat"])
            wall.append(res["wall"])
            by_key.setdefault(key, []).append(res["lat"])
            wrong += refs.get(f"{key}:{func}:{order}") != res["digest"]
            summaries.append(res["trace"])
        elapsed += _perf() - t0
        passes += 1
    out = {"attempted": len(lat), "failed": wrong, "lat": lat,
           "busy_s": sum(lat), "wall_s": sum(wall), "setup": setups, "passes": passes,
           "op_s": by_key}
    if trace:
        small = min(order, OVERHEAD_ORDER)
        plain = catalog_pass(seed, 0, small, "-")
        traced = catalog_pass(seed, 0, small, _trace_dir("overhead", seed))
        out["overhead"] = (sum(r["wall"] for *_, r in traced)
                           / sum(r["wall"] for *_, r in plain) - 1.0)
        out["trace"] = merge(summaries)
        out["trace_dir"] = trace_dir
    return out


# -- eval_grid -------------------------------------------------------------------


def eval_grid(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    setups = setup_samples("eval_grid", SETUP_SAMPLES - 1)
    ops = SMOKE_EVAL_OPS if smoke else (TRACE_EVAL_OPS if trace else 0)
    trace_dir = _trace_dir("eval_grid", seed) if trace else "-"
    lat_file = os.path.join(OUT, f"eval-lat-{os.getpid()}.bin")
    ready, res = run_worker(["eval", str(seed), str(ops), str(seconds), trace_dir, lat_file])
    setups.append(ready)
    lat = array.array("d")
    with open(lat_file, "rb") as fh:
        lat.frombytes(fh.read())
    os.remove(lat_file)
    c = res["counts"]
    out = {"attempted": c["attempted"], "failed": c["failed"],
           "lat": lat, "busy_s": res["busy"], "wall_s": res["timed"],
           "setup": setups, "outcomes": c, "defects": res["defects"]}
    if trace:
        _, plain = run_worker(["eval", str(seed), str(ops), str(seconds), "-", lat_file])
        os.remove(lat_file)
        out["overhead"] = res["timed"] / plain["timed"] - 1.0
        out["trace"] = merge([res["trace"]])
        out["trace_dir"] = trace_dir
    return out


# -- cli_session -----------------------------------------------------------------


def invoke(argv: tuple, work: str, trace_file: str = None) -> tuple:
    """One CLI invocation in a fresh interpreter: (seconds, outcome digest,
    broke the error contract)."""
    argv = [a.replace("{work}", work) for a in argv]
    if trace_file is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, WORKER, "cli", trace_file, *argv]
    with speed.measured(NORMALISE) as took:
        r = subprocess.run(cmd, cwd=plan.ROOT, env=ENV, capture_output=True,
                           timeout=_remaining())
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{r.returncode}\n".encode())
    h.update(r.stdout)
    figures = os.path.join(plan.ROOT, work, "figures")
    if os.path.isdir(figures):
        for name in sorted(os.listdir(figures)):
            with open(os.path.join(figures, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
        shutil.rmtree(figures)
    broke = r.returncode not in (0, 1, 2, 3) or b"Traceback (most recent call last)" in r.stderr
    return took.seconds, h.hexdigest(), broke


def cli_session(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Repeat the seeded session until `seconds` have passed."""
    pool = plan.cli_pool()
    refs = plan.load_refs("cli_session")["outcomes"]
    work = os.path.relpath(os.path.join(OUT, f"work-{os.getpid()}"), plan.ROOT)
    os.makedirs(os.path.join(plan.ROOT, work), exist_ok=True)
    setups = setup_samples("cli_session", SETUP_SAMPLES)
    ids = plan.SMOKE_SESSION if smoke else plan.cli_session(seed)
    lat, wrong, repeats = [], 0, 0
    trace_dir = _trace_dir("cli_session", seed) if trace else None
    summaries, plain_s = [], 0.0
    while repeats == 0 or (sum(lat) < seconds and not trace and not smoke):
        for n, op in enumerate(ids):
            trace_file = None
            if trace:
                trace_file = os.path.join(trace_dir, f"cli-{n}.json")
                plain_s += invoke(pool[op], work)[0]
            dt, digest, broke = invoke(pool[op], work, trace_file)
            if trace:
                with open(trace_file, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
            lat.append(dt)
            wrong += digest != refs[op] or broke
        repeats += 1
    # Sessions never draw an invocation recorded as a seed defect; probe
    # each once, untimed, and count those that still break the contract.
    defects = [op for op, ref in refs.items() if ref == plan.DEFECT]
    breaches = sum(invoke(pool[op], work)[2] for op in defects)
    shutil.rmtree(os.path.join(plan.ROOT, work), ignore_errors=True)
    out = {"attempted": len(lat), "failed": wrong, "lat": lat,
           "busy_s": sum(lat), "setup": setups, "repeats": repeats,
           "defects": {"probed": len(defects), "breaking": breaches}}
    if trace:
        out["overhead"] = sum(lat) / plain_s - 1.0
        out["trace"] = merge(summaries)
        out["trace_dir"] = trace_dir
    return out


WORKLOADS = {"catalog64": catalog64, "cli_session": cli_session, "eval_grid": eval_grid}

# -- metrics ---------------------------------------------------------------------


def end_to_end(res: dict) -> dict:
    lat = plan.latency_summary(res["lat"])
    res["latency"] = lat
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(res["setup"]), "s"),
        "ops_per_s": (res["attempted"] / res["busy_s"], "1/s"),
        "latency_p50_ms": (lat["p50"] * 1e3, "ms"),
        "latency_tail_ms": (lat["tail"] * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def _importtime() -> tuple:
    """(funcseries + funcseries.cli cumulative, numpy cumulative) import seconds."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import funcseries.cli"],
        cwd=plan.ROOT, env=ENV, capture_output=True, text=True, timeout=_remaining(),
    )
    ours = numpy = 0.0
    for line in r.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        if name in ("funcseries", "funcseries.cli"):
            ours += cumulative
        elif name.strip() == "numpy":
            numpy = cumulative
    return ours, numpy


def probes() -> dict:
    interp = []
    for _ in range(PROBE_SAMPLES):
        t0 = _perf()
        subprocess.run([sys.executable, "-c", "pass"], env=ENV, check=True, timeout=_remaining())
        interp.append(_perf() - t0)
    imports = [_importtime() for _ in range(PROBE_SAMPLES)]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import_numpy_s": statistics.median(i[1] for i in imports),
    }


def per_layer(res: dict) -> dict:
    t = res["trace"]
    agg, counts, errors = t["agg"], t["counts"], t["errors"]

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):  # total minus the time in traced children
        return agg.get(name, (0, 0.0, 0.0))[2]

    metrics = {
        "exact.scalar_ops": (counts["exact.scalar_ops"], "count"),
        "exact.max_coef_bits": (t["max_coef_bits"], "bits"),
        "pseries.family_series_s": (total("pseries.family_series"), "s"),
        "pseries.family_series_calls": (calls("pseries.family_series"), "count"),
        "bell.bell_values_s": (total("bell.bell_values"), "s"),
        "bell.bell_values_calls": (calls("bell.bell_values"), "count"),
        "bell.cells": (counts["bell.cells"], "count"),
        "bell.derivative_sequence_s": (total("bell.derivative_sequence"), "s"),
        "bell.gate_checks": (counts["bell.gate_checks"], "count"),
        "catalog.get_expansion_s": (total("catalog.get_expansion"), "s"),
        "catalog.get_expansion_calls": (calls("catalog.get_expansion"), "count"),
        "catalog.eval_g_s": (total("catalog.eval_g"), "s"),
        "catalog.eval_g_calls": (calls("catalog.eval_g"), "count"),
        "catalog.lambert_w0_calls": (counts["catalog.lambert_w0_calls"], "count"),
        "catalog.domain_errors": (errors.get(("catalog.eval_g", "domain"), 0), "count"),
        "catalog.convergence_errors": (errors.get(("catalog.eval_g", "convergence"), 0), "count"),
        "catalog.raw_errors": (errors.get(("catalog.eval_g", "raw"), 0), "count"),
        "approx.assemble_self_s": (own("approx.assemble"), "s"),
        "approx.evaluate_self_s": (own("approx.evaluate"), "s"),
        "approx.taylor_baseline_s": (total("approx.taylor_baseline"), "s"),
        "approx.error_report_s": (total("approx.error_report"), "s"),
        "cli.main_self_s": (own("cli.main"), "s"),
        "trace.overhead_share": (res["overhead"], "ratio"),
    }
    for name, value in probes().items():
        metrics[name] = (value, "s")
    return metrics


# -- records ---------------------------------------------------------------------


def _trace_dir(workload: str, seed: int) -> str:
    path = os.path.join(OUT, "trace", f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "funcseries")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not os.path.exists(os.path.join(plan.ROOT, ".git")):
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=plan.ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(args, runs: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "run": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    global NORMALISE
    NORMALISE = not args.trace
    if not os.path.isfile(os.path.join(SRC, "funcseries", "__init__.py")):
        print(f"error: no funcseries sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    # The orchestrator and every child share one CPU, so that the speed
    # meter samples the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    stem = f"{args.workload}-trace{args.trace}"
    runs = 1 + sum(1 for n in os.listdir(os.path.join(OUT, "results")) if n.startswith(stem))
    try:
        res = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), args.smoke)
        metrics = per_layer(res) if args.trace else end_to_end(res)
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    details = {k: v for k, v in res.items() if k not in ("lat", "trace", "setup")}
    if args.trace:
        details["spans_kept"] = res["trace"]["spans_kept"]
        details["spans_dropped"] = res["trace"]["spans_dropped"]
    details["setup_samples_s"] = res["setup"]
    details["env"] = environment(args, runs)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, "results", f"{stem}-seed{args.seed}-{runs}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
