"""Tests of the benchmark itself: tiny smoke runs, reference checks, traces.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import plan  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from worker import raw_coefficients, target  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def smoke(workload: str, trace: int) -> tuple:
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    _, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_prints_every_per_layer_metric(workload):
    _, result = smoke(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", ["cli_session", "eval_grid"])
def test_known_seed_defects_are_probed_not_drawn(workload):
    details, result = smoke(workload, 0)
    assert result["failed"] == 0
    refs = plan.load_refs(workload)
    known = sum(r == plan.DEFECT for r in refs["outcomes"].values()) if "outcomes" in refs \
        else sum(d.count(plan.DEFECT) for d in refs["digests"].values())
    assert known > 0
    assert details["defects"]["probed"] == known
    assert 0 <= details["defects"]["breaking"] <= known


def test_traced_counts_repeat_and_self_times_sum_to_roots():
    runs = [smoke("catalog64", 1) for _ in range(2)]
    names = ("exact.scalar_ops", "bell.cells", "exact.max_coef_bits", "bell.bell_values_calls")
    first, second = ({n: r["metrics"][n]["value"] for n in names} for _, r in runs)
    assert first == second
    assert first["bell.bell_values_calls"] == len(plan.FAMILIES)  # no basis built twice
    details = runs[0][0]
    spans = []
    for name in os.listdir(details["trace_dir"]):
        if name.startswith("spans-"):
            with open(os.path.join(details["trace_dir"], name), encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    spans.append((int(row["id"]), row["name"], float(row["start"]),
                                  float(row["end"]), int(row["parent"]), int(row["op"])))
    roots = tracer.self_time_check(spans)
    assert roots
    for duration, self_sum in roots:
        assert self_sum == pytest.approx(duration, rel=1e-9, abs=1e-12)


def test_tracer_self_times_exclude_children():
    tr = tracer.Tracer()
    tr.enter("outer")
    tr.enter("inner")
    tr.exit()
    tr.enter("inner")
    tr.exit()
    tr.exit()
    calls, total, own = tr.agg["outer"]
    inner_total = tr.agg["inner"][1]
    assert calls == 1 and tr.agg["inner"][0] == 2
    assert own == pytest.approx(total - inner_total)
    [(duration, self_sum)] = tracer.self_time_check(tr.spans)
    assert self_sum == pytest.approx(duration)


def test_reference_check_catches_a_corrupted_coefficient():
    from funcseries import approx, catalog

    refs = plan.load_refs("catalog64")["digests"]
    order = plan.SMOKE_CATALOG_ORDER
    model = approx.assemble(catalog.get_expansion("a8"), target("ln1p"), order)
    raw = raw_coefficients(model)
    assert plan.coeff_digest(raw) == refs[f"a8:ln1p:{order}"]
    raw[3] += Fraction(1, 10**30)
    assert plan.coeff_digest(raw) != refs[f"a8:ln1p:{order}"]


def test_a_raising_catalog_op_is_a_wrong_op(monkeypatch, capsys):
    from funcseries import approx

    def broken(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(approx, "assemble", broken)
    worker.catalog_op("a8", "ln1p", plan.SMOKE_CATALOG_ORDER, "-")
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["digest"] == "!OverflowError"
    refs = plan.load_refs("catalog64")["digests"]
    assert result["digest"] not in refs.values()


def test_speed_meter_excludes_its_ticks_and_is_idle_when_off():
    with speed.measured(False) as m:
        time.sleep(0.01)
    assert m.seconds == m.wall > 0.0
    meter = speed.SpeedMeter().start()
    t0 = time.perf_counter()
    time.sleep(0.3)
    t1 = time.perf_counter()
    meter.stop()
    assert len(meter.times) >= 5  # ticks kept coming while the process slept
    assert 0.0 < meter.spent < t1 - t0
    assert all(f > 0.0 for f in meter.factors)
    assert meter.reference(t0, t1, 0.0) == pytest.approx((t1 - t0) * meter.factor(t0, t1))


def test_inputs_follow_the_seed():
    assert plan.catalog_plan(7) == plan.catalog_plan(7)
    assert plan.catalog_plan(7) != plan.catalog_plan(8)
    assert sorted(k for k, _ in plan.catalog_plan(7)) == sorted(plan.FAMILIES)
    session = plan.cli_session(7)
    assert session == plan.cli_session(7)
    assert session != plan.cli_session(8)
    assert sorted(session) == sorted(plan.cli_session(8))
    assert {"table", "figures"} <= set(session)
    assert set(session) <= set(plan.cli_pool())
    outcomes = plan.load_refs("cli_session")["outcomes"]
    for seed in range(50):
        assert all(outcomes[op] != plan.DEFECT for op in plan.cli_session(seed))
    points = plan.pool_points("a4")
    assert len(points) == plan.POOL_SIZE
    outside = sum(1 for x in points if not -1.0 <= x <= 1.0)
    assert 0.05 * plan.POOL_SIZE < outside < 0.15 * plan.POOL_SIZE


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name), encoding="utf-8").read())
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert r.stdout == ""
