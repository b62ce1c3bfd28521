"""End-to-end tests for the command line interface.

Golden outputs are frozen as exact strings: the CSV layer must stay
byte-stable across runs since downstream plotting scripts diff its files.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction

import pytest

import funcseries
from funcseries import cli, scalar
from funcseries.cli import _linspace, main


TABLE_GOLDEN = """\
N,delta_a8,delta_tp
3,0.00066529630906553280,0.011201558558502245
7,3.8426191067975070e-07,0.00033846332040704530
10,1.7371258320686422e-09,3.0460290704081850e-05
20,0.0000000000000000,1.5373987360955965e-08
"""

COEFFS_GOLDEN = """\
n,decimal,exact
0,0.0000000000000000,0
1,2.0000000000000000,2
2,1.0000000000000000,1
3,0.66666666666666660,2/3
4,0.50000000000000000,1/2
5,0.40000000000000000,2/5
"""


# Number text through the CLI's readers: (token, --at reading, rational
# flag reading, scalar(token)), a float as its IEEE-754 bits in hex, a
# rational as (numerator, denominator), None for a usage error (ValueError
# for scalar).
NUMBER_TOKENS = [
    ("2", "4000000000000000", (2, 1), (2, 1)),
    ("-3/4", "bfe8000000000000", (-3, 4), (-3, 4)),
    (" 1/2 ", "3fe0000000000000", (1, 2), (1, 2)),
    ("0.1", "3fb999999999999a", (1, 10), (1, 10)),
    ("2.5e-3", "3f647ae147ae147b", (1, 400), (1, 400)),
    ("1E5", "40f86a0000000000", (100000, 1), (100000, 1)),
    ("1e300", "7e37e43c8800759c", (10**300, 1), (10**300, 1)),
    ("1e400", "7ff0000000000000", (10**400, 1), (10**400, 1)),
    ("-1e400", "fff0000000000000", (-10**400, 1), (-10**400, 1)),
    ("1e-400", "0000000000000000", (1, 10**400), (1, 10**400)),
    ("-1e-400", "8000000000000000", (-1, 10**400), (-1, 10**400)),
    ("inf", "7ff0000000000000", None, None),
    ("-inf", "fff0000000000000", None, None),
    ("nan", "7ff8000000000000", None, None),
    ("1/0", None, None, None),
    ("abc", None, None, None),
    ("", None, None, None),
    ("1e10000", "7ff0000000000000", (10**10000, 1), (10**10000, 1)),
    ("1e+10000", "7ff0000000000000", (10**10000, 1), (10**10000, 1)),
    ("0.5e10000", "7ff0000000000000", (5 * 10**9999, 1), (5 * 10**9999, 1)),
    ("-1e-10000", "8000000000000000", (-1, 10**10000), (-1, 10**10000)),
    # beyond the reader's bound: refused before 10**10001 is built, and a
    # point reads as float() reads it
    ("1e10001", "7ff0000000000000", None, None),
    ("-1e10001", "fff0000000000000", None, None),
    ("1e-10001", "0000000000000000", None, None),
    ("-1E-10_001", "8000000000000000", None, None),
]


def _outcome(convert, token, error):
    try:
        value = convert(token)
    except error:
        return None
    if isinstance(value, float):
        return struct.pack(">d", value).hex()
    return (value.numerator, value.denominator)


@pytest.mark.parametrize("token, point, rational, exact", NUMBER_TOKENS)
def test_number_token_readings(token, point, rational, exact):
    assert _outcome(cli._parse_point, token, cli.UsageError) == point
    assert _outcome(cli._parse_rational, token, cli.UsageError) == rational
    assert _outcome(scalar, token, ValueError) == exact


class TestExitCodes:
    def test_usage_errors_return_one(self, capsys):
        cases = [
            ["coeffs", "--expansion", "zz", "--function", "ln1p"],
            ["coeffs", "--expansion", "a5", "--alpha", "x/y", "--function", "ln1p"],
            ["coeffs", "--expansion", "a8"],
            ["eval", "--expansion", "a1", "--function", "ln1p"],
            ["eval", "--expansion", "a1", "--function", "ln1p", "--at", "1", "--grid", "0:1:3"],
            ["radius", "--expansion", "tp", "--function", "ln1p"],
            ["coeffs", "--expansion", "a8", "--function", "pow"],
            ["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "0"],
            ["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "abc"],
            ["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "65"],
            ["table", "--n-list", "3,x"],
            ["figures", "--terms", "0"],
            # an empty value is an error, not the flag's default
            ["coeffs", "--expansion", "a5", "--alpha=", "--function", "ln1p", "--terms", "3"],
            ["coeffs", "--expansion", "a7", "--beta=", "--function", "ln1p", "--terms", "3"],
            ["coeffs", "--expansion", "c1", "--w=", "--function", "ln1p", "--terms", "3"],
            ["eval", "--expansion", "a1", "--function", "ln1p", "--at=", "--grid=0:1:3"],
            ["eval", "--expansion", "a1", "--function", "ln1p", "--at=0.5", "--grid="],
            ["nonsense"],
            [],
        ]
        for argv in cases:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") or "usage" in err.lower(), argv
        # a count that is no positive integer: one error line naming the flag
        for argv, flag in [
            (["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "0"], "--terms"),
            (["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "x"], "--terms"),
            (["table", "--n-list", "3,0"], "--n-list"),
            (["eval", "--expansion", "a1", "--function", "ln1p", "--grid=0:1:0"], "--grid"),
            (["eval", "--expansion", "a1", "--function", "ln1p", "--grid=0:1:x"], "--grid"),
        ]:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and flag in err, argv

    def test_domain_errors_return_two(self, capsys):
        rc = main(["eval", "--expansion", "a1", "--function", "ln1p", "--at=-2"])
        assert rc == 2
        assert "outside the validity domain" in capsys.readouterr().err

    def test_io_errors_return_three(self, capsys):
        rc = main(["table", "--out", "/nonexistent/dir/t.csv"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_success_returns_zero(self, capsys):
        assert main(["eval", "--expansion", "a1", "--function", "ln1p", "--at", "4"]) == 0
        capsys.readouterr()


class TestTable:
    def test_golden_stdout(self, capsys):
        assert main(["table"]) == 0
        assert capsys.readouterr().out == TABLE_GOLDEN

    def test_golden_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        assert out.read_text() == TABLE_GOLDEN

    def test_single_term_row(self, capsys):
        assert main(["table", "--n-list", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,delta_a8,delta_tp"
        n, da8, dtp = lines[1].split(",")
        assert n == "1"
        assert float(da8) == pytest.approx(3.846e-2, rel=1e-3)
        assert float(dtp) > float(da8)


class TestCoeffs:
    def test_golden_csv(self, capsys):
        rc = main(["coeffs", "--expansion", "a8", "--function", "ln1p", "--terms", "5"])
        assert rc == 0
        assert capsys.readouterr().out == COEFFS_GOLDEN

    def test_json_format(self, capsys):
        rc = main(
            [
                "coeffs",
                "--expansion",
                "a5",
                "--alpha",
                "1/2",
                "--function",
                "pow:1/5",
                "--terms",
                "3",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expansion"] == "a5"
        assert doc["params"] == {"alpha": "1/2"}
        assert doc["f"] == "pow:1/5"
        assert doc["N"] == 3
        assert doc["coefficients"][1]["exact"] == {"num": "1", "den": "10"}

    def test_taylor_baseline_key(self, capsys):
        rc = main(["coeffs", "--expansion", "tp", "--function", "ln1p", "--terms", "3"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].split(",")[2] == "1"
        assert rows[3].split(",")[2] == "-1/2"


class TestEval:
    def test_point_golden(self, capsys):
        rc = main(["eval", "--expansion", "a1", "--function", "ln1p", "--at", "4"])
        assert rc == 0
        assert capsys.readouterr().out == "1.6094379124341003\n"

    def test_grid_csv(self, capsys):
        rc = main(["eval", "--expansion", "a8", "--function", "ln1p", "--grid", "0:1:3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,approx"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 0.0

    def test_grid_with_failures_returns_two(self, capsys):
        rc = main(["eval", "--expansion", "a8", "--function", "ln1p", "--grid=-2:2:5"])
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[1] == "nan"
        assert lines[3].split(",")[1] != "nan"

    def test_overflowing_basis_is_a_domain_failure(self, capsys):
        rc = main(["eval", "--expansion", "a2", "--function", "exp", "--at=-1e300"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err
        rc = main(["eval", "--expansion", "a2", "--function", "exp", "--grid=-1000:0:3"])
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,approx"
        assert lines[1] == "-1000.0000000000000,nan"
        assert lines[3] == "0.0000000000000000,1.0000000000000000"

    def test_usage_checked_before_the_model_is_built(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "assemble", no_build)
        rc = main(["eval", "--expansion", "c6", "--function", "ln1p", "--terms", "64"])
        assert rc == 1
        assert "eval needs exactly one of --at or --grid" in capsys.readouterr().err

    def test_bad_grid_spec(self, capsys):
        for spec in ("1:0:5", "0:1", "0:1:0", "a:b:c"):
            assert main(["eval", "--expansion", "a1", "--function", "ln1p", "--grid", spec]) == 1
            capsys.readouterr()


class TestCompare:
    def test_golden_rows(self, capsys):
        rc = main(["compare", "--expansion", "a8,tp", "--function", "ln1p", "--grid", "0:1:3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "expansion,x,approx,exact,delta"
        assert len(lines) == 7
        a8_mid = lines[2].split(",")
        assert a8_mid[0] == "a8"
        assert float(a8_mid[1]) == 0.5
        assert float(a8_mid[4]) == pytest.approx(-6.28268153e-08, rel=1e-6)
        tp_mid = lines[5].split(",")
        assert tp_mid[0] == "tp"
        assert float(tp_mid[4]) == pytest.approx(-1.49817930e-04, rel=1e-6)

    def test_domain_failures_flagged(self, capsys):
        rc = main(["compare", "--expansion", "a8", "--function", "ln1p", "--grid=-2:0:3"])
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[2] == "nan"


class TestRadius:
    def test_csv_values(self, capsys):
        rc = main(["radius", "--expansion", "a8", "--function", "ln1p", "--terms", "20"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "R,x_lo,x_hi"
        r, lo, hi = lines[1].split(",")
        assert float(r) == pytest.approx(1.0709333893492665, rel=1e-12)
        assert float(lo) == pytest.approx(-0.7668326485700662, rel=1e-12)
        assert hi == "inf"

    def test_json_format(self, capsys):
        rc = main(
            ["radius", "--expansion", "a8", "--function", "ln1p", "--terms", "20", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"R", "x_lo", "x_hi"}
        assert float(doc["R"]) == pytest.approx(1.0709333893492665, rel=1e-12)

    def test_needs_enough_terms(self, capsys):
        rc = main(["radius", "--expansion", "a8", "--function", "ln1p", "--terms", "5"])
        assert rc == 1
        capsys.readouterr()


# sha256 over the name and bytes of each of the 58 files that
# `figures --grid=-1:1:9 --terms 5` writes, in name order
FIGURES_PIN = "38c1adea17d6abb8a8c49892fcd750ab2e0acbe3d1d08dc18cd9d0d80b095fc3"


class TestFigures:
    def test_full_run(self, tmp_path):
        out = tmp_path / "figs"
        rc = main(["figures", "--out", str(out), "--grid=-2:2:41", "--terms", "6"])
        assert rc == 0
        manifest = (out / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "function,expansion,file,points,x_lo,x_hi"
        assert len(manifest) == 58
        for row in manifest[1:]:
            fname = row.split(",")[2]
            assert (out / fname).exists(), fname

    def test_exact_representation_column(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out), "--grid=-1:1:11", "--terms", "6"])
        for line in (out / "sin_a13.csv").read_text().splitlines()[1:]:
            _, approx, exact = line.split(",")
            assert approx == exact

    def test_zero_row_exact(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out), "--grid=-1:1:3", "--terms", "6"])
        for stem in ("exp_a2", "ln1p_a8", "sq_a6", "exp_tp"):
            rows = [
                line.split(",")
                for line in (out / f"{stem}.csv").read_text().splitlines()[1:]
            ]
            zero = [r for r in rows if float(r[0]) == 0.0]
            assert zero, stem
            assert zero[0][1] == zero[0][2], stem

    def test_domain_clipping(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out), "--grid=-2:2:41", "--terms", "6"])
        xs = [
            float(line.split(",")[0])
            for line in (out / "exp_a1.csv").read_text().splitlines()[1:]
        ]
        assert min(xs) > -1.0
        assert max(xs) == pytest.approx(2.0)

    def test_fifth_root_file(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out), "--grid=-1:1:5", "--terms", "8"])
        lines = (out / "fifth_root.csv").read_text().splitlines()
        assert lines[0] == "x,approx_a5,approx_tp,exact"
        assert len(lines) == 282
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert float(first[3]) == 0.0

    def test_bytes_pinned(self, tmp_path):
        main(["figures", "--out", str(tmp_path), "--grid=-1:1:9", "--terms", "5"])
        files = sorted(tmp_path.iterdir())
        assert len(files) == 58
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        assert digest.hexdigest() == FIGURES_PIN

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["figures", "--out", str(out), "--grid=-1:1:9", "--terms", "5"])
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_order_beyond_the_cap_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out), "--terms", "70"]) == 1
        assert capsys.readouterr().err == "error: order 70 exceeds the supported cap 64\n"
        assert not out.exists()


class TestDerivativeFiles:
    def test_file_backed_function(self, tmp_path, capsys):
        path = tmp_path / "mylog.derivs"
        path.write_text(
            "# derivative values of ln(1+x) at 0\n"
            "0\n1\n-1\n\n2\n-6\n"
        )
        rc = main(["coeffs", "--expansion", "a8", "--function", str(path), "--terms", "4"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "0,0.0000000000000000,0"
        assert out[2] == "1,2.0000000000000000,2"
        assert out[4] == "3,0.66666666666666660,2/3"

    def test_rational_and_float_entries(self, tmp_path, capsys):
        path = tmp_path / "mixed.derivs"
        path.write_text("0\n1/2\n2/3\n")
        rc = main(["coeffs", "--expansion", "a1", "--function", str(path), "--terms", "2"])
        assert rc == 0
        assert "1/2" in capsys.readouterr().out

    def test_bad_line_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.derivs"
        path.write_text("0\n1\nnot-a-number\n")
        rc = main(["coeffs", "--expansion", "a1", "--function", str(path), "--terms", "2"])
        assert rc == 1
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--at=0.5"],
        ["coeffs"],
        ["coeffs", "--format", "json"],
    ])
    def test_coefficient_beyond_float_range(self, tmp_path, capsys, command):
        path = tmp_path / "huge.derivs"
        path.write_text("0\n1e400\n1\n")
        rc = main(command + ["--expansion", "a1", "--function", str(path), "--terms", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficient a_1 is beyond the float range\n"

    def test_too_few_values(self, tmp_path, capsys):
        path = tmp_path / "short.derivs"
        path.write_text("0\n1\n")
        rc = main(["coeffs", "--expansion", "a1", "--function", str(path), "--terms", "5"])
        assert rc == 1
        capsys.readouterr()


# Per command: --help, then each usage error after its required flags: a
# flag's missing value, a bad --format choice, the abbreviation --exp, an
# unknown flag, --terms 0 and a malformed --grid, and each required flag
# missing.  Then the full parser's own cases (no command, -h, an unknown
# one) and two runs that parse, one of them through --exp.
PARSER_CASES = [
    argv
    for command, required in [
        ("table", []), ("figures", []),
        *((c, ["--expansion", "a1", "--function", "ln1p"])
          for c in ("coeffs", "eval", "radius", "compare")),
    ]
    for argv in [[command, "--help"]] + [
        [command, *required, *bad]
        for bad in (["--out"], ["--format", "xml"], ["--exp", "zz"], ["--bogus"],
                    ["--terms", "0"], ["--grid=1:2"])
    ] + ([[command, "--function", "ln1p"], [command, "--expansion", "a1"]] if required else [])
] + [[], ["-h"], ["nonsense"], ["table", "--n-list", "3"],
     ["coeffs", "--exp", "a1", "--function", "ln1p", "--terms", "3"]]


class _NoCommandNamed(dict):
    """cli._COMMANDS as main sees it when argv[0] names no command."""

    def __contains__(self, key):
        return False


def _main_output(argv):
    """(exit code, stdout, stderr) of main(argv); --help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_a_command_parser_answers_as_the_full_parser(argv, monkeypatch):
    # main builds the named command's parser alone; with every name hidden
    # it builds the full parser, as it does for no command or an unknown one
    monkeypatch.setenv("COLUMNS", "100")
    alone = _main_output(argv)
    monkeypatch.setattr(cli, "_COMMANDS", _NoCommandNamed(cli._COMMANDS))
    assert _main_output(argv) == alone
    code, out, err = alone
    if "--help" in argv or "-h" in argv:
        assert code == 0 and out.startswith("usage: funcseries") and err == ""
    elif code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _in_child(code: str, *args: str):
    """The JSON that code prints in a fresh interpreter, within 20 s, so
    that a reader which builds a huge power of ten fails the test instead
    of hanging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(funcseries.__file__)))
    r = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


HUGE = "1e999999999"


def test_huge_exponent_is_a_prompt_value_error():
    code = (
        "import json, sys, time\n"
        "from funcseries import (builtin_function, function_from_derivatives,"
        " get_expansion, scalar)\n"
        "huge = sys.argv[1]\n"
        "calls = [lambda: scalar(huge), lambda: get_expansion('a5', alpha=huge),\n"
        "         lambda: builtin_function('exp', x0=huge),\n"
        "         lambda: builtin_function('pow', alpha=huge),\n"
        "         lambda: function_from_derivatives(['1', huge])]\n"
        "out = []\n"
        "for call in calls:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "        raised = None\n"
        "    except ValueError as err:\n"
        "        raised = str(err)\n"
        "    out.append([raised, time.perf_counter() - start])\n"
        "print(json.dumps(out))\n"
    )
    for raised, seconds in _in_child(code, HUGE):
        assert raised is not None and "exponent" in raised
        assert seconds < 1.0


def test_huge_exponent_on_the_command_line(tmp_path):
    path = tmp_path / "huge.derivs"
    path.write_text(f"1\n{HUGE}\n")
    at = ["eval", "--expansion", "a1", "--function", "exp"]
    cases = [
        ["eval", "--expansion", "a5", f"--alpha={HUGE}", "--function", "exp", "--at=0.5"],
        ["coeffs", "--expansion", "a1", "--function", f"pow:{HUGE}"],
        ["coeffs", "--expansion", "a1", "--function", str(path), "--terms", "1"],
        at + [f"--at={HUGE}"], at + ["--at=1e400"],
        at + ["--at=-1e-999999999"], at + ["--at=-1e-400"],
    ]
    code = (
        "import contextlib, io, json, sys, time\n"
        "from funcseries.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    stdout, stderr = io.StringIO(), io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
        "        rc = main(argv)\n"
        "    out.append([rc, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start])\n"
        "print(json.dumps(out))\n"
    )
    runs = _in_child(code, json.dumps(cases))
    assert all(seconds < 1.0 for *_, seconds in runs)
    for rc, out, err, _ in runs[:3]:
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "exponent" in err
    assert f"{path}:2:" in runs[2][2]
    # a point beyond the bound reads as float() reads it: +inf, or -0.0
    assert runs[3][:3] == runs[4][:3] and runs[3][0] == 2 and runs[3][1] == ""
    assert runs[5][:3] == runs[6][:3] and runs[5][0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["coeffs", "--expansion", "a5", "--alpha=1e10001", "--function", "exp"], "--alpha"),
    (["coeffs", "--expansion", "a7", "--beta=abc", "--function", "exp"], "--beta"),
    (["eval", "--expansion", "c1", "--w=1/0", "--function", "exp", "--at=0.5"], "--w"),
])
def test_a_rational_flag_names_itself_in_its_usage_error(argv, flag, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {flag}: ")


def test_exact_values_beyond_4300_digits_are_refused(tmp_path, capsys):
    # str writes no int of more than 4300 digits (sys.get_int_max_str_digits):
    # pow's name and the exact column refuse such a value with one error
    # line that names it, and the interpreter-wide limit is left as it is
    limit = sys.get_int_max_str_digits()
    assert main(["coeffs", "--expansion", "a1", "--function", "pow:1e-5000", "--terms", "2"]) == 1
    assert capsys.readouterr() == ("", f"error: builtin 'pow' alpha has over {limit} digits\n")
    with pytest.raises(ValueError, match=f"^builtin 'pow' alpha has over {limit} digits$"):
        funcseries.builtin_function("pow", alpha="1e-5000")
    # a derivative file whose f'(x0) = 10**-9999: a_0 = 1 is written, a_1 is not
    path = tmp_path / "tiny.txt"
    path.write_text("1\n1e-9999\n0\n")
    for fmt in ("csv", "json"):
        argv = ["coeffs", "--expansion", "a3", "--function", str(path), "--terms", "2",
                "--format", fmt]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: exact coefficient a_1 has over {limit} digits\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["--expansion", "a8", "--function", "ln1p"],
    ["--expansion", "a5", "--alpha", "0.5", "--function", "exp"],
    ["--expansion", "a7", "--alpha", "2", "--function", "sin"],
    ["--expansion", "c4", "--function", "pow:-7/3"],
    ["--expansion", "a2", "--function", "LIST"],
])
def test_coeffs_csv_and_json_agree(argv, tmp_path, capsys):
    # one coefficient text each: the csv exact column is str(Fraction) of
    # the json num/den, empty where the json has null
    path = tmp_path / "mixed.txt"
    path.write_text("0.5\n-3\n0\n-2.5\n3/7\n1e-30\n")
    argv = ["coeffs", *(str(path) if a == "LIST" else a for a in argv), "--terms", "5"]
    assert main(argv) == 0
    header, *rows = (line.split(",") for line in capsys.readouterr().out.splitlines())
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert header == ["n", "decimal", "exact"]
    assert rows == [[str(c["n"]), c["decimal"], "" if c["exact"] is None else
                     str(Fraction(int(c["exact"]["num"]), int(c["exact"]["den"])))]
                    for c in doc["coefficients"]]


class TestLinspace:
    """The grids must be numpy.linspace's points, bit for bit."""

    @staticmethod
    def check(start, stop, count):
        np = pytest.importorskip("numpy")
        want = [repr(float(v)) for v in np.linspace(start, stop, count)]
        assert [repr(v) for v in _linspace(start, stop, count)] == want, (start, stop, count)

    def test_small_counts_and_equal_ends(self):
        for start, stop in ((-3.0, 3.0), (0.0, 0.0), (-0.0, 0.0), (2.5, 2.5), (-1e300, 1e300)):
            for count in (1, 2, 3):
                self.check(start, stop, count)

    def test_fixed_grids(self):
        self.check(-1.0, 6.0, 281)  # the fifth-root figure
        self.check(-3.0, 3.0, 241)  # the figures default
        self.check(-1000.0, 0.0, 3)

    def test_subnormal_step_branch(self):
        self.check(0.0, 5e-324, 10)
        self.check(-1e-320, 1e-320, 7)

    def test_random_grids(self):
        rng = random.Random(20261018)
        for _ in range(500):
            scale = 10.0 ** rng.randint(-320, 300)
            a, b = sorted((rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
            self.check(a, b, rng.randint(1, 400))


def test_cli_import_leaves_numpy_unloaded():
    # Only the radius command's least-squares fit needs numpy; importing
    # the CLI and running a grid command must not load it.  Start-up pays
    # for every module it imports, so the import itself also loads no
    # dataclasses (which brings inspect, ast and dis) and no json or csv,
    # which only the commands that write them import, no Bell kernel and
    # no implicit basis (c1 .. c6), which load on first use.
    src = os.path.dirname(os.path.dirname(os.path.abspath(funcseries.__file__)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from funcseries.cli import main\n"
        "heavy = ('dataclasses', 'inspect', 'json', 'csv', 'numpy', 'funcseries.bell',\n"
        "         'funcseries.implicit')\n"
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))\n"
        "main(['eval', '--expansion', 'a8', '--function', 'ln1p', '--grid=-0.5:1:5'])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "False"


def test_radius_without_numpy_is_one_line_error():
    # numpy is the optional "radius" extra: a fit without it exits 3 with
    # one line naming the extra; a1's one-term tail needs no fit at all.
    src = os.path.dirname(os.path.dirname(os.path.abspath(funcseries.__file__)))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from funcseries.cli import main\n"
        "sys.exit(main(['radius', '--expansion', sys.argv[1], '--function', 'ln1p',"
        " '--terms', '12']))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    runs = {key: subprocess.run([sys.executable, "-c", code, key], env=env,
                                capture_output=True, text=True, timeout=60)
            for key in ("a8", "a1")}
    fit, no_fit = runs["a8"], runs["a1"]
    assert fit.returncode == 3
    assert fit.stdout == ""
    assert fit.stderr.splitlines() == [
        "error: numpy is not installed; it comes with the 'radius' extra: "
        "pip install 'funcseries[radius]'"
    ]
    assert no_fit.returncode == 0, no_fit.stderr
    assert no_fit.stdout.splitlines()[1] == "inf,-1.0000000000000000,inf"
    assert "Traceback" not in fit.stderr + no_fit.stderr
