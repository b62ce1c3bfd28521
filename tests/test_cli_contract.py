"""The CLI's error contract, under fuzzed command lines.

Whatever the arguments, ``main`` returns an exit code in {0, 1, 2, 3}
and nothing escapes it.  A run that writes no rows and exits nonzero
writes exactly one ``error:`` line to stderr; eval and compare may also
exit 2 after writing their rows, with a nan row or note for each failed
point and nothing on stderr.  A successful run writes nothing to stderr.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcseries.cli import main
from funcseries.pseries import FAMILY_KEYS, FAMILY_PARAMS
from test_properties import HORNER

PARAMS = ("0", "1e400", "-1e400", "1e-400", "-1e-400", "1/2", "1000", "junk")
POINTS = ("1e300", "-1e300", "1e400", "-1e400", "inf", "-inf", "nan", "junk", "0.5", "-0.5",
          "0")
TARGETS = ("exp", "sin", "sq", "ln1p", "pow:1/2", "pow:-3", "pow:1e400", "pow:1e-400",
           "junk")


def run(argv):
    """main(argv) with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        assert err == "", (argv, err)
    elif out:
        assert code == 2 and err == "" and argv[0] in ("eval", "compare"), (argv, code, err)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    return code, out, err


@st.composite
def command_lines(draw, commands=("coeffs", "eval", "radius", "compare")):
    command = draw(st.sampled_from(commands))
    keys = FAMILY_KEYS + ("tp",)
    if command == "compare":
        expansion = ",".join(draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)))
    else:
        expansion = draw(st.sampled_from(keys))
    argv = [command, "--expansion", expansion, "--function", draw(st.sampled_from(TARGETS))]
    own = FAMILY_PARAMS.get(expansion.split(",")[0], ())
    for name in ("alpha", "beta", "w"):
        # mostly the family's own parameters; a stray one is a usage error
        if draw(st.booleans()) and (name in own or draw(st.integers(0, 7)) == 0):
            argv.append(f"--{name}={draw(st.sampled_from(PARAMS))}")
    if draw(st.booleans()):
        argv += ["--terms", str(draw(st.integers(1, 20)))]
    if command in ("eval", "compare"):
        point = st.sampled_from(POINTS)
        choice = draw(st.sampled_from(("at", "grid", "both", "neither")))
        if choice in ("at", "both"):
            argv.append(f"--at={draw(point)}")
        if choice in ("grid", "both"):
            argv.append(f"--grid={draw(point)}:{draw(point)}:{draw(st.integers(1, 20))}")
    elif draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    return argv


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(command_lines())
def test_fuzzed_command_lines_keep_the_contract(argv):
    check_contract(argv)


def approx_column(argv, out):
    """The approx values an eval or compare run printed: eval --at prints
    the value alone, eval --grid (x, approx) rows and compare (expansion,
    x, approx, exact, delta) rows under a header."""
    if argv[0] == "eval" and not any(a.startswith("--grid") for a in argv):
        return out.split()
    column = 1 if argv[0] == "eval" else 2
    return [row.split(",")[column] for row in out.splitlines()[1:]]


def check_finite_approx(argv):
    code, out, _ = check_contract(argv)
    if code == 0:
        assert all(math.isfinite(float(v)) for v in approx_column(argv, out)), (argv, out)


# eval and compare exit 0 here while the Horner sum overflows to inf
HORNER_WITNESSES = (
    ["eval", "--expansion", "a5", "--function", "sin", "--at=1e100"],
    ["compare", "--expansion", "a5", "--function", "sin", "--at=1e100"],
)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(command_lines(("eval", "compare")))
def _fuzzed_approx_is_finite(argv):
    check_finite_approx(argv)


@pytest.mark.xfail(strict=True, reason=HORNER)
def test_a_successful_evaluation_prints_finite_approx_values():
    # a run that exits 0 printed a finite approx for every point (radius's
    # R and the exact column may read inf); the witnesses run first, so
    # this fails the same way on every run while they do
    for argv in HORNER_WITNESSES:
        check_finite_approx(argv)
    _fuzzed_approx_is_finite()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--expansion", "a7", "--beta", "1e400", "--function", "ln1p"],
    ["coeffs", "--expansion", "a5", "--alpha", "1e400", "--function", "ln1p"],
    ["coeffs", "--expansion", "c1", "--w", "1e400", "--function", "ln1p"],
    ["coeffs", "--expansion", "c5", "--alpha", "1e400", "--function", "ln1p"],
    ["coeffs", "--expansion", "a1", "--function", "pow:1e400"],
    ["eval", "--expansion", "a5", "--alpha", "1e-400", "--function", "exp", "--at=0.5"],
    ["eval", "--expansion", "a7", "--beta", "1e-400", "--function", "exp", "--at=0.5"],
    ["eval", "--expansion", "c5", "--w", "1e-400", "--function", "exp", "--at=0.5"],
    ["coeffs", "--expansion", "a10", "--w", "1000", "--function", "exp"],
])
def test_parameter_without_a_usable_float_is_a_usage_error(argv):
    code, out, err = check_contract(argv)
    assert code == 1 and out == ""
    assert any(s in err for s in ("has no finite float value", "rounds to 0.0 as a float",
                                  "overflow its float evaluators"))


@pytest.mark.parametrize("argv", [
    ["coeffs", "--expansion", "a7", "--alpha=2e-60", "--function", "exp", "--terms", "10"],
    ["coeffs", "--expansion", "a7", "--alpha=3", "--beta=1e40", "--function", "sin",
     "--terms", "12"],
    ["eval", "--expansion", "a7", "--alpha=2e-60", "--function", "ln1p", "--at=0.1"],
])
def test_a7_derivative_beyond_the_float_range_is_an_error(argv):
    # an irrational root makes a7's d_j floats; one beyond the float range
    # ends the run with one error line, not a traceback
    code, out, err = check_contract(argv)
    assert code == 1 and out == ""
    assert err == "error: family 'a7' basis derivatives leave the float range\n"


def test_overflowing_reference_reads_inf():
    code, out, _ = check_contract(
        ["compare", "--expansion", "tp", "--function", "exp", "--grid=0:1000:3"])
    assert code == 0
    assert out.splitlines()[3] == "tp,1000.0000000000000,2.5001397264056060e+19,inf,-inf"
    code, out, _ = check_contract(
        ["compare", "--expansion", "a13", "--function", "pow:2", "--at=1e300"])
    assert code == 2  # 1e300 lies outside a13's domain
    assert out.splitlines()[1] == "a13,1.0000000000000000e+300,nan,inf,nan"


@pytest.mark.parametrize("argv", [
    ["eval", "--expansion", "a1", "--function", "exp", "--at=1e400"],
    ["eval", "--expansion", "a1", "--function", "exp", "--grid=0:1e400:3"],
    ["compare", "--expansion", "a1", "--function", "exp", "--at=-1e400"],
])
def test_point_beyond_the_float_range_reads_as_an_infinity(argv):
    # 1e400 overflows float(Fraction("1e400")); float("1e400") is inf
    code, out, err = check_contract(argv)
    assert code == 2
    assert (code, out, err) == run([a.replace("1e400", "inf") for a in argv])
    if argv[-1] == "--at=1e400":
        assert out == "" and err == "error: x=inf outside the validity domain (-1.0, inf) " \
                                    "of family 'a1'\n"


def test_figures_grid_beyond_the_float_range_reads_as_an_infinity(tmp_path):
    written = {}
    for start in ("-1e400", "-inf"):
        out = tmp_path / start
        code, _, err = check_contract(["figures", "--out", str(out), f"--grid={start}:0:3",
                                       "--terms", "4"])
        assert code == 0
        written[start] = {f.name: f.read_text() for f in out.iterdir()}
    assert written["-1e400"] == written["-inf"] and len(written["-inf"]) > 1


@pytest.mark.parametrize("grid,rows", [
    ("0:inf:3", ["0.0000000000000000,1.0000000000000000", "inf,nan", "inf,nan"]),
    ("-inf:0:3", ["-inf,nan", "nan,nan", "0.0000000000000000,1.0000000000000000"]),
])
def test_grid_with_an_infinite_end_keeps_its_start(grid, rows):
    # numpy.linspace makes the first point 0 * inf + start = nan; the grid
    # starts at start, as it ends at stop
    code, out, err = check_contract(
        ["eval", "--expansion", "a1", "--function", "exp", f"--grid={grid}"])
    assert (code, err) == (2, "")
    assert out.splitlines() == ["x,approx", *rows]
