import ast
import builtins
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sublorentz import longarc
from sublorentz.cli import (
    EXIT_MISMATCH,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from sublorentz.liealg3 import CASE_IDS, SL2_CASES


# the CLI runs in a child process, importing the package from this checkout
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--samples", "2", "--seed", "7")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["all_match"] is True
    assert len(data["rows"]) == 20
    assert [r["case"] for r in data["rows"]][:4] == ["1", "2", "2*", "3"]
    assert json.loads(json.dumps(data)) == data


def test_table_text_layout(capsys):
    code, out, _ = run(capsys, "table", "--samples", "1", "--format", "text")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 22  # header + 20 rows + agreement line
    assert lines[-1] == "agreement: ok"


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", "--case", "10", "--kappa", "-2", "--chi", "-1", "--format", "text")
    assert code == EXIT_OK
    assert out == "case 10 (chi=-1.0,kappa=-2.0): exists via killing-containment\n"


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "table", "--samples", "3", "--seed", "1729")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--case", "10", "--kappa", "-2", "--chi", "-1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["outcome"] == "exists"
    assert data["rationale"] == "killing-containment"

    code, out, _ = run(capsys, "check", "--case", "2*", "--kappa", "1", "--tau", "0.5")
    payload = json.loads(out)
    assert payload["outcome"] == "exists" and payload["witness"] is not None


@pytest.mark.parametrize("argv", [
    # the Killing signature test is relative, so this small-scale row is decided
    ["check", "--case", "10", "--kappa", "-2e-8", "--chi", "-1e-8"],
    ["check", "--case", "10", "--kappa", "-.5", "--chi", "-.25"],
    ["solve", "--case", "12", "--kappa", "-.5", "--chi", "-5e-1", "--target", "[1,0,0]", "--steps", "8",
     "--budget", "600"],
])
def test_negative_values_are_read_in_every_notation(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    # the same values bound with "=" are read the same way
    bound = []
    for tok in argv:
        if tok.startswith("-") and not tok.startswith("--"):
            bound[-1] += "=" + tok
        else:
            bound.append(tok)
    assert run(capsys, *bound) == (EXIT_OK, out, "")
    if argv[0] == "check":
        assert json.loads(out)["outcome"] == "exists"


def test_check_constraint_violation_names_condition(capsys):
    code, _, err = run(capsys, "check", "--case", "9", "--kappa", "5", "--chi", "-1")
    assert code == EXIT_USAGE
    assert "case 9 requires" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "check", "--case", "99")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


# -- the removed cone and sl2 calculators ---------------------------------------
# An invocation of either ends in argparse's invalid-choice error, which names the four
# commands; the tests below keep the inputs they ran while the calculators existed.

def _no_command(name: str) -> str:
    return (f"error: argument command: invalid choice: '{name}' "
            "(choose from 'table', 'check', 'solve', 'witness')\n")


def assert_no_command(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(_no_command(argv[0])) and "Traceback" not in err


def assert_no_command_in_a_child(*argv):
    """As :func:`assert_no_command`, in a child interpreter that turns warnings into errors."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", *argv],
                          capture_output=True, text=True, env=_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, "", "sublorentz: " + _no_command(argv[0]))


@pytest.mark.parametrize("argv", [["sl2", "mul", "--g1", "0,0,0", "--g2", "0,0,0"],
                                  ["cone", "dual", "--cone", "{}", "--p", "1,0,0"]])
def test_the_cone_and_sl2_calculators_are_no_commands(capsys, argv):
    assert_no_command(capsys, *argv)


def test_cone_commands(capsys):
    cone = '{"kind":"segment","u1":[1,0,0],"u2":[0,1,0]}'
    assert_no_command(capsys, "cone", "dual", "--cone", cone, "--p", "1,0,0", "--strict")
    assert_no_command(capsys, "cone", "intersect", "--cone", cone, "--subspace", "[[0,0,1]]")


def test_sl2_inv_and_project(capsys):
    assert_no_command(capsys, "sl2", "inv", "--g", "0.3,2,-1")
    assert_no_command(capsys, "sl2", "project", "--g", "0,0,0")


def test_sl2_mul_and_project_where_the_square_of_w_overflows(capsys):
    # the products and projections these printed are pinned in test_sl2cover
    assert_no_command(capsys, "sl2", "mul", "--g1", "0,1.4e154,0", "--g2", "0,-1,0")
    assert_no_command(capsys, "sl2", "project", "--g", "0,1e200,0")


def test_sl2_push_and_tau(capsys):
    assert_no_command(capsys, "sl2", "tau", "--g", "0,3,0", "--v", "1,0,0")
    assert_no_command(capsys, "sl2", "push", "--g", "0,2,1", "--v", "1,0,0")


@pytest.mark.parametrize("cone", ['{"kind":"segment","u1":[1,0,0],"u2":[0,1,0]}',
                                  '{"kind":"circular","axis":[1,1,0],"eta":1}'])
def test_cone_dual_near_the_largest_float_answers_without_a_warning(cone):
    for strict in ([], ["--strict"]):
        assert_no_command_in_a_child("cone", "dual", "--cone", cone, "--p", "1.7e308,1.7e308,0", *strict)


@pytest.mark.parametrize("argv", [["dual", "--p", "1,0,0"], ["intersect", "--subspace", "[[0,0,1]]"]])
def test_a_segment_cone_whose_extreme_rays_overflow_is_a_named_error(argv):
    # the library's error is test_conegeom's test_a_segment_cone_whose_extreme_rays_overflow_is_rejected
    cone = '{"kind":"segment","u1":[1,0,0],"u2":[0,2,0],"half_width":1e308}'
    assert_no_command_in_a_child("cone", argv[0], "--cone", cone, *argv[1:])


def test_solve_command(capsys):
    code, out, _ = run(capsys, "solve", "--case", "1", "--kappa", "0",
                       "--target", "[1,0,0]", "--steps", "12", "--budget", "600", "--seed", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["found"] is True
    assert 0.98 <= data["length"] <= 1.0 + 1e-9
    assert abs(data["upper_bound"] - 1.0) <= 1e-9
    assert data["gap"] >= -1e-9
    assert len(data["trajectory"]) == 13
    assert json.loads(json.dumps(data)) == data


def test_solve_refuses_case_nine(capsys):
    code, _, err = run(capsys, "solve", "--case", "9", "--kappa", "0", "--chi", "-1",
                       "--target", "[1,0,0]")
    assert code == EXIT_USAGE
    assert "witness" in err


def test_solve_not_found_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "--case", "1", "--kappa", "0",
                       "--target", "[0,0,-1]", "--steps", "6", "--budget", "300", "--seed", "1")
    assert code == EXIT_NOT_FOUND
    assert json.loads(out)["found"] is False


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_solve_rejects_steps_below_one(capsys, steps):
    code, out, err = run(capsys, "solve", "--case", "1", "--kappa", "0",
                         "--target", "[1,0,0]", f"--steps={steps}", "--budget", "50")
    assert code == EXIT_USAGE
    assert out == "" and err == "error: steps must be >= 1\n"


def test_solve_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "solve", "--case", "1", "--kappa", "0",
                         "--target", "[1,0,0]", "--steps", "4", "--budget=-1")
    assert code == EXIT_USAGE
    assert out == "" and err == "error: budget must be >= 0\n"


def test_solve_zero_budget_is_not_found(capsys):
    code, out, _ = run(capsys, "solve", "--case", "1", "--kappa", "0",
                       "--target", "[1,0,0]", "--steps", "1", "--budget", "0")
    assert code == EXIT_NOT_FOUND
    data = json.loads(out)
    assert data["found"] is False and data["evaluations"] == 0


def test_solve_payload_layout(capsys):
    _, out, _ = run(capsys, "solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]",
                    "--steps", "4", "--budget", "20", "--seed", "1")
    data = json.loads(out)
    assert list(data) == ["found", "length", "endpoint_error", "evaluations", "upper_bound",
                          "gap", "curve", "case", "params", "target", "trajectory"]
    assert data["gap"] == data["upper_bound"] - data["length"]


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--case", "9", "--kappa", "0", "--chi", "-1",
                       "--length", "10")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["length"] >= 10.0
    assert data["endpoint_error"] <= 1e-8
    assert list(data["curve"]) == ["dt", "controls", "loop_rows", "repeat"]
    assert data["curve"]["loop_rows"] == len(data["curve"]["controls"]) == 64
    assert data["curve"]["repeat"] == 1


def test_the_witness_of_length_1e12_keeps_its_loop_closed(capsys):
    # the powered block endpoint carries k times the one-loop closure error, 3.3e-6 here; an
    # exponential that folded the block as one rotation read 1.95e-5 through sin(fl(2 pi))
    code, out, _ = run(capsys, "witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "1e12")
    assert code == EXIT_OK
    assert json.loads(out)["endpoint_error"] <= 1e-5


# reads the child's own peak memory, so that no other process can mask it
_RUSAGE_CHILD = """
import contextlib, io, json, resource, sys
from sublorentz.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "out": buf.getvalue()}))
"""


# the table written to the null device, and the child's own peak memory: VmHWM is that of
# the child's image alone, where ru_maxrss keeps the peak of the process it was forked from
_TABLE_RSS_CHILD = """
import json, os, re, sys
from sublorentz.cli import main
with open(os.devnull, "w") as sink:
    sys.stdout, out = sink, sys.stdout
    code = main(sys.argv[1:])
    sys.stdout = out
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
print(json.dumps({"code": code, "maxrss_kb": peak_kb}))
"""


def test_table_memory_does_not_grow_with_the_samples():
    # each draw is written as it is decided: 20 and 400 samples per row peak within 2 MB
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the peak resident set is read from /proc/self/status")
    runs = {(fmt, n): subprocess.Popen([sys.executable, "-c", _TABLE_RSS_CHILD, "table", "--samples", str(n),
                                        "--format", fmt], stdout=subprocess.PIPE, text=True, env=_ENV)
            for fmt in ("json", "text") for n in (20, 400)}
    peak = {}
    for key, proc in runs.items():
        out, _ = proc.communicate()
        child = json.loads(out)
        assert (proc.returncode, child["code"]) == (0, EXIT_OK), key
        peak[key] = child["maxrss_kb"]
    for fmt in ("json", "text"):
        assert peak[fmt, 400] - peak[fmt, 20] < 2 * 1024, (fmt, peak)


def test_witness_for_a_huge_length_is_fast_and_small():
    pytest.importorskip("resource")
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is in kilobytes on Linux only")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _RUSAGE_CHILD, "witness", "--case", "9", "--kappa", "0",
                           "--chi", "-1", "--length", "1e12"], capture_output=True, text=True, env=_ENV)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["code"] == EXIT_OK
    assert elapsed < 2.0
    assert child["maxrss_kb"] < 150 * 1024
    data = json.loads(child["out"])
    assert data["length"] >= 1e12
    assert math.isfinite(data["endpoint_error"]) and data["endpoint_error"] < 1e-2


@pytest.mark.parametrize("argv,message", [
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "10",
      "--steps-per-loop", "0"], "steps per loop must be >= 1"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "10",
      "--steps-per-loop=-4"], "steps per loop must be >= 1"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "inf"],
     "demanded length must be positive and finite"),
    (["check", "--case", "10", "--kappa", "nan", "--chi", "-1"], "kappa must be finite"),
    (["check", "--case", "10", "--kappa", "inf", "--chi", "-1"], "kappa must be finite"),
    *[(["solve", "--case", "10", "--kappa", "-2", "--chi", "-1", "--target", target,
        "--steps", "2", "--budget", "5"], "a cover target is")
      for target in ('{"c":1}', '{"c":1,"w":[1]}', '{"c": NaN, "w": [0,0]}')],
    *[(["solve", "--case", "1", "--kappa", "0", "--target", target, "--steps", "2", "--budget", "5"],
       "a target in exponential coordinates is three finite numbers")
      for target in ("[1,0]", "[1,0,0,5]", "[NaN,0,0]", "[Infinity,0,0]", "[1e400,0,0]",
                     "[null,0,0]", '["1",0,0]')],
    (["solve", "--case", "1", "--kappa", "0", "--target", '{"c":1,"w":[0,0]}', "--steps", "2",
      "--budget", "5"], "on an sl2 row"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "5", "--steps", "2", "--budget", "5"],
     "the target is [a, b, c]"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1" + "0" * 400 + ",0,0]", "--steps", "2",
      "--budget", "5"], "too large"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "1e308"],
     "the powered loop endpoint is not finite"),
    (["witness", "--case", "9", "--kappa", "0", "--chi=-1e300", "--length", "1e308"],
     "needs too many loops"),
    (["witness", "--case", "9", "--kappa", "0", "--chi=-2", "--length", "1.7976931348623157e308"],
     "gives a witness of infinite length"),
    (["table", "--samples", "0"], "samples must be >= 1"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "0", "--budget", "5"],
     "steps must be >= 1"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "2", "--budget", "-1"],
     "budget must be >= 0"),
    (["solve", "--case", "9", "--kappa", "0", "--chi", "-1", "--target", "[1,0,0]", "--steps", "2", "--budget", "5"],
     "case 9 has infinite distance to every attainable point"),
    (["check", "--case", "1", "--variant", "2"], "case 1 has a single canonical pattern; variant must be 1"),
    (["check", "--case", "10", "--kappa", "-2", "--chi", "nan"], "chi must be finite"),
    (["check", "--case", "3", "--kappa", "0.5", "--tau", "inf"], "tau must be finite"),
    *[(["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", demand],
       "from the identity, above 0.0001")
      for demand in ("1e14", "1e16")],
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "10001",
      "--budget", "5"], "steps must be <= 10000"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "10",
      "--steps-per-loop", "10001"], "steps per loop must be <= 10000"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "2", "--budget", "5",
      "--format", "text"], "unrecognized arguments"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "5", "--format", "text"],
     "unrecognized arguments"),
    (["solve", "--case", "10", "--kappa", "-2", "--chi", "-1", "--target", "[1,0,0]"],
     "this model takes targets in its own coordinates"),
    (["solve", "--case", "3", "--kappa", "0.5", "--target", "[1e6,1,0]", "--steps", "8",
      "--budget", "5"], "its exponential overflows"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "2", "--budget", "5",
      "--seed", "-1"], "--seed must be >= 0"),
    (["table", "--seed", "-1"], "--seed must be >= 0"),
    # a row's parameters are named when missing or outside the row
    (["check", "--case", "10"], "case 10 requires kappa"),
    (["check", "--case", "10", "--kappa", "-2"], "case 10 requires chi"),
    (["check", "--case", "5", "--tau", "3"], "case 5 requires |tau| < 2"),
    *[(["solve", "--case", row, "--tau", "-1e4", "--target", "[1,0,0]", "--steps", "2", "--budget", "5"],
       "its exponential overflows") for row in ("4", "7")],
    (["solve", "--case", "7", "--variant", "2", "--tau=-1.7976931348623157e308", "--target", "[0,0,1]", "--steps",
      "2", "--budget", "5"], "the semidirect model of case-7 does not apply"),
    (["witness", "--case", "2", "--kappa", "-1e300", "--length", "5"],
     "the loop construction applies to the su2 structure (case 9), not to case 2"),
    # argparse names a value it cannot read, and a missing command
    (["check", "--case", "42"], "argument --case: invalid choice: '42'"),
    (["check", "--case", "1", "--variant", "3"], "argument --variant: invalid choice: 3"),
    (["check", "--case", "1", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["check", "--case", "10", "--kappa", "x", "--chi", "-1"], "argument --kappa: invalid float value: 'x'"),
    (["table", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "5", "--steps-per-loop", "x"],
     "argument --steps-per-loop: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    # the product overflows without raising, to coordinates nan
    (["solve", "--case", "7", "--tau", "1e300", "--target", "[0,1,0]", "--steps", "2", "--budget", "5"],
     "its exponential overflows"),
    # the rotation angle overflows, and its cosine raises "math domain error"
    (["solve", "--case", "12", "--kappa", "1", "--chi", "-1", "--target", "[0,1e154,0]", "--steps", "2",
      "--budget", "5"], "its exponential overflows"),
    # b2 = sqrt(kappa + tau^2) overflows in the row's structure constants
    (["check", "--case", "2*", "--kappa", "1e300", "--tau", "1e300"],
     "the structure constants of case-2* are out of float range"),
    (["solve", "--case", "2*", "--kappa", "1e300", "--tau", "1e300", "--target", "[0,0,1]", "--steps", "2",
      "--budget", "5"], "the structure constants of case-2* are out of float range"),
    # a JSON boolean is not a number
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,true]", "--steps", "2", "--budget", "5"],
     "a target in exponential coordinates is three finite numbers"),
    (["solve", "--case", "10", "--kappa", "-2", "--chi", "-1", "--target", '{"c": true, "w": [0, 0]}',
      "--steps", "2", "--budget", "5"], 'a cover target is {"c": c, "w": [re, im]} with finite numbers'),
    (["solve", "--case", "1", "--kappa", "0", "--steps", "2", "--budget", "5"],
     "the following arguments are required: --target"),
    (["witness", "--case", "9", "--kappa", "0", "--chi", "-1"], "the following arguments are required: --length"),
    *[(["solve", "--case", "1", "--kappa", "0", "--target", target, "--steps", "2", "--budget", "5"], message)
      for target, message in (("[1,0", "Expecting ',' delimiter"), ("", "Expecting value"))],
    *[(["witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", demand],
       "demanded length must be positive and finite") for demand in ("0", "nan")],
    (["check", "--case", "2", "--kappa", "1e300"], "the Killing form of case-2 is out of float range"),
    (["check", "--case", "13", "--kappa", "1", "--chi", "1"], "case 13 requires kappa = -7 chi"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "2", "--budget", "5",
      "--steps-per-loop", "3"], "unrecognized arguments"),
    # row 1's algebra takes no kappa, so a tiny one is not rounded to zero and echoed unused
    (["check", "--case", "1", "--kappa", "1e-13"], "case 1 requires kappa = 0"),
])
def test_bad_inputs_are_named_usage_errors(argv, message):
    proc = subprocess.run([sys.executable, "-m", "sublorentz.cli", *argv],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_table_whose_reader_leaves_early_is_a_usage_error_without_a_traceback(unbuffered):
    # about 170 kB of text, well past a pipe's and stdout's buffers, so the child is still
    # writing when the reader closes its end after one line
    env = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "sublorentz.cli", "table", "--samples", "150",
                             "--format", "text"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env)
    assert proc.stdout.readline().startswith("# classification verdicts")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_USAGE
    assert err == ""  # no traceback, and no "Exception ignored" from the exit flush


@pytest.mark.parametrize("row,target,code", [
    (["4", "--tau", "-1e4"], "[0.001,0,0]", EXIT_OK), (["7", "--tau", "-1e4"], "[0,0,1]", EXIT_NOT_FOUND),
    (["4", "--tau", "-1e30"], "[0,0,1]", EXIT_NOT_FOUND), (["7", "--tau", "1e8"], "[0,0,1]", EXIT_NOT_FOUND),
])
def test_semidirect_rows_with_a_large_tau_solve_without_a_warning(row, target, code):
    # the bracket images scale with tau; the model reads its ideal off the layout table
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", "solve", "--case", *row,
                           "--target", target, "--steps", "2", "--budget", "5"],
                          capture_output=True, text=True, env=_ENV)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout, parse_constant=_reject_constant)["found"] == (code == EXIT_OK)


@pytest.mark.parametrize("argv,message", [
    (["check", "--case", "10", "--kappa", "-1e300", "--chi", "-1"],
     "the Killing form of case-10 is out of float range: its entries overflow"),
    (["check", "--case", "2", "--kappa", "1e300"], "the Killing form of case-2 is out of float range: its entries overflow"),
    (["solve", "--case", "19", "--kappa", "1e300", "--chi", "-1", "--target", '{"c":0,"w":[0,0]}', "--steps", "1",
      "--budget", "5"], "the Killing form of case-19 is out of float range: its entries overflow"),
    (["solve", "--case", "7", "--tau", "1.7976931348623157e308", "--target", "[1,0,0]", "--steps", "1",
      "--budget", "5"], "the semidirect model of case-7 does not apply: its bracket images are out of float range"),
    (["solve", "--case", "1", "--kappa", "0", "--target", "[1e200,1e200,0]", "--steps", "2", "--budget", "5"],
     "the target [1e+200, 1e+200, 0] is out of float range: its exponential overflows"),
    # the powered endpoint is finite, about (-1.44e224, -1.62e223, 0, 0); its squared norm overflows
    (["witness", "--case", "9", "--kappa", "-0.2122766612781075", "--chi", "-1.0", "--length",
      "2.2790229221201445e+27", "--steps-per-loop", "87"],
     "demanded length 2.27902e+27 is too long: the powered loop endpoint is 1.45e+224 from the identity, "
     "above 0.0001"),
])
def test_values_out_of_float_range_are_named_without_a_warning(argv, message):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", *argv],
                          capture_output=True, text=True, env=_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("row,target", [(["2*", "--kappa", "-1", "--tau", "1.5"], "[30,0,0]"),
                                        (["11", "--kappa", "1", "--chi", "1"], "[30,30,30]")])
def test_far_targets_on_exists_rows_get_a_finite_bound(row, target):
    # the bound is the witness's homomorphism at the target, with no path to it and no logarithm
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", "solve", "--case", *row,
                           "--target", target, "--steps", "2", "--budget", "5"],
                          capture_output=True, text=True, env=_ENV)
    assert (proc.returncode, proc.stderr) == (EXIT_NOT_FOUND, "")
    assert math.isfinite(json.loads(proc.stdout, parse_constant=_reject_constant)["upper_bound"])


def test_witness_on_another_row_is_named_before_its_killing_form_overflows():
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", "witness", "--case", "2",
                           "--kappa", "-1e300", "--length", "5"], capture_output=True, text=True, env=_ENV)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: the loop construction applies to the su2 structure (case 9), not to case 2\n"


@pytest.mark.parametrize("target", ["[5,1,0]", "[30,1,0]", "[200,1,0]"])
def test_far_targets_end_the_solve_without_an_error_or_a_warning(target):
    # the grid sweep reaches controls whose exponentials overflow; such a
    # candidate scores as infeasible and the search goes on
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", "solve", "--case", "3",
                           "--kappa", "0.5", "--steps", "8", "--budget", "2000", "--target", target],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode in (EXIT_OK, EXIT_NOT_FOUND), proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout, parse_constant=_reject_constant)["target"] == json.loads(target)


@pytest.mark.parametrize("row", [["1", "--kappa", "0"], ["12", "--kappa", "-1", "--chi", "-1"]])
def test_far_targets_leave_the_calibration_bound_without_a_warning(row):
    # the target lies 1e300 out along the ideal; the bound reads F off its coordinates
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublorentz.cli", "solve", "--case", *row,
                           "--steps", "8", "--budget", "300", "--target", "[1,0,1e300]"],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode in (EXIT_OK, EXIT_NOT_FOUND), proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout, parse_constant=_reject_constant)["upper_bound"] == 1.0


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _run_with_warnings_as_errors(argv) -> tuple[int, str]:
    """main(argv) in-process: an escaping exception or warning fails the test; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH, EXIT_NOT_FOUND)
    if code in (EXIT_OK, EXIT_NOT_FOUND):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code, err.getvalue()


_SL2_NUMERALS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1", "-1", "1e154", "1e200", "1e300",
                 "-1e300", "1.7976931348623157e308", "nan", "inf", "-inf"]
_SL2_OPTIONS = {"mul": ("--g1", "--g2"), "inv": ("--g",), "project": ("--g",), "push": ("--g", "--v"),
                "tau": ("--g", "--v")}


@hs.composite
def sl2_argv(draw):
    command = draw(hs.sampled_from(sorted(_SL2_OPTIONS)))
    argv = ["sl2", command]
    for option in _SL2_OPTIONS[command]:
        argv += [option, ",".join(draw(hs.lists(hs.sampled_from(_SL2_NUMERALS), min_size=3, max_size=3)))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sl2_argv())
def test_every_sl2_input_ends_in_json_or_a_named_usage_error(argv):
    # the calculator is gone, so every input, however its values parse, is the same usage error
    code, err = _run_with_warnings_as_errors(argv)
    assert code == EXIT_USAGE
    assert err.endswith(_no_command("sl2")) and "Traceback" not in err


_NUMERALS = ["0", "-0", "5e-324", "1e-300", "-1e-300", "0.5", "-0.5", "1", "-1", "1.5", "2", "-2", "-2.5", "3",
             "7", "10", "-10", "20", "30", "-30", "1e8", "-1e8", "1e154", "1e200", "1e300", "-1e300",
             "1.7976931348623157e308", "nan", "inf", "-inf"]
#: The numerals as JSON texts: Python's json reads NaN and Infinity.
_JSON_NUMERALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@hs.composite
def check_or_solve_argv(draw):
    numeral = hs.sampled_from(_NUMERALS)
    command = draw(hs.sampled_from(["check", "solve", "witness"]))
    case = draw(hs.sampled_from(CASE_IDS))
    argv = [command, "--case", case]
    for option in ("--kappa", "--tau", "--chi"):
        # each option is given in seven draws of eight, as one token, so "-inf" is its value
        if draw(hs.integers(0, 7)):
            argv.append(f"{option}={draw(numeral)}")
    if command == "check":
        return argv
    if command == "witness":
        return argv + [f"--length={draw(numeral)}", f"--steps-per-loop={draw(hs.integers(-1, 100))}"]
    values = [_JSON_NUMERALS.get(t, t) for t in draw(hs.lists(numeral, min_size=3, max_size=3))]
    # the row's own form of target in three draws of four
    as_dict = (case in SL2_CASES) == bool(draw(hs.integers(0, 3)))
    target = ('{"c": %s, "w": [%s, %s]}' if as_dict else "[%s,%s,%s]") % tuple(values)
    return argv + ["--target", target, "--steps", str(draw(hs.integers(1, 4))),
                   "--budget", str(draw(hs.integers(0, 30)))]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(check_or_solve_argv())
def test_every_check_or_solve_input_ends_in_json_or_a_named_usage_error(argv):
    code, err = _run_with_warnings_as_errors(argv)
    if code == EXIT_USAGE:
        assert "error:" in err
        assert "Traceback" not in err


def test_solve_never_reports_a_non_finite_length_as_found():
    proc = subprocess.run([sys.executable, "-m", "sublorentz.cli", "solve", "--case", "1", "--kappa", "0",
                           "--target", "[1e300,0,0]", "--steps", "2", "--budget", "5"],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode == EXIT_NOT_FOUND, proc.stderr
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert data["found"] is False and data["upper_bound"] == 1e300


def test_out_file(tmp_path, capsys):
    path = tmp_path / "verdicts.json"
    code, out, _ = run(capsys, "table", "--samples", "1", "--out", str(path))
    assert code == EXIT_OK and out == ""
    assert json.loads(path.read_text())["all_match"] is True


def test_build_table_mismatch_detection(capsys):
    code, text, _ = run(capsys, "table", "--samples", "2", "--seed", "99", "--format", "text")
    assert code == EXIT_OK and text.endswith("agreement: ok\n")
    assert "MISMATCH" not in text


def _text_table(text: str) -> tuple:
    """(header, rows as (case, label, [(params, outcome, match)]), agreement line) of a text table."""
    header, *lines, agreement = text.splitlines()
    rows = []
    for line in lines:
        cid, label, draws = re.fullmatch(r" *(\S+)  (\S+) +(.*)", line).groups()
        parsed = []
        for draw in draws.split("; "):
            params, outcome, expected = re.fullmatch(r"\((.*)\)->(\S+?)(?: \[MISMATCH expected (\S+)\])?",
                                                     draw).groups()
            values = {k: ast.literal_eval(v) for k, v in (kv.split("=", 1) for kv in params.split(",") if kv)}
            parsed.append((values, outcome, expected is None))
        rows.append((cid, label, parsed))
    return header, rows, agreement


@pytest.mark.parametrize("seed", [1729, 9241])
def test_table_text_and_json_list_the_same_draws_in_the_same_order(capsys, seed):
    code, out, _ = run(capsys, "table", "--samples", "5", "--seed", str(seed))
    assert code == EXIT_OK
    table = json.loads(out)
    code, text, _ = run(capsys, "table", "--samples", "5", "--seed", str(seed), "--format", "text")
    assert code == EXIT_OK
    header, rows, agreement = _text_table(text)
    assert header == f"# classification verdicts (seed={seed}, samples=5)"
    assert (table["seed"], table["samples"]) == (seed, 5)
    assert [row["case"] for row in table["rows"]] == [cid for cid, _, _ in rows] == list(CASE_IDS)
    assert rows == [(row["case"], row["label"], [(d["params"], d["outcome"], d["match"]) for d in row["draws"]])
                    for row in table["rows"]]
    assert all(len(draws) == 5 for _, _, draws in rows)
    assert agreement == "agreement: " + ("ok" if table["all_match"] else "MISMATCH")


def test_table_exit_code_on_disagreement(capsys, monkeypatch):
    import sublorentz.cli as cli
    from sublorentz.existence import Outcome

    monkeypatch.setattr(cli, "expected_outcome", lambda case: Outcome.EXISTS)
    code, out, _ = run(capsys, "table", "--samples", "1", "--seed", "7")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["all_match"] is False


def _compensated_sum(values, start=0):
    """Python 3.12's ``sum``: ints summed exactly, floats with Neumaier's compensation."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c


#: the solves and the witness that the CI runs twice and compares byte for byte
_CI_RUNS = [
    ("solve", "--case", "10", "--kappa", "-2", "--chi", "-1", "--steps", "16", "--budget", "400",
     "--target", '{"c": 0.7775644, "w": [0.0812746, 0]}'),
    ("solve", "--case", "10", "--kappa", "-2", "--chi", "-1", "--steps", "16", "--budget", "2500",
     "--target", '{"c": 0.7775644, "w": [0.0812746, 0]}'),
    ("solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]", "--steps", "32", "--budget", "10000"),
    ("solve", "--case", "12", "--kappa", "-1", "--chi", "-1", "--target", "[1,0.3,0]", "--steps", "16",
     "--budget", "3000"),
    ("witness", "--case", "9", "--kappa", "0", "--chi", "-1", "--length", "1e12"),
]


def test_ci_runs_print_the_same_bytes_under_a_compensated_sum(capsys, monkeypatch):
    # lengths are summed left to right, not with the builtin sum, whose rounding Python 3.12
    # changed: under its emulation every CI run prints the bytes it prints under 3.10 and 3.11
    plain = [run(capsys, *argv) for argv in _CI_RUNS]
    monkeypatch.setattr(longarc, "sum", _compensated_sum, raising=False)
    assert [run(capsys, *argv) for argv in _CI_RUNS] == plain


def test_solve_byte_determinism(capsys):
    args = ("solve", "--case", "1", "--kappa", "0", "--target", "[1,0,0]",
            "--steps", "8", "--budget", "250", "--seed", "5")
    outs = [run(capsys, *args)[1] for _ in range(2)]
    assert outs[0] == outs[1]
