"""End-to-end tests of the ouro command line, run as subprocesses.

The option-table tests also call the parser and the config loader of
`ouro.cli` in-process, to compare the options they produce."""

import ast
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from ouro import cli
from ouro.deriv import UnityReport
from ouro.finite import enumerate_idempotent
from ouro.verify import Status


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "ouro", *args],
                          capture_output=True, text=True, timeout=120,
                          **kwargs)


# --- check ---------------------------------------------------------------------

def test_check_pass_text():
    r = run_cli("check", "--expr", "abs(x)")
    assert r.returncode == 0
    assert "membership: PASS" in r.stdout
    assert "iterated: PASS" in r.stdout
    assert "overall: PASS" in r.stdout


def test_check_fail_exit_code_and_witness():
    r = run_cli("check", "--expr", "x / 2")
    assert r.returncode == 1
    assert "overall: FAIL" in r.stdout
    assert "reason: RESIDUAL" in r.stdout
    assert "7.6662161642728535" in r.stdout


def test_check_json_document():
    r = run_cli("check", "--expr", "x / 2", "--format", "json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == "check"
    assert doc["target"] == {"expr": "x / 2"}
    assert doc["overall"] == "FAIL"
    assert doc["membership"]["status"] == "FAIL"
    w = doc["membership"]["witness"]
    assert w["point"] == [7.6662161642728535]
    assert w["residual"] == -1.9165540410682134
    assert w["reason"] == "RESIDUAL"
    assert "timestamp" not in doc


def test_check_domain_error_exit_code():
    r = run_cli("check", "--expr", "ln(x)", "--box=-10:-1")
    assert r.returncode == 3
    assert "overall: DOMAIN_ERROR" in r.stdout


def test_check_catalog_target():
    r = run_cli("check", "--catalog", "median", "--n", "5", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["target"]["catalog"] == "median"
    assert doc["target"]["params"] == {"n": 5}
    assert doc["overall"] == "PASS"
    assert len(doc["box"]) == 5


def test_check_vector_catalog_target():
    r = run_cli("check", "--catalog", "simplex_projection", "--params", "d=4",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["target"]["kind"] == "vector-operator"
    assert "range containment is not checked" in doc["target"]["note"]
    assert doc["overall"] == "PASS"


def test_one_number_is_a_one_element_vector_parameter():
    r = run_cli("check", "--catalog", "hyperplane_projection", "--params", "a=2",
                "--samples", "8", "--format", "json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["target"]["params"] == {"a": [2.0], "b": 1.0}
    assert len(doc["box"]) == 1  # the d = 1 hyperplane 2x = 1
    assert doc["overall"] == "PASS"
    r = run_cli("check", "--catalog", "weighted_mean", "--params", "w=1")
    assert r.returncode == 2
    assert r.stderr == "ouro: error: weighted_mean needs at least two weights\n"


@pytest.mark.parametrize("name, box, code, overall", [
    # x.x overflows a double there: each sample projects onto the sphere
    ("l2_ball_projection", "--box=-1e200:1e200", 0, "overall: PASS"),
    # u_1 - 1 rounds to u_1, so no simplex threshold exists
    ("simplex_projection", "--box=1e17:1e18", 3, "overall: DOMAIN_ERROR"),
])
def test_vector_operators_on_extreme_boxes_report_without_warnings(
        name, box, code, overall):
    r = run_cli("check", "--catalog", name, "--params", "d=2", box,
                "--samples", "4")
    assert r.returncode == code
    assert overall in r.stdout
    assert r.stderr == ""


@pytest.mark.parametrize("a", ["1e-155", "1e-200"])
def test_hyperplane_projection_at_a_tiny_normal_passes(a):
    # a . a underflows, and the step (x . a - b) / a . a overflows, unless
    # the operator scales a first; the hyperplane point 1 / a is a double
    r = run_cli("check", "--catalog", "hyperplane_projection", "--params",
                f"a={a}", "--samples", "4")
    assert (r.returncode, r.stderr) == (0, "")
    assert "overall: PASS" in r.stdout


def test_check_negative_box_spelling():
    r = run_cli("check", "--expr", "clamp(x, -1, 1)", "--box=-5:5")
    assert r.returncode == 0


def test_check_single_box_replicates():
    r = run_cli("check", "--expr", "(x1 + x2 + x3) / 3", "--box", "1:2",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["box"] == [[1.0, 2.0]] * 3


@pytest.mark.parametrize("command", [("check",),
                                     ("derive", "--skip-membership")])
def test_box_wider_than_a_double_is_a_usage_error(command):
    # both bounds are finite, but hi - lo is not: sampling would draw inf
    r = run_cli(*command, "--expr", "abs(x)", "--box=-1e308:1e308",
                "--samples", "4")
    assert r.returncode == 2
    assert "wider than the largest double" in r.stderr
    assert r.stdout == ""


def test_check_box_count_mismatch():
    r = run_cli("check", "--expr", "(x1 + x2) / 2", "--box", "0:1", "--box",
                "0:1", "--box", "0:1")
    assert r.returncode == 2
    assert "interval" in r.stderr


def test_check_rejects_bad_expression():
    r = run_cli("check", "--expr", "x +")
    assert r.returncode == 2
    assert "bad --expr" in r.stderr


def test_check_rejects_nan_tolerance():
    # NaN would fail every comparison and so pass every check
    r = run_cli("check", "--expr", "x / 2 + 100", "--samples", "8", "--atol", "nan")
    assert r.returncode == 2
    assert "finite and non-negative" in r.stderr
    # a plan error names the flag, not the SamplePlan field
    for command, flag, value, message in [
            ("check", "--samples", "0", "--samples must be positive"),
            ("check", "--kmax", "1", "--kmax must be at least 2"),
            ("check", "--atol", "nan", "--atol must be finite and non-negative"),
            ("derive", "--kink-margin", "-1",
             "--kink-margin must be finite and non-negative")]:
        r = run_cli(command, "--expr", "x", flag, value)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"ouro: error: {message}\n"


def test_check_requires_exactly_one_target():
    assert run_cli("check").returncode == 2
    r = run_cli("check", "--expr", "x", "--catalog", "abs")
    assert r.returncode == 2


@pytest.mark.parametrize("args, flag", [
    (("check", "--expr", "x", "--n", "3"), "--n"),
    (("derive", "--expr", "x", "--point", "0.5", "--params", "d=3"), "--params"),
])
def test_catalog_flags_are_rejected_with_expr(args, flag):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"ouro: error: {flag} cannot be used with --expr\n"


@pytest.mark.parametrize("args, config, name", [
    (("derive", "--catalog", "arith_mean", "--n", "3", "--params", "n=4"),
     None, "n"),
    (("check", "--catalog", "weighted_mean", "--w", "0.5,0.5",
      "--params", "w=0.25,0.75"), None, "w"),
    (("check", "--catalog", "power_mean", "--params", "p=2", "--params", "p=3"),
     None, "p"),
    (("derive", "--catalog", "arith_mean", "--params", "n=4"), "n = 3\n", "n"),
    (("check", "--catalog", "power_mean"), "params = p=2 p=3\n", "p"),
    (("check", "--catalog", "power_mean"), "params = p=2\nparams = p=3\n",
     "p"),
    (("check", "--catalog", "clamp", "--params", "lo=-1"), "params = lo=-2\n",
     "lo"),
])
def test_a_parameter_given_twice_is_rejected(tmp_path, args, config, name):
    if config is not None:
        cfg = tmp_path / "ouro.cfg"
        cfg.write_text(config)
        args += ("--config", str(cfg))
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"ouro: error: parameter {name!r} given twice\n"


def test_config_and_flag_params_are_merged(tmp_path):
    # params add up, config first; --box still replaces the config's box
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("params = lo=-2\nbox = 0:1\n")
    r = run_cli("check", "--catalog", "clamp", "--config", str(cfg),
                "--params", "hi=5", "--box=-3:3", "--samples", "8",
                "--format", "json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["target"]["params"] == {"hi": 5, "lo": -2}
    assert doc["target"]["expr"] == "clamp(x, -2.0, 5.0)"
    assert doc["box"] == [[-3.0, 3.0]]


@pytest.mark.parametrize("args, spellings, echo", [
    (("check", "--catalog", "clamp", "--samples", "8"), ("lo=-2", "lo=-2.0"),
     '"lo": -2.0'),
    (("derive", "--catalog", "power_mean", "--samples", "8"), ("p=2", "p=2.0"),
     '"p": 2.0'),
])
def test_one_target_has_one_report_spelling(args, spellings, echo):
    # a value takes its parameter's type, so the echo cannot tell how it was typed
    one, other = (run_cli(*args, "--params", spelling, "--format", "json")
                  for spelling in spellings)
    assert one.returncode == 0, one.stderr
    assert (other.returncode, other.stdout) == (0, one.stdout)
    assert echo in one.stdout


def test_an_unknown_config_parameter_is_rejected_beside_flag_params(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("params = c=3\n")
    r = run_cli("check", "--catalog", "clamp", "--config", str(cfg),
                "--params", "lo=-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "ouro: error: clamp does not take parameter 'c'\n"


def test_bad_weights_name_the_flag():
    r = run_cli("check", "--catalog", "weighted_mean", "--w", "abc")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "ouro: error: bad --w: 'abc'\n"


def test_check_sample_options():
    r = run_cli("check", "--expr", "abs(x)", "--samples", "16", "--seed", "7",
                "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["plan"]["sample_count"] == 16
    assert doc["plan"]["seed"] == 7
    assert doc["membership"]["samples_evaluated"] == 16


@pytest.mark.parametrize("argv", [
    ["check", "--catalog", "min_all", "--n", "1000", "--samples", "8"],
    ["derive", "--catalog", "arith_mean", "--n", "1000", "--samples", "4"],
])
def test_deeply_nested_catalog_formulas_reach_a_verdict(argv):
    # 999 nested min calls, and a sum of 1000 terms
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().endswith("overall: PASS\n")


# --- derive --------------------------------------------------------------------

def test_derive_mean_passes():
    r = run_cli("derive", "--catalog", "arith_mean", "--n", "2",
                "--samples", "32")
    assert r.returncode == 0
    assert "overall: PASS" in r.stdout
    assert "sum_to_one 32/0/0" in r.stdout
    assert "equal_shares 32/0/0" in r.stdout


def test_derive_weighted_mean_fails_equal_shares():
    r = run_cli("derive", "--catalog", "weighted_mean", "--w", "0.3,0.7",
                "--samples", "16", "--format", "json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["overall"] == "FAIL"
    assert len(doc["reports"]) == 16
    for report in doc["reports"]:
        assert report["sum_to_one"] == "PASS"
        assert report["equal_shares"] == "FAIL"
        assert report["shares"] == [0.3, 0.7]


def test_derive_at_a_point():
    r = run_cli("derive", "--expr", "(x1 + x2) / 2", "--point", "1.5,-2.5",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["point"] == [1.5, -2.5]
    assert doc["reports"][0]["shares"] == [0.5, 0.5]


def test_derive_point_validation():
    r = run_cli("derive", "--expr", "(x1 + x2) / 2", "--point", "1.5")
    assert r.returncode == 2
    r = run_cli("derive", "--expr", "(x1 + x2) / 2", "--point", "1.5,99.0")
    assert r.returncode == 2
    assert "outside the box" in r.stderr
    r = run_cli("derive", "--expr", "x", "--point", "nan")
    assert r.returncode == 2
    assert "not finite" in r.stderr
    # the point is checked before membership, so a non-member's FAIL
    # report does not hide a malformed or misplaced point
    r = run_cli("derive", "--expr", "x / 2", "--point", "abc")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "bad --point" in r.stderr
    r = run_cli("derive", "--expr", "x / 2", "--point", "99")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "outside the box" in r.stderr


@pytest.mark.parametrize("args", [
    ("derive", "--expr", "(x+y)/2", "--box", "0:1", "--box", "5:6",
     "--skip-membership"),
    ("check", "--expr", "(x+y)/2", "--box", "0:1", "--box", "5:6"),
    ("check", "--catalog", "arith_mean", "--n", "2", "--box", "0:1",
     "--box", "5:6"),
])
def test_ragged_box_is_a_usage_error(args):
    # f(f(x), f(x)) only types on A^n: the target is refused before sampling
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "ouro: error: self-application needs a uniform box A^n\n"


def test_derive_median_is_degenerate_not_failing():
    r = run_cli("derive", "--catalog", "median", "--samples", "8",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["overall"] == "DEGENERATE"
    for report in doc["reports"]:
        assert report["degenerate_reason"] == "kink_diagonal"
        assert report["sum_to_one"] == "DEGENERATE"


def test_strict_degenerate_turns_warning_into_failure():
    r = run_cli("derive", "--catalog", "median", "--samples", "8",
                "--strict-degenerate")
    assert r.returncode == 1


def test_derive_gates_on_membership():
    r = run_cli("derive", "--expr", "x / 2", "--format", "json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["membership"]["status"] == "FAIL"
    assert doc["reports"] == []
    r = run_cli("derive", "--expr", "x / 2", "--skip-membership",
                "--samples", "4", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["membership"] is None
    assert len(doc["reports"]) == 4


def test_derive_fd_method():
    r = run_cli("derive", "--catalog", "geo_mean", "--n", "2",
                "--method", "fd", "--samples", "16", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["method"] == "fd"
    assert all(rep["tol"] == 1e-4 for rep in doc["reports"])


def test_derive_fd_at_a_domain_edge_differences_one_side():
    # x - h leaves sqrt's domain, so fd looks up only, as dual needs not
    for method in ("dual", "fd"):
        r = run_cli("derive", "--expr", "sqrt(x)^2", "--box", "0:1",
                    "--method", method, "--point", "1e-8", "--format", "json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["reports"][0]["sum_to_one"] == "PASS"


def test_derive_sweep_domain_fault_exits_3():
    # an evaluation fault inside the sweep is a domain error, not a usage
    # error, just as it is at a single --point
    r = run_cli("derive", "--expr", "ln(x)", "--box=-10:10",
                "--skip-membership", "--samples", "64")
    assert r.returncode == 3
    assert "ln of a non-positive number" in r.stderr
    r = run_cli("derive", "--expr", "ln(x)", "--box=-10:10",
                "--skip-membership", "--point=-3")
    assert r.returncode == 3
    assert "ln of a non-positive number" in r.stderr
    # one non-finite derivative ends the whole sweep, with no report
    r = run_cli("derive", "--expr", "exp(x^2)", "--box=26.62:26.64",
                "--skip-membership", "--samples", "4")
    assert r.returncode == 3
    assert "derivative is not finite in 'exp(x^2)'" in r.stderr
    assert r.stdout == ""
    # a --point on a kink of the outer gradient has no derivative at all
    r = run_cli("derive", "--expr", "abs(x)", "--point", "0")
    assert r.returncode == 3
    assert r.stderr == "ouro: error: derivative undefined: abs at its corner 0\n"


ALL_SKIPPED = ("derive", "--expr", "clamp(x,0,1)", "--box", "0:1",
               "--samples", "3", "--kink-margin", "0.6")


def test_a_sweep_that_checked_no_point_is_degenerate():
    # the kink margin covers the whole box, so every draw is skipped
    r = run_cli(*ALL_SKIPPED, "--format", "json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["reports"] == [] and doc["points_skipped"] == 3
    assert doc["overall"] == "DEGENERATE"
    r = run_cli(*ALL_SKIPPED)
    assert r.returncode == 0
    assert r.stdout.splitlines()[-2:] == [
        "summary: points=0 skipped=3 | sum_to_one 0/0/0 (pass/fail/degenerate)"
        " | equal_shares 0/0/0",
        "overall: DEGENERATE"]
    r = run_cli(*ALL_SKIPPED, "--strict-degenerate", "--format", "json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["overall"] == "DEGENERATE"


def test_derive_rejects_vector_targets():
    r = run_cli("derive", "--catalog", "box_clamp")
    assert r.returncode == 2
    assert "scalar" in r.stderr


# --- enumerate -----------------------------------------------------------------

def test_enumerate_text():
    r = run_cli("enumerate", "--m", "3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "count: 10"
    assert lines[2] == "0 0 0"
    assert len(lines) == 12


def test_enumerate_json():
    r = run_cli("enumerate", "--m", "3", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["m"] == 3
    assert doc["count"] == 10
    assert doc["maps"][0] == [0, 0, 0]
    assert len(doc["maps"]) == 10


def test_enumerate_csv():
    r = run_cli("enumerate", "--m", "2", "--format", "csv")
    assert r.stdout == "# m=2 count=3\n0,0\n0,1\n1,1\n"


def test_enumerate_count_only_reaches_larger_domains():
    r = run_cli("enumerate", "--m", "12", "--count-only", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["count"] == 157329097
    assert doc["maps"] is None


def test_enumerate_limit_errors():
    assert run_cli("enumerate", "--m", "8").returncode == 2
    assert run_cli("enumerate", "--m", "0").returncode == 2
    assert run_cli("enumerate").returncode == 2


def test_enumerate_without_m_names_the_flag():
    r = run_cli("enumerate")
    assert r.returncode == 2
    assert r.stderr == "ouro: error: --m is required\n"


def test_enumerate_takes_m_from_a_config_file(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("m = 3\n")
    r = run_cli("enumerate", "--config", str(cfg))
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[:2] == ["ouro enumerate: m=3", "count: 10"]
    assert len(lines[2:]) == 10


# --- catalog -------------------------------------------------------------------

def test_catalog_text_listing():
    r = run_cli("catalog")
    assert r.returncode == 0
    assert "median" in r.stdout
    assert "flags: s=smooth y=symmetric x=exact_fixed_points" in r.stdout


def test_catalog_json_listing():
    r = run_cli("catalog", "--format", "json")
    doc = json.loads(r.stdout)
    names = [e["name"] for e in doc["entries"]]
    assert len(names) >= 17
    assert "weighted_mean" in names
    entry = next(e for e in doc["entries"] if e["name"] == "weighted_mean")
    assert entry["flags"] == {"smooth": True, "symmetric": False,
                              "exact_fixed_points": False}


# --- text report bytes ------------------------------------------------------------

CHECK_HALF_TEXT = """\
ouro check: expr 'x / 2'
box: [-10.0, 10.0]
plan: samples=8 seed=0 atol=1e-09 rtol=1e-09 k_max=16
membership: FAIL  evaluated=1 skipped=7
  reason: RESIDUAL
  point: (7.6662161642728535,)
  f(x) = 3.8331080821364267
  re-applied = 1.9165540410682134
  residual = -1.9165540410682134
iterated: FAIL  evaluated=1 skipped=7 max_drift=1.9165540410682134
  reason: DRIFT (k=2)
  point: (7.6662161642728535,)
  f(x) = 3.8331080821364267
  re-applied = 1.9165540410682134
  residual = -1.9165540410682134
overall: FAIL
"""

DERIVE_POINT_TEXT = """\
ouro derive: expr 'x'
box: [-10.0, 10.0]
plan: samples=256 seed=0 atol=1e-09 rtol=1e-09 kink_margin=1e-07
method: dual
membership: PASS  evaluated=256 skipped=0
point (0.5,): f=0.5 shares=(1.0,) sum=1.0 sum_to_one=PASS equal_shares=PASS
summary: points=1 skipped=0 | sum_to_one 1/0/0 (pass/fail/degenerate) | \
equal_shares 1/0/0
overall: PASS
"""

DERIVE_MEDIAN_TEXT = """\
ouro derive: catalog median
box: [-10.0, 10.0] x [-10.0, 10.0] x [-10.0, 10.0]
plan: samples=4 seed=0 atol=1e-09 rtol=1e-09 kink_margin=1e-07
method: dual
membership: PASS  evaluated=4 skipped=0
point (7.6662161642728535, -1.3694400590298006, -9.471324568148045): \
f=-1.3694400590298006 shares=- sum=None sum_to_one=DEGENERATE \
equal_shares=DEGENERATE [kink_diagonal]
point (7.433637225591468, -7.453332600048947, -9.700159639400125): \
f=-7.453332600048947 shares=- sum=None sum_to_one=DEGENERATE \
equal_shares=DEGENERATE [kink_diagonal]
point (-7.932650759621467, 4.86727446049616, 3.1537237424923426): \
f=3.1537237424923426 shares=- sum=None sum_to_one=DEGENERATE \
equal_shares=DEGENERATE [kink_diagonal]
point (1.3916609195275704, 3.4316914264716445, 4.4068678621148045): \
f=3.4316914264716445 shares=- sum=None sum_to_one=DEGENERATE \
equal_shares=DEGENERATE [kink_diagonal]
summary: points=4 skipped=0 | sum_to_one 0/0/4 (pass/fail/degenerate) | \
equal_shares 0/0/4
overall: DEGENERATE
"""

ENUMERATE_CSV = """\
# m=3 count=10
0,0,0
0,0,2
0,1,0
0,1,1
0,1,2
0,2,2
1,1,1
1,1,2
2,1,2
2,2,2
"""


@pytest.mark.parametrize("args, code, expected", [
    (("check", "--expr", "x / 2", "--samples", "8"), 1, CHECK_HALF_TEXT),
    (("derive", "--expr", "x", "--point", "0.5"), 0, DERIVE_POINT_TEXT),
    (("derive", "--catalog", "median", "--n", "3", "--samples", "4"), 0,
     DERIVE_MEDIAN_TEXT),
    (("enumerate", "--m", "3", "--format", "csv"), 0, ENUMERATE_CSV),
])
def test_text_report_bytes(args, code, expected):
    r = run_cli(*args)
    assert r.returncode == code
    assert r.stdout == expected


def test_catalog_text_line_bytes():
    lines = run_cli("catalog").stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("weighted_mean "))
    assert lines[i:i + 2] == [
        "weighted_mean            scalar-multivariate  arity n = len(w)   "
        "box [-10.0, 10.0] flags s-- defaults: w=(0.3, 0.7)",
        "                         convex combination sum w_i x_i; "
        "idempotent but not symmetric",
    ]


# --- output and configuration -----------------------------------------------------

def test_out_writes_a_file(tmp_path):
    path = tmp_path / "report.json"
    r = run_cli("check", "--expr", "abs(x)", "--format", "json",
                "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == ""
    doc = json.loads(path.read_text())
    assert doc["overall"] == "PASS"


def test_json_reports_are_byte_identical(tmp_path):
    args = ("check", "--expr", "relu(x)", "--format", "json", "--samples", "64")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    d_args = ("derive", "--catalog", "harmonic_mean", "--format", "json",
              "--samples", "16")
    assert run_cli(*d_args).stdout == run_cli(*d_args).stdout


def test_timestamp_flag_adds_a_timestamp():
    r = run_cli("check", "--expr", "abs(x)", "--format", "json", "--timestamp")
    doc = json.loads(r.stdout)
    assert "timestamp" in doc
    # text and csv carry it as the second line; csv data rows are unchanged
    plain = run_cli("check", "--expr", "abs(x)", "--samples", "8").stdout
    r = run_cli("check", "--expr", "abs(x)", "--samples", "8", "--timestamp")
    lines = r.stdout.splitlines()
    assert lines[1].startswith("timestamp: 20")
    assert lines[:1] + lines[2:] == plain.splitlines()
    r = run_cli("enumerate", "--m", "2", "--format", "csv", "--timestamp")
    lines = r.stdout.splitlines()
    assert lines[1].startswith("# timestamp: 20")
    assert lines[:1] + lines[2:] == ["# m=2 count=3", "0,0", "0,1", "1,1"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("# plan overrides\nsamples = 16\nformat = json\nseed = 3\n")
    r = run_cli("check", "--expr", "abs(x)", "--config", str(cfg))
    doc = json.loads(r.stdout)
    assert doc["plan"]["sample_count"] == 16
    assert doc["plan"]["seed"] == 3


def test_flags_override_the_config(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("samples = 16\n")
    r = run_cli("check", "--expr", "abs(x)", "--config", str(cfg),
                "--samples", "8", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["plan"]["sample_count"] == 8


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("wibble = 3\n")
    r = run_cli("check", "--expr", "abs(x)", "--config", str(cfg))
    assert r.returncode == 2
    assert "unknown config key" in r.stderr


def test_config_rejects_bad_values(tmp_path):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text("samples = many\n")
    r = run_cli("check", "--expr", "abs(x)", "--config", str(cfg))
    assert r.returncode == 2


@pytest.mark.parametrize("line, args", [
    ("samples = many", ("check", "--expr", "abs(x)")),
    ("format = xml", ("check", "--expr", "abs(x)")),
    ("format = csv", ("check", "--expr", "abs(x)")),
    ("method = foo", ("derive", "--expr", "x", "--point", "0.5")),
    ("timestamp = maybe", ("check", "--expr", "abs(x)")),
    ("params = d", ("check", "--catalog", "simplex_projection")),
    ("params = d=x", ("check", "--catalog", "simplex_projection")),
    ("box = 1:2:3", ("check", "--expr", "abs(x)")),
    ("box = 0:1 a:b", ("check", "--expr", "abs(x)")),
    ("w = abc", ("check", "--catalog", "weighted_mean")),
])
def test_config_bad_value_message(tmp_path, line, args):
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text(line + "\n")
    r = run_cli(*args, "--config", str(cfg))
    assert r.returncode == 2
    key, _, value = line.partition(" = ")
    assert r.stderr == (f"ouro: error: {cfg}:1: bad value for {key!r}: "
                        f"{value!r}\n")
    assert "Traceback" not in r.stderr


# A valid, non-default value for every option in cli._OPTIONS except
# --config; store_true options are spelled "true" in a config file.
VALID = {
    "expr": "abs(x)", "catalog": "median", "n": "3", "w": "0.3,0.7",
    "params": "d=3", "box": "0:1", "samples": "16", "seed": "7",
    "atol": "1e-6", "rtol": "1e-5", "kmax": "4", "kink_margin": "0.01",
    "m": "3", "count_only": None, "format": "json", "out": "report.txt",
    "timestamp": None, "point": "0.5", "method": "fd",
    "skip_membership": None, "strict_degenerate": None,
}


@pytest.mark.parametrize("command, dest", [
    (command, dest) for dest, commands, _, _ in cli._OPTIONS
    for command in commands if dest != "config"])
def test_config_line_and_flag_give_the_same_options(tmp_path, command, dest):
    value = VALID[dest]
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text(f"{dest} = {'true' if value is None else value}\n")
    flag = ["--" + dest.replace("_", "-")] + ([] if value is None else [value])
    parser = cli._build_parser()
    from_config = cli._effective_options(
        parser.parse_args([command, "--config", str(cfg)]))
    from_flag = cli._effective_options(parser.parse_args([command, *flag]))
    defaults = cli._effective_options(parser.parse_args([command]))
    assert from_config.pop("config") == str(cfg)
    assert from_flag.pop("config") is None
    assert from_config == from_flag
    assert from_flag[dest] != defaults[dest]


@pytest.mark.parametrize("command", ["check", "derive", "enumerate", "catalog"])
def test_help_lists_each_option_once(command):
    r = run_cli(command, "--help")
    assert r.returncode == 0
    listed = re.findall(r"^  (--[a-z-]+)", r.stdout, re.M)
    expected = ["--" + dest.replace("_", "-")
                for dest, commands, _, _ in cli._OPTIONS if command in commands]
    assert sorted(listed) == sorted(expected)


# For every (command, dest) of cli._OPTIONS except config: an argv without
# the option, and the arguments that add it.
JSON = ["--format", "json"]
PROBES = {
    ("check", "expr"): (["check", "--samples", "8", *JSON], ["--expr", "x"]),
    ("check", "catalog"): (["check", "--samples", "8", *JSON],
                           ["--catalog", "abs"]),
    ("check", "n"): (["check", "--catalog", "arith_mean", "--samples", "8", *JSON],
                     ["--n", "4"]),
    ("check", "w"): (["check", "--catalog", "weighted_mean", "--samples", "8",
                      *JSON], ["--w", "0.1,0.9"]),
    ("check", "params"): (["check", "--catalog", "power_mean", "--samples", "8",
                           *JSON], ["--params", "p=3"]),
    ("check", "box"): (["check", "--expr", "abs(x)", "--samples", "8", *JSON],
                       ["--box", "0:1"]),
    ("check", "samples"): (["check", "--expr", "abs(x)", *JSON],
                           ["--samples", "8"]),
    ("check", "seed"): (["check", "--expr", "x / 2", "--samples", "8", *JSON],
                        ["--seed", "7"]),
    ("check", "atol"): (["check", "--expr", "x+1e-8", *JSON], ["--atol", "1e-6"]),
    ("check", "rtol"): (["check", "--expr", "x+1e-8", *JSON], ["--rtol", "1e-3"]),
    ("check", "kmax"): (["check", "--expr", "x+1e-10", *JSON], ["--kmax", "4"]),
    ("check", "format"): (["check", "--expr", "abs(x)", "--samples", "8"], JSON),
    ("check", "out"): (["check", "--expr", "abs(x)", "--samples", "8", *JSON],
                       ["--out", os.devnull]),
    ("check", "timestamp"): (["check", "--expr", "abs(x)", "--samples", "8",
                              *JSON], ["--timestamp"]),
    ("derive", "expr"): (["derive", "--point", "0.5", *JSON], ["--expr", "x"]),
    ("derive", "catalog"): (["derive", "--point", "0.5", *JSON],
                            ["--catalog", "abs"]),
    ("derive", "n"): (["derive", "--catalog", "arith_mean", "--samples", "4",
                       *JSON], ["--n", "4"]),
    ("derive", "w"): (["derive", "--catalog", "weighted_mean", "--samples", "4",
                       *JSON], ["--w", "0.1,0.9"]),
    ("derive", "params"): (["derive", "--catalog", "power_mean", "--samples", "4",
                            *JSON], ["--params", "p=3"]),
    ("derive", "box"): (["derive", "--expr", "x", "--samples", "4", *JSON],
                        ["--box", "0:1"]),
    ("derive", "samples"): (["derive", "--expr", "x", *JSON], ["--samples", "4"]),
    ("derive", "seed"): (["derive", "--expr", "x", "--samples", "4", *JSON],
                         ["--seed", "7"]),
    ("derive", "atol"): (["derive", "--expr", "x+1e-8", "--samples", "4", *JSON],
                         ["--atol", "1e-6"]),
    ("derive", "rtol"): (["derive", "--expr", "x+1e-8", "--samples", "4", *JSON],
                         ["--rtol", "1e-3"]),
    ("derive", "kink_margin"): (["derive", "--catalog", "abs", "--samples", "64",
                                 *JSON], ["--kink-margin", "0.5"]),
    ("derive", "format"): (["derive", "--expr", "x", "--point", "0.5"], JSON),
    ("derive", "out"): (["derive", "--expr", "x", "--point", "0.5", *JSON],
                        ["--out", os.devnull]),
    ("derive", "timestamp"): (["derive", "--expr", "x", "--point", "0.5", *JSON],
                              ["--timestamp"]),
    ("derive", "point"): (["derive", "--expr", "x", "--samples", "4", *JSON],
                          ["--point", "0.5"]),
    ("derive", "method"): (["derive", "--expr", "x", "--point", "0.5", *JSON],
                           ["--method", "fd"]),
    ("derive", "skip_membership"): (["derive", "--expr", "x / 2", "--samples", "4",
                                     *JSON], ["--skip-membership"]),
    ("derive", "strict_degenerate"): (["derive", "--catalog", "median",
                                       "--samples", "8", *JSON],
                                      ["--strict-degenerate"]),
    ("enumerate", "m"): (["enumerate", *JSON], ["--m", "3"]),
    ("enumerate", "count_only"): (["enumerate", "--m", "3", *JSON],
                                  ["--count-only"]),
    ("enumerate", "format"): (["enumerate", "--m", "3"], JSON),
    ("enumerate", "out"): (["enumerate", "--m", "3", *JSON], ["--out", os.devnull]),
    ("enumerate", "timestamp"): (["enumerate", "--m", "3", *JSON],
                                 ["--timestamp"]),
    ("catalog", "format"): (["catalog"], JSON),
    ("catalog", "out"): (["catalog", *JSON], ["--out", os.devnull]),
    ("catalog", "timestamp"): (["catalog", *JSON], ["--timestamp"]),
}


def _outcome(argv):
    """The exit code and stdout of one in-process run, stdout as its JSON
    document without the plan echo when it is one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        return code, out.getvalue()
    doc.pop("plan", None)
    return code, doc


def test_every_option_changes_its_command():
    assert set(PROBES) == {(command, dest) for dest, commands, _, _ in cli._OPTIONS
                           for command in commands if dest != "config"}
    for (command, dest), (argv, option) in PROBES.items():
        assert "--" + dest.replace("_", "-") in option
        assert _outcome(argv) != _outcome(argv + option), (command, dest)


@pytest.mark.parametrize("command, dest, value", [
    ("check", "kink_margin", "0.1"), ("check", "strict_degenerate", None),
    ("derive", "kmax", "4")])
def test_options_a_command_never_reads_are_not_accepted(tmp_path, command,
                                                        dest, value):
    flag = ["--" + dest.replace("_", "-")] + ([] if value is None else [value])
    r = run_cli(command, "--expr", "x", *flag)
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    cfg = tmp_path / "ouro.cfg"
    cfg.write_text(f"{dest} = {'true' if value is None else value}\n")
    r = run_cli(command, "--expr", "x", "--config", str(cfg))
    assert r.returncode == 2
    assert r.stderr == f"ouro: error: {cfg}:1: unknown config key {dest!r}\n"


def test_missing_config_file():
    r = run_cli("check", "--expr", "abs(x)", "--config", "/nonexistent.cfg")
    assert r.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check", "--format", "yaml", "--expr", "x").returncode == 2


# --- start-up -------------------------------------------------------------------

# With block_numpy, sys.modules["numpy"] = None makes every import of numpy
# fail, as if it were not installed.
_NUMPY_PROBE = """
import contextlib, io, json, sys
lines, block_numpy = json.loads(sys.argv[1])
if block_numpy:
    sys.modules["numpy"] = None
from ouro.cli import main
for line in lines:
    if isinstance(line, str):  # a library call
        exec(line)
        continue
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(line) == 0, line
print(sys.modules.get("numpy") is not None)
"""

_VECTOR_CHECKS = [["check", "--catalog", name, "--samples", "16"]
                  for name in ("box_clamp", "l2_ball_projection",
                               "hyperplane_projection", "simplex_projection")]


@pytest.mark.parametrize("lines, block_numpy", [
    ([["check", "--expr", "abs(x)"],
      ["derive", "--expr", "(x1 + x2) / 2", "--point", "1,2"],
      ["enumerate", "--m", "3"],
      ["catalog"],
      *_VECTOR_CHECKS], False),
    # numpy is a test dependency only: every command and a library check
    # of a plain tuple operator run where it cannot be imported
    ([["catalog"],
      ["enumerate", "--m", "4"],
      ["check", "--expr", "abs(x)", "--samples", "8"],
      ["check", "--catalog", "median", "--n", "3", "--samples", "8"],
      ["derive", "--catalog", "arith_mean", "--n", "3", "--samples", "8"],
      ["derive", "--catalog", "arith_mean", "--n", "3", "--method", "fd",
       "--samples", "8"],
      *_VECTOR_CHECKS,
      "from ouro import DomainBox, SamplePlan, Status, check_iterated\n"
      "v = check_iterated(lambda x: tuple(min(max(t, 0.0), 1.0) for t in x),\n"
      "                   DomainBox.uniform(-1.0, 2.0, 2), SamplePlan())\n"
      "assert v.status is Status.PASS, v"],
     True),
])
def test_only_vector_operators_load_numpy(lines, block_numpy):
    # no line loads numpy, and with numpy blocked every line still runs
    r = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                        json.dumps([lines, block_numpy])],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


# A scalar command needs neither code introspection (dataclasses pulls in
# inspect, ast, dis and tokenize) nor datetime, which only --timestamp uses.
_STARTUP_PROBE = """
import contextlib, io, json, sys
from ouro.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize",
                  "datetime"} & set(sys.modules)))
print("timestamp" in json.loads(out.getvalue()))
"""


def test_scalar_commands_start_without_introspection_modules():
    lines = [["check", "--expr", "abs(x)", "--samples", "8"],
             ["derive", "--catalog", "geo_mean", "--samples", "8"],
             ["enumerate", "--m", "4"],
             ["catalog"],
             ["check", "--expr", "abs(x)", "--samples", "8", "--format",
              "json", "--timestamp"]]
    r = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(lines)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]"] * 4 + ["['datetime']", "True"]


# The names the package re-exported when it imported every submodule
# eagerly; catalog's, deriv's and finite's are now read on first use.
LAZY_EXPORTS = {
    "catalog": ("CatalogEntry", "CatalogError", "ScalarInstance",
                "VectorInstance", "entry_names", "get_entry", "instantiate",
                "list_entries"),
    "deriv": ("GRADIENT_FLOOR", "KINK_RETRY_LIMIT", "TOL_UNITY",
              "KinkPointError", "UnityReport", "UnitySweep", "check_unity",
              "dual_eval", "fd_partial", "gradient", "unity_sweep"),
    "finite": ("COUNT_LIMIT", "ENUMERATION_LIMIT", "FiniteEndofunction",
               "count_idempotent", "enumerate_idempotent",
               "image_fixing_holds", "is_idempotent", "iterate"),
}
EAGER_EXPORTS = (
    "BUILTIN_ARITY", "BinOp", "Call", "Const", "EvalDomainError",
    "EvaluationError", "Expr", "Neg", "ParseError", "UnboundVariableError",
    "Var", "evaluate", "format_expr", "free_variables", "parse",
    "DEFAULT_INTERVAL", "DomainBox", "SamplePlan", "Status", "Verdict",
    "Witness", "check_iterated", "check_membership", "unit_uniform")

# Runs stages of command lines; after each stage, prints which exported
# names each lazy module's dict holds (read without loading the module),
# whether json is loaded, and the exit code and stdout of every line.  It
# passes data by repr, so that only the JSON report loads json.
_LAZY_PROBE = """
import ast, contextlib, io, sys
from ouro.cli import main
stages, exports = map(ast.literal_eval, sys.argv[1:])
for stage in stages:
    outputs = []
    for argv in stage:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            outputs.append((main(argv), out.getvalue()))
    held = {m: [name for name in names if name in object.__getattribute__(
                sys.modules["ouro." + m], "__dict__")]
            for m, names in exports.items()}
    print(repr((held, "json" in sys.modules, outputs)))
"""


def test_each_command_loads_only_the_modules_it_runs():
    stages = [[["check", "--expr", "abs(x)", "--samples", "8"],
               ["check", "--expr", "ln(x)", "--box=-10:-1", "--samples", "8"]],
              [["check", "--expr", "abs(x)", "--samples", "8", *JSON]],
              [["enumerate", "--m", "4"]],
              # derive lines that stop before any derivative is taken: a
              # membership FAIL, a usage error and a domain fault
              [["derive", "--expr", "x + 1", "--samples", "8"],
               ["derive", "--catalog", "simplex_projection"],
               ["derive", "--expr", "ln(x)", "--box=-2:-1", "--samples", "8"]],
              [["derive", "--expr", "x", "--point", "0.5"],
               ["enumerate", "--m", "3", "--format", "csv"],
               ["catalog"]]]
    runs = {}
    for prelude in ("", "import ouro.catalog, ouro.deriv, ouro.finite"):
        r = subprocess.run([sys.executable, "-c", prelude + _LAZY_PROBE,
                            repr(stages), repr(LAZY_EXPORTS)],
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        runs[prelude] = [ast.literal_eval(line) for line in r.stdout.splitlines()]
    lazy, eager = runs.values()
    none = {m: [] for m in LAZY_EXPORTS}
    every = {m: list(names) for m, names in LAZY_EXPORTS.items()}
    assert [held for held, _, _ in lazy] == [
        none, none, {**none, "finite": every["finite"]},
        {**every, "deriv": []}, every]
    assert [json_loaded for _, json_loaded, _ in lazy] == [False, True, True,
                                                          True, True]
    # a module loaded mid-process gives the bytes of one loaded at start
    assert [outputs for *_, outputs in lazy] == [outputs for *_, outputs in eager]
    assert [[code for code, _ in outputs] for *_, outputs in lazy] == [
        [0, 3], [0], [0], [1, 2, 3], [0, 0, 0]]
    derive, enumerate_csv, _ = lazy[4][2]
    assert derive[1] == DERIVE_POINT_TEXT
    assert enumerate_csv[1] == ENUMERATE_CSV


def test_the_package_exports_every_name_it_did():
    import ouro
    for name in EAGER_EXPORTS:
        assert hasattr(ouro, name) and name in dir(ouro), name
    for module, names in LAZY_EXPORTS.items():
        sub = sys.modules["ouro." + module]
        assert sub is getattr(ouro, module)
        assert sorted(names) == sorted(sub.__all__)
        for name in names:
            assert getattr(ouro, name) is getattr(sub, name)
            assert name in dir(ouro)
    with pytest.raises(AttributeError):
        ouro.no_such_name
    star: dict = {}
    exec("from ouro import *", star)
    assert {*EAGER_EXPORTS, *LAZY_EXPORTS}.union(*LAZY_EXPORTS.values()) <= star.keys()
    probe = ("import ouro.deriv\n"
             "from ouro.catalog import instantiate\n"
             "from ouro import gradient, TOL_UNITY\n"
             "assert ouro.deriv.gradient is gradient\n"
             "print(instantiate('abs').entry.name, sorted(TOL_UNITY))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "abs ['dual', 'fd']\n"


def test_option_values_written_out_in_cli_match_their_modules():
    from ouro.deriv import TOL_UNITY
    from ouro.finite import COUNT_LIMIT
    assert cli._rows("derive")["method"][1]["choices"] == tuple(TOL_UNITY)
    help_text = cli._rows("enumerate")["count_only"][1]["help"]
    assert help_text.endswith(f"(m up to {COUNT_LIMIT})")


# --- JSON row writer ------------------------------------------------------------

# Leaves whose json spelling differs from a plain repr, or that sit at the
# edges of what repr writes.
AWKWARD = (-0.0, 0.0, 5e-324, 1e308, -1e-300, math.nan, math.inf, -math.inf)


def _derive_body(rng, n: int, rows: int) -> dict:
    def leaf():
        return rng.choice(AWKWARD) if rng.random() < 0.3 else rng.uniform(-9, 9)

    def leaves():
        return tuple(leaf() for _ in range(n))

    statuses, reasons = list(Status), [None, "zero_gradient", "kink_diagonal"]
    reports = [cli._unity_doc(UnityReport(
        n, leaves(), leaf(), leaves(),
        None if rng.random() < 0.3 else leaves(),
        None if rng.random() < 0.3 else leaf(),
        rng.choice(statuses), rng.choice(statuses), rng.choice(["dual", "fd"]),
        leaf(), rng.choice(reasons))) for _ in range(rows)]
    return {"target": {"expr": "x % 2"}, "box": [(-1.0, 1.0)] * n,
            "plan": {"seed": 0, "sample_count": rows}, "method": "dual",
            "membership": None, "reports": reports,
            "points_skipped": rng.randrange(3), "overall": Status.PASS}


def _row_documents():
    rng = random.Random(20261018)
    for n in range(1, 13):
        for rows in (0, 1, 7):
            yield "derive", _derive_body(rng, n, rows)
    for m in range(1, 8):
        yield "enumerate", {"m": m, "count": 0, "maps": [
            f.table for f in enumerate_idempotent(m)]}
    yield "enumerate", {"m": 3, "count": 10, "maps": []}
    yield "enumerate", {"m": 20, "count": 0, "maps": None}


def test_json_rows_are_written_as_json_dumps_writes_them():
    for command, body in _row_documents():
        doc = {"schema_version": cli.SCHEMA_VERSION, "command": command, **body}
        assert cli._json(doc) == json.dumps(doc, indent=2), (command, body)


def test_json_rows_with_timestamp_and_out(tmp_path):
    path = tmp_path / "report.json"
    for command, body in _row_documents():
        cli._emit(command, body, {"format": "json", "timestamp": True,
                                  "out": str(path)})
        text = path.read_text(encoding="utf-8")
        doc = {"schema_version": cli.SCHEMA_VERSION, "command": command,
               "timestamp": json.loads(text)["timestamp"], **body}
        assert text == json.dumps(doc, indent=2) + "\n"
