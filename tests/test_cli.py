"""End-to-end tests of the ouro command line, run as subprocesses.

The option-table tests also call the parser and the config loader of
`ouro.cli` in-process, to compare the options they produce."""

import json
import re
import subprocess
import sys

import pytest

from ouro import cli


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
    assert "note" in doc["target"]
    assert doc["overall"] == "PASS"


def test_check_negative_box_spelling():
    r = run_cli("check", "--expr", "clamp(x, -1, 1)", "--box=-5:5")
    assert r.returncode == 0


def test_check_single_box_replicates():
    r = run_cli("check", "--expr", "(x1 + x2 + x3) / 3", "--box", "1:2",
                "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["box"] == [[1.0, 2.0]] * 3


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


def test_check_sample_options():
    r = run_cli("check", "--expr", "abs(x)", "--samples", "16", "--seed", "7",
                "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["plan"]["sample_count"] == 16
    assert doc["plan"]["seed"] == 7
    assert doc["membership"]["samples_evaluated"] == 16


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
plan: samples=8 seed=0 atol=1e-09 rtol=1e-09 kink_margin=1e-07 k_max=16
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
plan: samples=256 seed=0 atol=1e-09 rtol=1e-09 kink_margin=1e-07 k_max=16
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
plan: samples=4 seed=0 atol=1e-09 rtol=1e-09 kink_margin=1e-07 k_max=16
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


def test_missing_config_file():
    r = run_cli("check", "--expr", "abs(x)", "--config", "/nonexistent.cfg")
    assert r.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check", "--format", "yaml", "--expr", "x").returncode == 2
