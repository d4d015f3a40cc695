"""End-to-end tests of the ouro command line, run as subprocesses."""

import json
import subprocess
import sys

import pytest


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


def test_missing_config_file():
    r = run_cli("check", "--expr", "abs(x)", "--config", "/nonexistent.cfg")
    assert r.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check", "--format", "yaml", "--expr", "x").returncode == 2
