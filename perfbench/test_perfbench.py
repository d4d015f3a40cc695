"""Tests of the benchmark itself: python -m pytest perfbench"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ouro.catalog import entry_names  # noqa: E402
from ouro.verify import unit_uniform  # noqa: E402

SEEDS = range(5)


def _all_commands():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for cmd in workloads.generate(name, seed):
                yield name, cmd


def test_generation_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_every_command_states_its_answer():
    for _, cmd in _all_commands():
        if cmd.argv[0] in ("check", "derive"):
            if cmd.verdict is None:
                assert cmd.note == workloads.UNCHECKED_OPERATOR
                assert cmd.exit_code is None
            else:
                assert cmd.exit_code == workloads.EXIT_CODES[cmd.verdict]
        elif cmd.argv[0] == "enumerate":
            assert cmd.exit_code == 0 and cmd.count is not None
        else:
            assert cmd.argv[0] == "catalog" and cmd.names


def test_catalog_names_used_exist():
    known = set(entry_names())
    assert set(workloads.CHECK_VERDICTS) <= known
    assert set(workloads.DERIVE_VERDICTS) <= known
    for _, cmd in _all_commands():
        if "--catalog" in cmd.argv:
            assert cmd.argv[cmd.argv.index("--catalog") + 1] in known


def test_hyperplane_projection_is_timed_but_unchecked():
    cmds = workloads.generate("check-pass", 0)
    (cmd,) = [c for c in cmds if "hyperplane_projection" in c.argv]
    assert cmd.verdict is None and cmd.note == "unchecked: ROADMAP item 4"
    assert workloads.check_output(cmd, 0, "anything") is None
    assert workloads.check_output(cmd, None, "") is not None


def test_idempotent_count_matches_brute_force():
    for m in range(1, 6):
        brute = sum(all(t[t[x]] == t[x] for x in range(m))
                    for t in itertools.product(range(m), repeat=m))
        assert workloads.idempotent_count(m) == brute
    assert workloads.idempotent_count(7) == 6322


def test_slab_sampler_replica_matches_ouro():
    for seed in (0, 1, 12345, 2**31 - 1):
        for i in (0, 1, 999, 54321):
            assert workloads._unit_uniform(seed, i) == unit_uniform(seed, i)


def test_thin_slab_first_violation_is_in_band():
    for seed in SEEDS:
        for cmd in workloads.generate("interactive", seed):
            if cmd.kind != "check thin-slab":
                continue
            expr = cmd.argv[1]
            edge = float(expr.rstrip(")").split()[-1])
            ouro_seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
            index = workloads.first_slab_index(ouro_seed, edge, 10**5)
            lo, hi = workloads.SLAB_BAND
            assert lo <= index < hi
            x = -10.0 + unit_uniform(ouro_seed, index) * 20.0
            assert ("x + relu" in expr) == (x > 0)


def test_check_output_detects_mismatches():
    check = workloads.Command("c", ("check", "--format", "json"), "PASS", 0)
    assert workloads.check_output(check, 0, json.dumps({"overall": "PASS"})) is None
    assert "verdict" in workloads.check_output(check, 0, '{"overall": "FAIL"}')
    assert "exit code" in workloads.check_output(check, 1, '{"overall": "PASS"}')
    assert "unreadable" in workloads.check_output(check, 0, "not json")

    enum = workloads.Command("e", ("enumerate", "--m", "2", "--format", "csv"),
                             exit_code=0, count=3, listed=True)
    assert workloads.check_output(enum, 0, "# m=2 count=3\n0,0\n0,1\n1,1\n") is None
    assert "listed" in workloads.check_output(enum, 0, "# m=2 count=3\n0,0\n")
    text = workloads.Command("e", ("enumerate", "--m", "2"), exit_code=0,
                             count=3, listed=True)
    assert workloads.check_output(
        text, 0, "ouro enumerate: m=2\ncount: 3\n0 0\n0 1\n1 1\n") is None
    assert "count" in workloads.check_output(text, 0, "ouro enumerate: m=2\ncount: 4\n")


def _synthetic_spans():
    main, evaluate, membership = (spans.NAMES.index(n) for n in
                                  ("cli.main", "expr.evaluate", "verify.membership"))
    # main [0, 100] > membership [10, 40] > evaluate [15, 25]; evaluate [50, 90]
    return {"name": np.array([main, membership, evaluate, evaluate], np.int32),
            "start": np.array([0, 10, 15, 50], np.int64),
            "end": np.array([100, 40, 25, 90], np.int64),
            "parent": np.array([-1, 0, 1, 0], np.int32),
            "cmd": np.array([0, 0, 0, 0], np.int32)}


def test_self_time_arithmetic():
    s = _synthetic_spans()
    own = spans.self_times(s["start"], s["end"], s["parent"])
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0]
    assert own.sum() == s["end"][0] - s["start"][0]
    totals = spans.layer_totals(s)
    assert totals["expr.evaluate"] == (2, 50 / 1e6)
    assert totals["cli.main"] == (1, 30 / 1e6)


def test_nesting_check():
    s = _synthetic_spans()
    assert spans.nesting_errors(**s) == 0
    s["end"][2] = 45  # child outlives its parent
    assert spans.nesting_errors(**s) == 1
    s = _synthetic_spans()
    s["cmd"][3] = 1  # child of another command
    assert spans.nesting_errors(**s) == 1
    s = _synthetic_spans()
    s["parent"][1] = -1  # a root that is not cli.main
    assert spans.nesting_errors(**s) == 1


def test_recorder_restores_wrapped_functions():
    import ouro.cli
    import ouro.verify
    before = (ouro.verify.evaluate, ouro.verify.DomainBox.__dict__["sample_point"],
              ouro.cli.check_membership)
    rec = spans.Recorder()
    rec.install()
    assert ouro.verify.evaluate is not before[0]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert ouro.cli.main(["check", "--expr", "abs(x)", "--samples", "4"]) == 0
    finally:
        rec.uninstall()
    after = (ouro.verify.evaluate, ouro.verify.DomainBox.__dict__["sample_point"],
             ouro.cli.check_membership)
    assert after == before
    a = rec.arrays()
    assert spans.nesting_errors(**a) == 0
    totals = spans.layer_totals(a)
    assert totals["cli.main"][0] == 1
    assert totals["expr.evaluate"][0] == 4 * (2 + 16)
    assert totals["verify.sample"][0] == 8


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings.utf_8",
        "import time:       200 |        300 | encodings",
        "import time:      5000 |       9000 |   numpy",
        "import time:       700 |        700 |   ouro.expr",
        "import time:       300 |      10000 | ouro",
        "import time:        50 |         50 | ouro.cli",
    ])
    assert run.parse_importtime(text) == {
        "import.total_ms": 10.35, "import.numpy_ms": 9.0,
        "import.ouro_self_ms": 1.05}


def test_tail_leaves_ten_beyond():
    fraction = run.tail_fraction(100)
    assert fraction == 0.9
    assert run.tail(list(range(100)), fraction) == 89
    for n in range(100, 400):  # more samples keep at least ten beyond
        k = run.tail(list(range(n)), fraction)
        assert n - 1 - k >= 10 and n - 1 - k < 10 + n / 10
    assert run.tail([3.0, 1.0], run.tail_fraction(2)) == 1.0


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(monkeypatch, capsys, trace, kind):
    cmds = workloads.generate("interactive", 0)
    small = [c for c in cmds if c.kind in ("check member", "enumerate",
                                           "derive --point median")][:4]
    monkeypatch.setattr(workloads, "generate", lambda name, seed: small)
    assert run.main(["--workload", "interactive", "--seed", "0",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(small)
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == _declared(kind)
    for name in units:
        assert any(line.startswith(name + " ") for line in out[:-1]), name
    if trace == 0:
        assert any(line.startswith("error_rate 0.0 ") for line in out)
