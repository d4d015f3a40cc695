"""Tests of tools/same_bytes.py, the replay that compares two source trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

_spec = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_a_tree_replays_the_same_bytes_as_itself():
    argvs = [["check", "--expr", "abs(x)", "--samples", "4"],
             ["check", "--expr", "x +"],
             ["derive", "--expr", "ln(x)", "--box=-10:-1", "--point=-3"]]
    first = same_bytes.replay(SRC, argvs)
    second = same_bytes.replay(SRC, argvs)
    assert [code for code, _, _ in first] == [0, 2, 3]
    assert "overall: PASS" in first[0][1]
    assert first[1][2].startswith("ouro: error: bad --expr")
    assert all(same_bytes.differences(a, b) == []
               for a, b in zip(first, second))


def test_differences_name_the_exit_code_and_each_stream():
    old = [0, "head\nsame\nold\n", ""]
    new = [2, "head\nsame\nnew\n", "ouro: error: x\n"]
    assert same_bytes.differences(old, new) == [
        "  exit 0 -> 2",
        "  stdout:", "    @@ -3 +3 @@", "    -old", "    +new",
        "  stderr:", "    @@ -0,0 +1 @@", "    +ouro: error: x"]


def test_command_lines_cover_every_workload_at_both_seeds():
    tags = {tag for tag, _ in same_bytes.command_lines()}
    assert tags == {f"{w}:{s}" for w in ("check-pass", "derive-sweep",
                                         "interactive") for s in (0, 1)}


def test_usage_without_two_source_trees(capsys):
    assert same_bytes.main([SRC]) == 2
    assert same_bytes.main([SRC, str(ROOT)]) == 2
    assert "OLD_SRC NEW_SRC" in capsys.readouterr().err
