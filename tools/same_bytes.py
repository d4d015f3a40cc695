"""Replay the benchmark's command lines on two source trees and print every
line whose exit code, stdout or stderr differs between them.

    python tools/same_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold an `ouro` package, such as
the `src/` of this checkout and the `src/` of an older commit unpacked with
`git archive`.  The command lines are every `perfbench.workloads.generate`
line of every workload at seeds 0 and 1, taken from this checkout.  Each
tree runs in one child process, which imports that tree's `ouro.cli` and
calls `main` on each line in turn, so a replay costs one interpreter start
per tree.  Exit status: 0 when every line gives the same bytes, 1 when any
differs, 2 on bad arguments.
"""

from __future__ import annotations

import difflib
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)

# Runs in the child: argv lists on stdin, one [code, stdout, stderr] per
# line on stdout.  A crash is recorded as code None with its last line.
_CHILD = r"""
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from ouro import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = None
            err.write(traceback.format_exception_only(type(exc), exc)[-1])
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def command_lines() -> list[tuple[str, list[str]]]:
    """(workload:seed, argv) for every generated line."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [(f"{workload}:{seed}", list(cmd.argv))
            for workload in workloads.WORKLOADS for seed in SEEDS
            for cmd in workloads.generate(workload, seed)]


def replay(src: str, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argv, run on the tree at `src`."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(src).resolve())],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"replay on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(old: list, new: list) -> list[str]:
    """What differs between two [code, stdout, stderr] results."""
    out = []
    if old[0] != new[0]:
        out.append(f"  exit {old[0]} -> {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            out.append(f"  {name}:")
            out += ["    " + line.rstrip("\n") for line in difflib.unified_diff(
                a.splitlines(), b.splitlines(), lineterm="", n=0)][2:]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a, "ouro", "cli.py").is_file() for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = command_lines()
    argvs = [argv for _, argv in lines]
    old, new = (replay(src, argvs) for src in args)
    differ = 0
    for (tag, argv), a, b in zip(lines, old, new):
        report = differences(a, b)
        if report:
            differ += 1
            print(f"{tag}: ouro {shlex.join(argv)}")
            print("\n".join(report))
    print(f"same_bytes: {len(lines)} lines, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
