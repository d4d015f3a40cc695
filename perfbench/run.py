"""Benchmark for the `ouro` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `ouro` is run from `src/` in it.
The seed generates a fixed list of `ouro` command lines (see workloads.py),
each with a known answer.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 replays the command lines as child processes, one at a time
(closed loop, one client), in whole passes over the list for S seconds and
at least MIN_PASSES passes, and reports the end-to-end metrics.  A reference
child (the "probe": start Python, import numpy, run a fixed loop) runs
between the commands, and each command's wall time is divided by the mean
of the probes just before and after it: the speed of a small shared host
drifts by tens of percent between runs, and the probe drifts with it.

--trace 1 imports `ouro` into this process, calls `ouro.cli.main` on the
same command lines, and alternates untraced passes with passes that record
spans around the public entry points of each module (spans.py).  It
reports per-layer counts and self times, the import cost of a fresh
interpreter from `python -X importtime`, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

OURO = (sys.executable, "-m", "ouro")
PROBE = (sys.executable, "-c",
         "import numpy\ns = 0\nfor i in range(300000):\n    s += i * i\n")
IMPORT_PROBE = (sys.executable, "-X", "importtime", "-c", "import ouro.cli")

TIMEOUT_S = 30.0  # a command slower than this counts as a mismatch
PROBE_EVERY_S = 1.0  # command time between two probes
SETUP_REPEATS = 3
MIN_PASSES = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_EFFECTS = {
    "import": "cmd_p50_norm on interactive; negligible elsewhere",
    "cli": "wall_norm on derive-sweep; cmd_p50_norm on interactive "
           "(enumerate json); none on check-pass",
    "expr": "wall_norm on check-pass (most), then derive-sweep; "
            "none on interactive",
    "verify": "wall_norm on check-pass; a little on derive-sweep; "
              "the thin-slab commands of interactive",
    "catalog": "wall_norm on check-pass (vector entries); none on derive-sweep",
    "deriv": "wall_norm on derive-sweep; none on check-pass",
    "finite": "cmd_tail_norm and cmd_p50_norm on interactive; none elsewhere",
}


class SetupError(Exception):
    pass


@dataclass
class Child:
    code: int | None  # None: killed after TIMEOUT_S
    out: bytes
    wall: float
    rss_kb: int


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv, err) -> Child:
    """Run one child to completion; wall time covers spawn to reaping."""
    err.seek(0)
    err.truncate()
    killed = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                            env=_child_env(), cwd=ROOT)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return Child(code, out, wall, usage.ru_maxrss)


def probe(err) -> float:
    child = run_child(PROBE, err)
    if child.code != 0:
        raise SetupError("the reference probe failed")
    return child.wall


def tail_fraction(n_min: int) -> float:
    """The highest percentile, as a fraction, that leaves TAIL_BEYOND of
    n_min samples beyond it.  A run has at least n_min samples, so this
    fixed fraction leaves at least as many in every run."""
    return max(1, n_min - TAIL_BEYOND) / n_min


def tail(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered) - 1e-9) - 1)]


def _catalog_warmup(err):
    # Imports every module (bytecode, page cache) and checks that each
    # catalog entry the workloads use exists.
    cmd = workloads.Command("catalog", ("catalog", "--format", "json"),
                            exit_code=0,
                            names=tuple(workloads.CHECK_VERDICTS))
    child = run_child(OURO + cmd.argv, err)
    why = workloads.check_output(cmd, child.code, child.out.decode())
    if why is not None:
        raise SetupError(f"warm-up `ouro catalog` failed: {why}")


class Tally:
    """Known-answer and determinism checks across passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[workloads.Command, str]] = []
        self._digests: dict[int, str] = {}

    def check(self, index: int, cmd: workloads.Command, code, out: bytes):
        self.attempted += 1
        why = workloads.check_output(cmd, code, out.decode())
        digest = hashlib.sha256(out).hexdigest()
        if why is None and self._digests.setdefault(index, digest) != digest:
            why = "report bytes differ between repetitions"
        if why is not None:
            self.failures.append((cmd, why))

    def lines(self, cmds) -> list[str]:
        out = [f"error_rate {len(self.failures) / self.attempted!r} share "
               f"({len(self.failures)} of {self.attempted} commands attempted)"]
        out += [f"  mismatch: {' '.join(c.argv)}: {why}"
                for c, why in self.failures[:10]]
        out += [f"  {c.note}: {' '.join(c.argv)}" for c in cmds if c.note]
        return out

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end to end, tracing off

def timed_run(workload: str, seed: int, seconds: int):
    with open(OUT / "stderr.log", "w+b") as err:
        setups, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cmds = workloads.generate(workload, seed)
            _catalog_warmup(err)
            setup_probes.append(probe(err))
            setups.append(time.perf_counter() - t0)

        tally = Tally()
        passes = []  # (command walls, the same in probe units, probes)
        peak_kb = 0
        last = 0.0
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() + last <= deadline:
            started = time.perf_counter()
            probes = [probe(err)]
            walls, before = [], []  # before: index of the last earlier probe
            since = 0.0
            for i, cmd in enumerate(cmds):
                child = run_child(OURO + cmd.argv, err)
                tally.check(i, cmd, child.code, child.out)
                walls.append(child.wall)
                before.append(len(probes) - 1)
                peak_kb = max(peak_kb, child.rss_kb)
                since += child.wall
                if since >= PROBE_EVERY_S:
                    probes.append(probe(err))
                    since = 0.0
            probes.append(probe(err))
            # each command in units of the mean of the probes around it
            norm = [w / ((probes[b] + probes[b + 1]) / 2)
                    for w, b in zip(walls, before)]
            passes.append((walls, norm, probes))
            last = time.perf_counter() - started

    raw = [w for walls, _, _ in passes for w in walls]
    norm = [w for _, ns, _ in passes for w in ns]
    wall_norm = statistics.median(sum(ns) for _, ns, _ in passes)
    fraction = tail_fraction(MIN_PASSES * len(cmds))
    tail_norm = tail(norm, fraction)
    probe_s = statistics.median(p for _, _, probes in passes for p in probes)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_norm": _metric(wall_norm, "probe"),
        "cmd_p50_norm": _metric(statistics.median(norm), "probe"),
        "cmd_tail_norm": _metric(tail_norm, "probe"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    lines = [
        f"passes {len(passes)} of {len(cmds)} commands; "
        f"probe median {probe_s!r} s (set-up probes {setup_probes!r})",
        f"setup_s {metrics['setup_s']['value']!r} s (median of {setups!r})",
        f"wall_norm {wall_norm!r} probe "
        f"(raw {statistics.median(sum(walls) for walls, _, _ in passes)!r} s per pass)",
        f"cmd_p50_norm {metrics['cmd_p50_norm']['value']!r} probe "
        f"(raw {statistics.median(raw)!r} s)",
        f"cmd_tail_norm {tail_norm!r} probe at p{100 * fraction:.1f} of "
        f"{len(norm)} commands (raw {tail(raw, fraction)!r} s)",
        f"peak_rss_mb {metrics['peak_rss_mb']['value']!r} MB (ouro children only)",
    ] + tally.lines(cmds)
    return lines, tally.result(metrics)


# ---------------------------------------------------------------------------
# per layer, traced

def parse_importtime(text: str) -> dict[str, float]:
    """import.* metrics in ms from `python -X importtime` output."""
    total = numpy_ms = ouro_self = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        pkg = name.strip()
        if depth == 0:
            total += int(cum_us)
        if pkg == "numpy":
            numpy_ms = int(cum_us) / 1000.0
        if pkg == "ouro" or pkg.startswith("ouro."):
            ouro_self += int(self_us)
    return {"import.total_ms": total / 1000.0, "import.numpy_ms": numpy_ms,
            "import.ouro_self_ms": ouro_self / 1000.0}


def import_probe() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(IMPORT_PROBE, capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"`import ouro.cli` failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _callbacks(rec: spans.Recorder) -> dict:
    def verdict(v):
        rec.count("verify.samples_evaluated", v.samples_evaluated)
        rec.count("verify.domain_errors", v.status.value == "DOMAIN_ERROR")

    def unity(r):
        rec.count("deriv.reports")
        rec.count("deriv.degenerate_reports", r.sum_to_one.value == "DEGENERATE")

    return {"verify.membership": verdict, "verify.iterated": verdict,
            "deriv.check_unity": unity,
            "finite.enumerate": lambda maps: rec.count("finite.maps", len(maps))}


def in_process_pass(cli, cmds, tally: Tally, rec: spans.Recorder | None):
    """Seconds spent inside `ouro.cli.main` calls, and report bytes."""
    wall = 0.0
    report_bytes = 0
    for i, cmd in enumerate(cmds):
        if rec is not None:
            rec.command_id = i
        out, errors = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            try:
                code = cli.main(list(cmd.argv))
            except Exception:  # a crash is a mismatch, not a stop
                code = None
        wall += time.perf_counter() - t0
        text = out.getvalue().encode()
        report_bytes += len(text)
        tally.check(i, cmd, code, text)
    return wall, report_bytes


def layer_metrics(totals, counters, wall_s, report_bytes) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).  Every
    `_ms` figure is self time, so they and trace.harness_ms add up to
    trace.wall_ms."""
    def calls(n):
        return totals[n][0]

    def ms(n):
        return totals[n][1]

    def counted(key):
        return counters.get(key, 0)

    unity_calls = calls("deriv.check_unity")
    reports = counted("deriv.reports")
    return {
        "cli.commands": (calls("cli.main"), "count"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "expr.parse_calls": (calls("expr.parse"), "count"),
        "expr.parse_ms": (ms("expr.parse"), "ms"),
        "expr.evaluate_calls": (calls("expr.evaluate"), "count"),
        "expr.evaluate_ms": (ms("expr.evaluate"), "ms"),
        "expr.evaluate_us_per_call": (
            1000.0 * ms("expr.evaluate") / max(1, calls("expr.evaluate")), "us"),
        "verify.sample_calls": (calls("verify.sample"), "count"),
        "verify.sample_ms": (ms("verify.sample"), "ms"),
        "verify.membership_calls": (calls("verify.membership"), "count"),
        "verify.membership_self_ms": (ms("verify.membership"), "ms"),
        "verify.iterated_calls": (calls("verify.iterated"), "count"),
        "verify.iterated_self_ms": (ms("verify.iterated"), "ms"),
        "verify.samples_evaluated": (counted("verify.samples_evaluated"), "count"),
        "verify.domain_errors": (counted("verify.domain_errors"), "count"),
        "catalog.instantiate_calls": (calls("catalog.instantiate"), "count"),
        "catalog.instantiate_ms": (ms("catalog.instantiate"), "ms"),
        "catalog.operator_calls": (calls("catalog.operator"), "count"),
        "catalog.operator_ms": (ms("catalog.operator"), "ms"),
        "deriv.unity_sweep_self_ms": (ms("deriv.unity_sweep"), "ms"),
        "deriv.check_unity_calls": (unity_calls, "count"),
        "deriv.check_unity_self_ms": (ms("deriv.check_unity"), "ms"),
        "deriv.reports": (reports, "count"),
        # no attempts means no wasted attempts
        "deriv.useful_ratio": (reports / unity_calls if unity_calls else 1.0, "ratio"),
        "deriv.dual_eval_calls": (calls("deriv.dual_eval"), "count"),
        "deriv.dual_eval_ms": (ms("deriv.dual_eval"), "ms"),
        "deriv.fd_partial_calls": (calls("deriv.fd_partial"), "count"),
        "deriv.fd_partial_ms": (ms("deriv.fd_partial"), "ms"),
        "deriv.degenerate_reports": (counted("deriv.degenerate_reports"), "count"),
        "finite.enumerate_calls": (calls("finite.enumerate"), "count"),
        "finite.enumerate_ms": (ms("finite.enumerate"), "ms"),
        "finite.maps": (counted("finite.maps"), "count"),
        "finite.count_ms": (ms("finite.count"), "ms"),
        "trace.wall_ms": (1000.0 * wall_s, "ms"),
        # traced wall outside every span: output redirection, wrapper calls
        "trace.harness_ms": (1000.0 * wall_s - sum(t[1] for t in totals.values()), "ms"),
    }


def traced_pass(cli, cmds, tally: Tally):
    rec = spans.Recorder()
    rec.install(_callbacks(rec))
    try:
        wall, report_bytes = in_process_pass(cli, cmds, tally, rec)
    finally:
        rec.uninstall()
    return rec, wall, report_bytes


def traced_run(workload: str, seed: int, seconds: int):
    cmds = workloads.generate(workload, seed)
    imports = import_probe()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ouro.cli")

    tally = Tally()
    untraced_s = traced_s = 0.0
    sums: dict[str, float] = {}
    units: dict[str, str] = {}
    layer_ms: dict[str, float] = {}
    nesting = passes = 0
    first = None
    last = 0.0
    deadline = time.perf_counter() + seconds
    while passes < 1 or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        # Alternate which pass of a pair goes first, so that warm-up and
        # drift fall on both sides of trace.overhead.
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            if not traced:
                untraced_s += in_process_pass(cli, cmds, tally, None)[0]
                continue
            rec, wall, report_bytes = traced_pass(cli, cmds, tally)
            traced_s += wall
            arrays = rec.arrays()
            nesting += spans.nesting_errors(**arrays)
            totals = spans.layer_totals(arrays)
            for name, (_, ms) in totals.items():
                layer = name.split(".")[0]
                layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
            for key, (value, unit) in layer_metrics(
                    totals, rec.counters, wall, report_bytes).items():
                sums[key] = sums.get(key, 0) + value
                units[key] = unit
            first = first or rec
        passes += 1
        last = time.perf_counter() - started
    saved = OUT / f"spans-{workload}.npz"
    first.save(saved)

    metrics = {k: _metric(v, "ms") for k, v in imports.items()}
    for key, total in sums.items():
        value = total / passes
        if units[key] in ("count", "bytes") and value == int(value):
            value = int(value)
        metrics[key] = _metric(value, units[key])
    metrics["trace.overhead"] = _metric(traced_s / untraced_s - 1.0, "ratio")

    wall_ms = metrics["trace.wall_ms"]["value"]
    layer_ms["harness"] = sums["trace.harness_ms"]
    lines = [f"traced passes {passes} of {len(cmds)} commands; {len(first)} "
             f"spans in the first, saved to {saved.relative_to(ROOT)}",
             f"span nesting errors: {nesting}",
             "self time per traced pass by layer (share of the traced wall):"]
    for layer, total in layer_ms.items():
        own = total / passes
        lines.append(f"  {layer:<8} {own:12.3f} ms {own / wall_ms:7.2%}  -> "
                     f"{LAYER_EFFECTS.get(layer, 'outside ouro')}")
    lines += [f"{k} {m['value']!r} {m['unit']}" for k, m in metrics.items()]
    lines += tally.lines(cmds)
    result = tally.result(metrics)
    result["correct"] = result["correct"] and not nesting
    return lines, result


# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, trace: int) -> str:
    return (f"run: workload={workload} seed={seed} trace={trace} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} commit={git_commit()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ouro" / "cli.py").is_file():
        print(f"perfbench: no ouro sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    try:
        lines, result = run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(run_record(args.workload, args.seed, args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
