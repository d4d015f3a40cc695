"""Command line front end.

Subcommands:

    ouro check      membership + iterated idempotence checks
    ouro derive     derivative unity checks (dual or finite differences)
    ouro enumerate  idempotent self-maps of a finite domain
    ouro catalog    list the built-in function families

Exit codes: 0 all checks passed (DEGENERATE counts as a pass with a warning
unless --strict-degenerate), 1 any FAIL, 2 usage or configuration error,
3 evaluation/domain error.

Reports are byte-deterministic for a fixed command line: no timestamps
(unless --timestamp), no environment-dependent content.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from datetime import datetime, timezone

from . import catalog as _catalog
from .deriv import KinkPointError, UnityReport, check_unity, unity_sweep
from .expr import (EvaluationError, Expr, ParseError, format_expr,
                   free_variables, parse)
from .finite import COUNT_LIMIT, count_idempotent, enumerate_idempotent
from .verify import (DEFAULT_INTERVAL, DomainBox, SamplePlan, Status, Verdict,
                     Witness, check_iterated, check_membership)

SCHEMA_VERSION = 1

_INT_RE = re.compile(r"[+-]?\d+\Z")


class UsageError(Exception):
    pass


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


# ---------------------------------------------------------------------------
# option plumbing

_PLAN_DEFAULTS = {
    "samples": 256, "seed": 0, "atol": 1e-9, "rtol": 1e-9,
    "kmax": 16, "kink_margin": 1e-7,
}
_TARGET_DEFAULTS = {
    "expr": None, "catalog": None, "n": None, "w": None, "params": [],
    "box": [],
}
_OUTPUT_DEFAULTS = {"format": "text", "out": None, "timestamp": False,
                    "config": None}

_DEFAULTS = {
    "check": {**_TARGET_DEFAULTS, **_PLAN_DEFAULTS, **_OUTPUT_DEFAULTS,
              "strict_degenerate": False},
    "derive": {**_TARGET_DEFAULTS, **_PLAN_DEFAULTS, **_OUTPUT_DEFAULTS,
               "strict_degenerate": False, "point": None, "method": "dual",
               "skip_membership": False},
    "enumerate": {**_OUTPUT_DEFAULTS, "m": None, "count_only": False},
    "catalog": {**_OUTPUT_DEFAULTS},
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _config_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise UsageError(f"expected a boolean, got {text!r}") from None


_CONFIG_CONVERTERS = {
    "samples": int, "seed": int, "kmax": int, "m": int, "n": int,
    "atol": float, "rtol": float, "kink_margin": float,
    "format": str, "method": str, "out": str, "expr": str, "catalog": str,
    "w": str, "point": str,
    "box": str.split,
    "strict_degenerate": _config_bool, "skip_membership": _config_bool,
    "timestamp": _config_bool, "count_only": _config_bool,
}


def _add_target_options(p: argparse.ArgumentParser):
    p.add_argument("--expr", help="candidate as a DSL expression")
    p.add_argument("--catalog", metavar="NAME", help="catalog entry name")
    p.add_argument("--n", type=int, help="argument count for multivariate entries")
    p.add_argument("--w", metavar="W1,W2,...", help="weights for weighted_mean")
    p.add_argument("--params", action="append", metavar="KEY=VALUE",
                   help="entry parameter (repeatable)")
    p.add_argument("--box", action="append", metavar="LO:HI",
                   help="domain interval, repeatable per dimension "
                        "(write --box=-10:10 for negative bounds)")


def _add_plan_options(p: argparse.ArgumentParser):
    p.add_argument("--samples", type=int, help="sample count (default 256)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--atol", type=float, help="absolute tolerance (default 1e-9)")
    p.add_argument("--rtol", type=float, help="relative tolerance (default 1e-9)")
    p.add_argument("--kmax", type=int, help="iterated-check depth (default 16)")
    p.add_argument("--kink-margin", dest="kink_margin", type=float,
                   help="distance treated as touching a kink (default 1e-7)")


def _add_output_options(p: argparse.ArgumentParser, formats=("text", "json")):
    p.add_argument("--format", choices=formats, help="report format")
    p.add_argument("--out", metavar="PATH", help="write the report to a file")
    p.add_argument("--timestamp", action="store_true",
                   help="include a generation timestamp (off by default so "
                        "reports are byte-stable)")
    p.add_argument("--config", metavar="PATH",
                   help="key = value file supplying flag defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouro",
        description="Verification workbench for Ouroboros (idempotent) functions.")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership and iterated checks",
                       argument_default=argparse.SUPPRESS)
    _add_target_options(p)
    _add_plan_options(p)
    _add_output_options(p)
    p.add_argument("--strict-degenerate", dest="strict_degenerate",
                   action="store_true",
                   help="treat DEGENERATE results as failures")

    p = sub.add_parser("derive", help="derivative unity checks",
                       argument_default=argparse.SUPPRESS)
    _add_target_options(p)
    _add_plan_options(p)
    _add_output_options(p)
    p.add_argument("--point", metavar="V1,V2,...",
                   help="evaluate at this point instead of sampling")
    p.add_argument("--method", choices=("dual", "fd"),
                   help="derivative backend (default dual)")
    p.add_argument("--skip-membership", dest="skip_membership",
                   action="store_true",
                   help="skip the membership precondition check")
    p.add_argument("--strict-degenerate", dest="strict_degenerate",
                   action="store_true",
                   help="treat DEGENERATE results as failures")

    p = sub.add_parser("enumerate", help="idempotent maps on {0..m-1}",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--m", type=int, required=True, help="domain size")
    p.add_argument("--count-only", dest="count_only", action="store_true",
                   help=f"print only the closed-form count (m up to {COUNT_LIMIT})")
    _add_output_options(p, formats=("text", "json", "csv"))

    p = sub.add_parser("catalog", help="list built-in families",
                       argument_default=argparse.SUPPRESS)
    _add_output_options(p)
    return parser


def _load_config(path: str, command: str) -> dict:
    allowed = _DEFAULTS[command]
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest in ("config", "params") or dest not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        try:
            out[dest] = _CONFIG_CONVERTERS[dest](value)
        except UsageError:
            raise
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key.strip()!r}: "
                             f"{value!r}") from None
    return out


def _effective_options(ns: argparse.Namespace) -> dict:
    command = ns.command
    provided = {k: v for k, v in vars(ns).items() if k != "command"}
    options = dict(_DEFAULTS[command])
    config_path = provided.get("config", options.get("config"))
    if config_path:
        options.update(_load_config(config_path, command))
    options.update(provided)
    return options


# ---------------------------------------------------------------------------
# shared resolution helpers

def _coerce_param(text: str):
    if "," in text:
        return tuple(float(part) for part in text.split(","))
    if _INT_RE.fullmatch(text):
        return int(text)
    return float(text)


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad interval {text!r}") from None


def _resolve_target(o: dict):
    """Returns (target, arity, box, target_doc, label).

    target is an Expr for scalar candidates or a callable VectorInstance.
    """
    if bool(o["expr"]) == bool(o["catalog"]):
        raise UsageError("exactly one of --expr or --catalog is required")
    if o["expr"]:
        try:
            expr = parse(o["expr"])
        except ParseError as exc:
            raise UsageError(f"bad --expr: {exc}")
        arity = len(free_variables(expr))
        if arity == 0:
            raise UsageError("expression must mention at least one variable")
        box = _resolve_box(o, arity, None)
        doc = {"expr": format_expr(expr)}
        return expr, arity, box, doc, f"expr {format_expr(expr)!r}"

    params = {}
    if o["n"] is not None:
        params["n"] = o["n"]
    if o["w"]:
        try:
            params["w"] = tuple(float(p) for p in o["w"].split(","))
        except ValueError:
            raise UsageError(f"bad --w: {o['w']!r}") from None
    for item in o["params"] or []:
        if "=" not in item:
            raise UsageError(f"bad --params {item!r}, expected KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = _coerce_param(value.strip())
        except ValueError:
            raise UsageError(f"bad --params value {value!r}") from None
    try:
        inst = _catalog.instantiate(o["catalog"], **params)
    except _catalog.CatalogError as exc:
        raise UsageError(str(exc)) from None
    if isinstance(inst, _catalog.ScalarInstance):
        target, arity = inst.expr, inst.arity
    else:
        target, arity = inst, inst.dim
    box = _resolve_box(o, arity, inst.box)
    doc = {"catalog": inst.entry.name,
           "params": {k: _jsonable(v) for k, v in sorted(inst.params.items())},
           "kind": inst.entry.kind}
    if isinstance(inst, _catalog.ScalarInstance):
        doc["expr"] = format_expr(inst.expr)
    else:
        doc["note"] = "vector-valued domain extension of the scalar membership check"
    return target, arity, box, doc, f"catalog {inst.entry.name}"


def _resolve_box(o: dict, arity: int, natural: DomainBox | None) -> DomainBox:
    if o["box"]:
        intervals = [_parse_interval(text) for text in o["box"]]
        if len(intervals) == 1 and arity > 1:
            intervals = intervals * arity
        if len(intervals) != arity:
            raise UsageError(
                f"{len(intervals)} interval(s) given for {arity} coordinate(s)")
        try:
            return DomainBox(tuple(intervals))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if natural is not None:
        return natural
    return DomainBox.uniform(*DEFAULT_INTERVAL, arity)


@contextlib.contextmanager
def _engine_usage_errors():
    """Turn an engine's ValueError about the target's shape into a usage
    error; evaluation and kink faults pass through to main (exit 3)."""
    try:
        yield
    except (EvaluationError, KinkPointError):
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_plan(o: dict) -> SamplePlan:
    try:
        return SamplePlan(seed=o["seed"], sample_count=o["samples"],
                          atol=o["atol"], rtol=o["rtol"],
                          kink_margin=o["kink_margin"], k_max=o["kmax"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# report rendering

def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Status):
        return value.value
    return value


def _witness_doc(w: Witness | None):
    if w is None:
        return None
    return {"point": _jsonable(w.point), "value": _jsonable(w.value),
            "revalue": _jsonable(w.revalue), "residual": w.residual,
            "reason": w.reason, "detail": w.detail}


def _verdict_doc(v: Verdict) -> dict:
    return {"status": v.status.value,
            "samples_evaluated": v.samples_evaluated,
            "samples_skipped": v.samples_skipped,
            "max_drift": v.max_drift,
            "witness": _witness_doc(v.witness)}


def _unity_doc(r: UnityReport) -> dict:
    return {"n": r.n, "point": _jsonable(r.point), "value": r.value,
            "outer_gradient": _jsonable(r.outer_gradient),
            "shares": _jsonable(r.shares), "share_sum": r.share_sum,
            "sum_to_one": r.sum_to_one.value,
            "equal_shares": r.equal_shares.value,
            "degenerate_reason": r.degenerate_reason, "tol": r.tol}


def _plan_doc(plan: SamplePlan) -> dict:
    return {"seed": plan.seed, "sample_count": plan.sample_count,
            "atol": plan.atol, "rtol": plan.rtol,
            "kink_margin": plan.kink_margin, "k_max": plan.k_max}


def _base_doc(command: str, o: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    if o.get("timestamp"):
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _emit(text: str, o: dict):
    if o["out"]:
        with open(o["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_lines(w: Witness | None, indent: str = "  ") -> list[str]:
    if w is None:
        return []
    lines = [f"{indent}reason: {w.reason}" + (f" ({w.detail})" if w.detail else ""),
             f"{indent}point: {w.point!r}"]
    if w.value is not None:
        lines.append(f"{indent}f(x) = {w.value!r}")
    if w.revalue is not None:
        lines.append(f"{indent}re-applied = {w.revalue!r}")
    if w.residual is not None:
        lines.append(f"{indent}residual = {w.residual!r}")
    return lines


def _verdict_lines(name: str, v: Verdict) -> list[str]:
    head = (f"{name}: {v.status}  evaluated={v.samples_evaluated} "
            f"skipped={v.samples_skipped}")
    if v.max_drift is not None:
        head += f" max_drift={v.max_drift!r}"
    return [head] + _witness_lines(v.witness)


def _box_text(box: DomainBox) -> str:
    return " x ".join(f"[{lo!r}, {hi!r}]" for lo, hi in box.intervals)


def _plan_text(plan: SamplePlan) -> str:
    return (f"samples={plan.sample_count} seed={plan.seed} atol={plan.atol!r} "
            f"rtol={plan.rtol!r} kink_margin={plan.kink_margin!r} "
            f"k_max={plan.k_max}")


# ---------------------------------------------------------------------------
# subcommands

def _overall_status(statuses: list[Status]) -> Status:
    if Status.FAIL in statuses:
        return Status.FAIL
    if Status.DOMAIN_ERROR in statuses:
        return Status.DOMAIN_ERROR
    if Status.DEGENERATE in statuses:
        return Status.DEGENERATE
    return Status.PASS


def _status_exit(overall: Status, strict_degenerate: bool) -> int:
    if overall is Status.FAIL:
        return 1
    if overall is Status.DOMAIN_ERROR:
        return 3
    if overall is Status.DEGENERATE and strict_degenerate:
        return 1
    return 0


def cmd_check(o: dict) -> int:
    target, arity, box, target_doc, label = _resolve_target(o)
    plan = _resolve_plan(o)
    with _engine_usage_errors():
        membership = check_membership(target, box, plan)
        iterated = check_iterated(target, box, plan)
    overall = _overall_status([membership.status, iterated.status])

    if o["format"] == "json":
        doc = _base_doc("check", o)
        doc.update({"target": target_doc, "box": _jsonable(box.intervals),
                    "plan": _plan_doc(plan),
                    "membership": _verdict_doc(membership),
                    "iterated": _verdict_doc(iterated),
                    "overall": overall.value})
        _emit(json.dumps(doc, indent=2) + "\n", o)
    else:
        lines = [f"ouro check: {label}"]
        if "note" in target_doc:
            lines.append(f"note: {target_doc['note']}")
        lines += [f"box: {_box_text(box)}", f"plan: {_plan_text(plan)}"]
        lines += _verdict_lines("membership", membership)
        lines += _verdict_lines("iterated", iterated)
        lines.append(f"overall: {overall}")
        _emit("\n".join(lines) + "\n", o)
    return _status_exit(overall, o.get("strict_degenerate", False))


def _claim_counts(reports, claim) -> dict:
    counts = {"PASS": 0, "FAIL": 0, "DEGENERATE": 0}
    for r in reports:
        counts[getattr(r, claim).value] += 1
    return counts


def cmd_derive(o: dict) -> int:
    target, arity, box, target_doc, label = _resolve_target(o)
    if not isinstance(target, Expr):
        raise UsageError("derivative checks apply to scalar entries only")
    plan = _resolve_plan(o)
    method = o["method"]

    membership = None
    if not o["skip_membership"]:
        with _engine_usage_errors():
            membership = check_membership(target, box, plan)

    reports: list[UnityReport] = []
    skipped = 0
    if membership is None or membership.status is Status.PASS:
        names = free_variables(target)
        if o["point"] is not None:
            try:
                values = tuple(float(p) for p in o["point"].split(","))
            except ValueError:
                raise UsageError(f"bad --point: {o['point']!r}") from None
            if len(values) != arity:
                raise UsageError(
                    f"--point has {len(values)} value(s) for {arity} coordinate(s)")
            for j, v in enumerate(values):
                if not math.isfinite(v):
                    raise UsageError(f"--point coordinate {j + 1} is not finite")
                if box.signed_escape(j, v, 0.0) != 0.0:
                    raise UsageError(f"--point coordinate {j + 1} outside the box")
            reports.append(check_unity(target, dict(zip(names, values)),
                                       plan, method))
        else:
            with _engine_usage_errors():
                sweep = unity_sweep(target, box, plan, method)
            reports = list(sweep.reports)
            skipped = sweep.points_skipped

    statuses = [] if membership is None else [membership.status]
    statuses += [s for r in reports for s in (r.sum_to_one, r.equal_shares)]
    overall = _overall_status(statuses)

    if o["format"] == "json":
        doc = _base_doc("derive", o)
        doc.update({"target": target_doc, "box": _jsonable(box.intervals),
                    "plan": _plan_doc(plan), "method": method,
                    "membership": (None if membership is None
                                   else _verdict_doc(membership)),
                    "reports": [_unity_doc(r) for r in reports],
                    "points_skipped": skipped,
                    "overall": overall.value})
        _emit(json.dumps(doc, indent=2) + "\n", o)
    else:
        lines = [f"ouro derive: {label}", f"box: {_box_text(box)}",
                 f"plan: {_plan_text(plan)}", f"method: {method}"]
        if membership is None:
            lines.append("membership: skipped (--skip-membership)")
        else:
            lines += _verdict_lines("membership", membership)
        for r in reports:
            shares = ("-" if r.shares is None
                      else "(" + ", ".join(repr(s) for s in r.shares) + ")")
            extra = f" [{r.degenerate_reason}]" if r.degenerate_reason else ""
            lines.append(
                f"point {r.point!r}: f={r.value!r} shares={shares} "
                f"sum={r.share_sum!r} sum_to_one={r.sum_to_one} "
                f"equal_shares={r.equal_shares}{extra}")
        if reports:
            s = _claim_counts(reports, "sum_to_one")
            e = _claim_counts(reports, "equal_shares")
            lines.append(
                f"summary: points={len(reports)} skipped={skipped} | "
                f"sum_to_one {s['PASS']}/{s['FAIL']}/{s['DEGENERATE']} "
                f"(pass/fail/degenerate) | equal_shares "
                f"{e['PASS']}/{e['FAIL']}/{e['DEGENERATE']}")
        lines.append(f"overall: {overall}")
        _emit("\n".join(lines) + "\n", o)
    return _status_exit(overall, o.get("strict_degenerate", False))


def cmd_enumerate(o: dict) -> int:
    m = o["m"]
    if o["count_only"]:
        try:
            count = count_idempotent(m)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        maps = None
    else:
        try:
            maps = enumerate_idempotent(m)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        count = count_idempotent(m)
        if count != len(maps):  # closed form is cross-checked when listing
            raise AssertionError(
                f"count mismatch for m={m}: {count} vs {len(maps)}")

    fmt = o["format"]
    if fmt == "json":
        doc = _base_doc("enumerate", o)
        doc.update({"m": m, "count": count,
                    "maps": (None if maps is None
                             else [list(f.table) for f in maps])})
        _emit(json.dumps(doc, indent=2) + "\n", o)
    elif fmt == "csv":
        rows = [] if maps is None else [",".join(map(str, f.table)) for f in maps]
        header = f"# m={m} count={count}"
        _emit("\n".join([header] + rows) + "\n", o)
    else:
        lines = [f"ouro enumerate: m={m}", f"count: {count}"]
        if maps is not None:
            lines += [" ".join(map(str, f.table)) for f in maps]
        _emit("\n".join(lines) + "\n", o)
    return 0


def cmd_catalog(o: dict) -> int:
    entries = _catalog.list_entries()
    if o["format"] == "json":
        doc = _base_doc("catalog", o)
        doc["entries"] = [{
            "name": e.name, "kind": e.kind, "summary": e.summary,
            "arity": e.arity,
            "params": [{"name": n, "meaning": m} for n, m in e.params],
            "defaults": {k: _jsonable(v) for k, v in sorted(e.defaults.items())},
            "interval": list(e.interval),
            "flags": {"smooth": e.smooth, "symmetric": e.symmetric,
                      "exact_fixed_points": e.exact_fixed_points},
        } for e in entries]
        _emit(json.dumps(doc, indent=2) + "\n", o)
    else:
        lines = [f"ouro catalog: {len(entries)} entries"]
        for e in entries:
            flags = "".join([
                "s" if e.smooth else "-",
                "y" if e.symmetric else "-",
                "x" if e.exact_fixed_points else "-",
            ])
            defaults = ", ".join(f"{k}={v!r}" for k, v in sorted(e.defaults.items()))
            lines.append(
                f"{e.name:<24} {e.kind:<20} arity {e.arity:<12} "
                f"box [{e.interval[0]!r}, {e.interval[1]!r}] flags {flags} "
                f"defaults: {defaults or '-'}")
            lines.append(f"{'':<24} {e.summary}")
        lines.append("flags: s=smooth y=symmetric x=exact_fixed_points")
        _emit("\n".join(lines) + "\n", o)
    return 0


_HANDLERS = {
    "check": cmd_check,
    "derive": cmd_derive,
    "enumerate": cmd_enumerate,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        options = _effective_options(ns)
        return _HANDLERS[ns.command](options)
    except UsageError as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 2
    except KinkPointError as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
