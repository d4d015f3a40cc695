"""Command line front end.

Subcommands:

    ouro check      membership + iterated idempotence checks
    ouro derive     derivative unity checks (dual or finite differences)
    ouro enumerate  idempotent self-maps of a finite domain
    ouro catalog    list the built-in function families

Exit codes: 0 all checks passed (DEGENERATE counts as a pass, and overall
reads DEGENERATE, unless derive --strict-degenerate), 1 any FAIL, 2 usage or
configuration error, 3 evaluation/domain error.

Every subcommand builds one report document, the JSON one; --format json
prints it and the text and csv renderers read only it, so every format
describes the same result.  Reports are byte-deterministic for a fixed
command line: no timestamps (unless --timestamp), no environment-dependent
content.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections import Counter

# Bound as modules: catalog, deriv and finite load on first use, so a
# command loads only those it calls into.
from . import catalog as _catalog
from . import deriv as _deriv
from . import finite as _finite
from .expr import EvaluationError, Expr, ParseError, format_expr, parse
from .verify import (DEFAULT_INTERVAL, DomainBox, SamplePlan, Status, Verdict,
                     _expr_names, check_iterated, check_membership)

SCHEMA_VERSION = 1

_INT_RE = re.compile(r"[+-]?\d+\Z")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# options: one row per flag, read by the parser, the config loader and the
# defaults alike.  Every flag except --config is also a config key.

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce_param(text: str):
    if "," in text:
        return tuple(float(part) for part in text.split(","))
    if _INT_RE.fullmatch(text):
        return int(text)
    return float(text)


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise UsageError(f"bad --params {text!r}, expected KEY=VALUE")
    key, _, value = text.partition("=")
    try:
        return key.strip(), _coerce_param(value.strip())
    except ValueError:
        raise UsageError(f"bad --params value {value!r}") from None


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad --w: {text!r}") from None


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad interval {text!r}") from None


def _formats(command: str) -> tuple[str, ...]:
    """text (the default), json, then any other format with a renderer."""
    return ("text", "json", *(f for c, f in _RENDERERS
                              if c == command and f != "text"))


_TARGET = ("check", "derive")
_ALL = ("check", "derive", "enumerate", "catalog")
_PLAN = SamplePlan()
# deriv.TOL_UNITY's keys and finite.COUNT_LIMIT, written out because the
# option table below is read whenever cli is imported; the tests pin both.
_METHODS = ("dual", "fd")
_COUNT_LIMIT = 20

# (dest, subcommands, default, argparse keywords).  The flag is the dest with
# "_" spelled "-"; the order is the order of --help.  The parse helpers raise
# UsageError, which argparse passes through to main.
_OPTIONS = (
    ("expr", _TARGET, None, {"help": "candidate as a DSL expression"}),
    ("catalog", _TARGET, None, {"metavar": "NAME", "help": "catalog entry name"}),
    ("n", _TARGET, None,
     {"type": int, "help": "argument count for multivariate entries"}),
    ("w", _TARGET, None,
     {"type": _parse_weights, "metavar": "W1,W2,...",
      "help": "weights for weighted_mean"}),
    ("params", _TARGET, (),
     {"action": "append", "type": _parse_param, "metavar": "KEY=VALUE",
      "help": "entry parameter (repeatable)"}),
    ("box", _TARGET, (),
     {"action": "append", "type": _parse_interval, "metavar": "LO:HI",
      "help": "domain interval, repeatable per dimension "
              "(write --box=-10:10 for negative bounds)"}),
    ("samples", _TARGET, _PLAN.sample_count, {"type": int, "help": "sample count"}),
    ("seed", _TARGET, _PLAN.seed, {"type": int, "help": "sampling seed"}),
    ("atol", _TARGET, _PLAN.atol, {"type": float, "help": "absolute tolerance"}),
    ("rtol", _TARGET, _PLAN.rtol, {"type": float, "help": "relative tolerance"}),
    ("kmax", ("check",), _PLAN.k_max, {"type": int, "help": "iterated-check depth"}),
    ("kink_margin", ("derive",), _PLAN.kink_margin,
     {"type": float, "help": "distance treated as touching a kink"}),
    ("m", ("enumerate",), None, {"type": int, "help": "domain size"}),
    ("count_only", ("enumerate",), False,
     {"action": "store_true",
      "help": f"print only the closed-form count (m up to {_COUNT_LIMIT})"}),
    ("format", _ALL, "text", {"choices": _formats, "help": "report format"}),
    ("out", _ALL, None, {"metavar": "PATH", "help": "write the report to a file"}),
    ("timestamp", _ALL, False,
     {"action": "store_true", "help": "include a generation timestamp (off by "
                                      "default so reports are byte-stable)"}),
    ("config", _ALL, None,
     {"metavar": "PATH", "help": "key = value file supplying flag defaults"}),
    ("point", ("derive",), None,
     {"metavar": "V1,V2,...", "help": "evaluate at this point instead of sampling"}),
    ("method", ("derive",), "dual",
     {"choices": _METHODS, "help": "derivative backend"}),
    ("skip_membership", ("derive",), False,
     {"action": "store_true", "help": "skip the membership precondition check"}),
    ("strict_degenerate", ("derive",), False,
     {"action": "store_true", "help": "treat DEGENERATE results as failures"}),
)


def _rows(command: str) -> dict[str, tuple[object, dict]]:
    """dest -> (default, argparse keywords) for the options of `command`."""
    rows = {}
    for dest, commands, default, kw in _OPTIONS:
        if command in commands:
            kw = dict(kw)
            if callable(kw.get("choices")):
                kw["choices"] = kw["choices"](command)
            if default is not None and "action" not in kw:
                kw["help"] += f" (default {default})"
            rows[dest] = default, kw
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouro",
        description="Verification workbench for Ouroboros (idempotent) functions.")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__,
                           argument_default=argparse.SUPPRESS)
        for dest, (_, kw) in _rows(command).items():
            p.add_argument("--" + dest.replace("_", "-"), **kw)
    return parser


def _config_value(kw: dict, text: str):
    action, convert = kw.get("action"), kw.get("type", str)
    if action == "store_true":
        return _BOOL_WORDS[text.lower()]
    if action == "append":
        return [convert(word) for word in text.split()]
    value = convert(text)
    if value not in kw.get("choices", (value,)):
        raise ValueError(text)
    return value


def _load_config(path: str, command: str) -> dict:
    rows = _rows(command)
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
        key, _, value = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if dest == "config" or dest not in rows:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            parsed = _config_value(rows[dest][1], value)
        except (ValueError, KeyError, UsageError):
            raise UsageError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
        if dest == "params":  # params lines add up; any other key's last wins
            parsed = out.get(dest, []) + parsed
        out[dest] = parsed
    return out


def _effective_options(ns: argparse.Namespace) -> dict:
    options = {dest: default for dest, (default, _) in _rows(ns.command).items()}
    provided = {k: v for k, v in vars(ns).items() if k != "command"}
    if provided.get("config"):
        options.update(_load_config(provided["config"], ns.command))
        # --params adds to the file's params, so a key in both is given
        # twice; every other flag replaces its config value
        if "params" in provided:
            provided["params"] = [*options["params"], *provided["params"]]
    options.update(provided)
    return options


# ---------------------------------------------------------------------------
# shared resolution helpers

def _resolve_target(o: dict):
    """Returns (target, names, box, target_doc), the one place a target is
    checked against its box.

    target is an Expr for scalar candidates or a callable VectorInstance.
    names are an Expr's variables, checked by verify's shape rule (one per
    coordinate, on a uniform box A^n), so the engines only meet targets
    that fit their box; they are None for a vector operator.
    """
    if bool(o["expr"]) == bool(o["catalog"]):
        raise UsageError("exactly one of --expr or --catalog is required")
    if o["expr"]:
        for dest in ("n", "w", "params"):
            if o[dest] not in (None, (), []):
                raise UsageError(f"--{dest} cannot be used with --expr")
        try:
            target = parse(o["expr"])
        except ParseError as exc:
            raise UsageError(f"bad --expr: {exc}")
        arity = len(target.program.names)
        if arity == 0:
            raise UsageError("expression must mention at least one variable")
        box, doc = _resolve_box(o, arity, None), {}
    else:
        params = {dest: o[dest] for dest in ("n", "w") if o[dest] is not None}
        for key, value in o["params"]:
            if key in params:
                raise UsageError(f"parameter {key!r} given twice")
            params[key] = value
        try:
            inst = _catalog.instantiate(o["catalog"], **params)
        except _catalog.CatalogError as exc:
            raise UsageError(str(exc)) from None
        target, box = inst.target, _resolve_box(o, inst.box.n, inst.box)
        doc = {"catalog": inst.entry.name,
               "params": dict(sorted(inst.params.items())),
               "kind": inst.entry.kind}
    if not isinstance(target, Expr):
        doc["note"] = ("vector-valued domain extension of the scalar membership "
                       "check; the box only places the samples, so range "
                       "containment is not checked")
        return target, None, box, doc
    doc["expr"] = format_expr(target)
    try:
        names = _expr_names(target, box)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return target, names, box, doc


def _resolve_box(o: dict, arity: int, natural: DomainBox | None) -> DomainBox:
    if o["box"]:
        intervals = list(o["box"])
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


# SamplePlan field -> the option that sets it, in the order of the text
# report's plan line
_PLAN_OPTIONS = {"sample_count": "samples", "seed": "seed", "atol": "atol",
                 "rtol": "rtol", "kink_margin": "kink_margin", "k_max": "kmax"}


def _resolve_plan(o: dict) -> tuple[SamplePlan, dict]:
    """The plan and its document, which holds only the fields the command
    has an option for; the other fields keep their defaults.  An error
    names the flag."""
    given = {field: o[dest] for field, dest in _PLAN_OPTIONS.items()
             if dest in o}
    try:
        plan = SamplePlan(**given)
    except ValueError as exc:  # every message starts with the field
        field, _, rest = str(exc).partition(" ")
        flag = "--" + _PLAN_OPTIONS[field].replace("_", "-")
        raise UsageError(f"{flag} {rest}") from None
    return plan, {k: v for k, v in plan._asdict().items() if k in given}


def _resolve_point(o: dict, names: list[str], box: DomainBox) -> dict | None:
    """The --point as a binding of `names`, checked against the box; None
    when there is no --point and the derive command sweeps instead."""
    if o["point"] is None:
        return None
    try:
        values = tuple(float(p) for p in o["point"].split(","))
    except ValueError:
        raise UsageError(f"bad --point: {o['point']!r}") from None
    if len(values) != len(names):
        raise UsageError(
            f"--point has {len(values)} value(s) for {len(names)} coordinate(s)")
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise UsageError(f"--point coordinate {j + 1} is not finite")
        if box.signed_escape(j, v, 0.0) != 0.0:
            raise UsageError(f"--point coordinate {j + 1} outside the box")
    return dict(zip(names, values))


# ---------------------------------------------------------------------------
# report documents and their renderers

def _verdict_doc(v: Verdict) -> dict:
    return {"status": v.status,
            "samples_evaluated": v.samples_evaluated,
            "samples_skipped": v.samples_skipped,
            "max_drift": v.max_drift,
            "witness": None if v.witness is None else v.witness._asdict()}


def _unity_doc(r: _deriv.UnityReport) -> dict:
    return {"n": r.n, "point": r.point, "value": r.value,
            "outer_gradient": r.outer_gradient,
            "shares": r.shares, "share_sum": r.share_sum,
            "sum_to_one": r.sum_to_one, "equal_shares": r.equal_shares,
            "degenerate_reason": r.degenerate_reason, "tol": r.tol}


# The arrays that hold a document's rows, one per point or per map.
_ROW_ARRAYS = ("reports", "maps")


def _json(doc: dict) -> str:
    """json.dumps(doc, indent=2), byte for byte.

    indent selects json's pure-Python encoder, which is slow per value, so
    the members of the document are written one at a time, and each
    non-empty row array a row at a time through _json_row.  json is
    imported here, for the writer's functions below, since text reports
    never use it.
    """
    global json, encode_basestring_ascii
    import json
    from json.encoder import encode_basestring_ascii
    members = []
    for key, value in doc.items():
        if key in _ROW_ARRAYS and value:
            rows = ",\n".join(map(_json_row, value))
            members.append(f"  {encode_basestring_ascii(key)}: [\n{rows}\n  ]")
        else:
            members.append(json.dumps({key: value}, indent=2)[2:-2])
    return "{\n" + ",\n".join(members) + "\n}"


_ROW_TEMPLATES: dict = {}
_SEQUENCES = frozenset((list, tuple))


def _json_row(row) -> str:
    """One element of a row array as json.dumps writes it there.

    A row is a dict whose values are scalars or flat lists, or a flat list
    of scalars.  Rows of one shape (keys and list lengths) share one
    %-format template, and the row's scalars fill it in order.
    """
    if row.__class__ is dict:
        leaves, shape = [], [*row]
        for value in row.values():
            if value.__class__ in _SEQUENCES:
                leaves += value
                shape.append(len(value))
            else:
                leaves.append(value)
                shape.append(-1)
        shape = tuple(shape)
    else:
        leaves, shape = row, len(row)
    template = _ROW_TEMPLATES.get(shape)
    if template is None:
        template = _ROW_TEMPLATES[shape] = _row_template(row)
    return template % tuple(map(_json_leaf, leaves))


def _row_template(row) -> str:
    """json.dumps of `row` with %s for each scalar, indented as an element
    of a member of the document."""
    mark = "\0"

    def hollow(value):
        if value.__class__ in _SEQUENCES:
            return [mark] * len(value)
        return mark

    if row.__class__ is dict:
        hollowed = {key: hollow(value) for key, value in row.items()}
    else:
        hollowed = hollow(row)
    text = json.dumps(hollowed, indent=2)
    text = text.replace("%", "%%").replace(json.dumps(mark), "%s")
    return "    " + text.replace("\n", "\n    ")


def _json_leaf(x):
    """A scalar as json.dumps spells it, for %s: a finite float or an int
    as itself (str of either is its repr, which json writes)."""
    cls = x.__class__
    if cls is float:
        if x - x == 0.0:  # finite; inf - inf and nan - nan are nan
            return x
        return "NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity"
    if cls is int:
        return x
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _emit(command: str, body: dict, o: dict):
    """Write the report document of `command` in the requested format."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    if o["timestamp"]:
        from datetime import datetime, timezone
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc.update(body)
    fmt = o["format"]
    if fmt == "json":
        text = _json(doc)
    else:
        lines = _RENDERERS[command, fmt](doc)
        if "timestamp" in doc:  # second line; a comment keeps csv rows intact
            prefix = "# " if fmt == "csv" else ""
            lines.insert(1, f"{prefix}timestamp: {doc['timestamp']}")
        text = "\n".join(lines)
    if o["out"]:
        with open(o["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _header(doc: dict) -> list[str]:
    target, plan = doc["target"], doc["plan"]
    name = (f"catalog {target['catalog']}" if "catalog" in target
            else f"expr {target['expr']!r}")
    lines = [f"ouro {doc['command']}: {name}"]
    if "note" in target:
        lines.append(f"note: {target['note']}")
    lines.append("box: " + " x ".join(f"[{lo!r}, {hi!r}]" for lo, hi in doc["box"]))
    lines.append("plan: " + " ".join(
        f"{'samples' if field == 'sample_count' else field}={plan[field]!r}"
        for field in _PLAN_OPTIONS if field in plan))
    return lines


def _verdict_lines(name: str, v: dict) -> list[str]:
    head = (f"{name}: {v['status']}  evaluated={v['samples_evaluated']} "
            f"skipped={v['samples_skipped']}")
    if v["max_drift"] is not None:
        head += f" max_drift={v['max_drift']!r}"
    w = v["witness"]
    if w is None:
        return [head]
    lines = [head, f"  reason: {w['reason']}"
             + (f" ({w['detail']})" if w["detail"] else ""),
             f"  point: {w['point']!r}"]
    for key, label in (("value", "f(x)"), ("revalue", "re-applied"),
                       ("residual", "residual")):
        if w[key] is not None:
            lines.append(f"  {label} = {w[key]!r}")
    return lines


def _check_text(doc: dict) -> list[str]:
    return (_header(doc) + _verdict_lines("membership", doc["membership"])
            + _verdict_lines("iterated", doc["iterated"])
            + [f"overall: {doc['overall']}"])


def _derive_text(doc: dict) -> list[str]:
    lines = _header(doc) + [f"method: {doc['method']}"]
    if doc["membership"] is None:
        lines.append("membership: skipped (--skip-membership)")
    else:
        lines += _verdict_lines("membership", doc["membership"])
    reports = doc["reports"]
    for r in reports:
        shares = "-" if r["shares"] is None else repr(r["shares"])
        extra = f" [{r['degenerate_reason']}]" if r["degenerate_reason"] else ""
        lines.append(
            f"point {r['point']!r}: f={r['value']!r} shares={shares} "
            f"sum={r['share_sum']!r} sum_to_one={r['sum_to_one']} "
            f"equal_shares={r['equal_shares']}{extra}")
    membership = doc["membership"]
    if membership is None or membership["status"] == Status.PASS:  # it ran
        s, e = (Counter(r[claim] for r in reports)
                for claim in ("sum_to_one", "equal_shares"))
        lines.append(
            f"summary: points={len(reports)} skipped={doc['points_skipped']} | "
            f"sum_to_one {s['PASS']}/{s['FAIL']}/{s['DEGENERATE']} "
            f"(pass/fail/degenerate) | equal_shares "
            f"{e['PASS']}/{e['FAIL']}/{e['DEGENERATE']}")
    lines.append(f"overall: {doc['overall']}")
    return lines


def _enumerate_text(doc: dict) -> list[str]:
    lines = [f"ouro enumerate: m={doc['m']}", f"count: {doc['count']}"]
    return lines + [" ".join(map(str, table)) for table in doc["maps"] or ()]


def _enumerate_csv(doc: dict) -> list[str]:
    return [f"# m={doc['m']} count={doc['count']}"] + [
        ",".join(map(str, table)) for table in doc["maps"] or ()]


def _catalog_text(doc: dict) -> list[str]:
    lines = [f"ouro catalog: {len(doc['entries'])} entries"]
    for e in doc["entries"]:
        flags = "".join(letter if e["flags"][flag] else "-" for flag, letter in (
            ("smooth", "s"), ("symmetric", "y"), ("exact_fixed_points", "x")))
        defaults = ", ".join(f"{k}={v!r}" for k, v in e["defaults"].items())
        lo, hi = e["interval"]
        lines.append(
            f"{e['name']:<24} {e['kind']:<20} arity {e['arity']:<12} "
            f"box [{lo!r}, {hi!r}] flags {flags} "
            f"defaults: {defaults or '-'}")
        lines.append(f"{'':<24} {e['summary']}")
    lines.append("flags: s=smooth y=symmetric x=exact_fixed_points")
    return lines


_RENDERERS = {
    ("check", "text"): _check_text,
    ("derive", "text"): _derive_text,
    ("enumerate", "text"): _enumerate_text,
    ("enumerate", "csv"): _enumerate_csv,
    ("catalog", "text"): _catalog_text,
}


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


def _status_exit(overall: Status, strict_degenerate: bool = False) -> int:
    if overall is Status.FAIL:
        return 1
    if overall is Status.DOMAIN_ERROR:
        return 3
    if overall is Status.DEGENERATE and strict_degenerate:
        return 1
    return 0


def cmd_check(o: dict) -> int:
    """membership and iterated checks"""
    target, _, box, target_doc = _resolve_target(o)
    plan, plan_doc = _resolve_plan(o)
    membership = check_membership(target, box, plan)
    iterated = check_iterated(target, box, plan)
    overall = _overall_status([membership.status, iterated.status])
    _emit("check", {"target": target_doc, "box": box.intervals,
                    "plan": plan_doc,
                    "membership": _verdict_doc(membership),
                    "iterated": _verdict_doc(iterated),
                    "overall": overall}, o)
    return _status_exit(overall)


def cmd_derive(o: dict) -> int:
    """derivative unity checks"""
    target, names, box, target_doc = _resolve_target(o)
    if names is None:
        raise UsageError("derivative checks apply to scalar entries only")
    plan, plan_doc = _resolve_plan(o)
    point = _resolve_point(o, names, box)
    method = o["method"]

    membership = None
    if not o["skip_membership"]:
        membership = check_membership(target, box, plan)

    reports: list[_deriv.UnityReport] = []
    skipped = 0
    if membership is None or membership.status is Status.PASS:
        if point is not None:
            reports.append(_deriv.check_unity(target, point, plan, method))
        else:
            sweep = _deriv.unity_sweep(target, box, plan, method)
            reports = list(sweep.reports)
            skipped = sweep.points_skipped

    statuses = [] if membership is None else [membership.status]
    statuses += [s for r in reports for s in (r.sum_to_one, r.equal_shares)]
    if skipped and not reports:  # every sample sat on a kink: none checked
        statuses.append(Status.DEGENERATE)
    overall = _overall_status(statuses)
    _emit("derive", {"target": target_doc, "box": box.intervals,
                     "plan": plan_doc, "method": method,
                     "membership": (None if membership is None
                                    else _verdict_doc(membership)),
                     "reports": [_unity_doc(r) for r in reports],
                     "points_skipped": skipped,
                     "overall": overall}, o)
    return _status_exit(overall, o["strict_degenerate"])


def cmd_enumerate(o: dict) -> int:
    """idempotent maps on {0..m-1}"""
    m = o["m"]
    if m is None:
        raise UsageError("--m is required")
    try:
        maps = None if o["count_only"] else _finite.enumerate_idempotent(m)
        count = _finite.count_idempotent(m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if maps is not None and count != len(maps):
        # the closed form is cross-checked whenever the maps are listed
        raise AssertionError(f"count mismatch for m={m}: {count} vs {len(maps)}")
    _emit("enumerate", {
        "m": m, "count": count,
        "maps": None if maps is None else [f.table for f in maps]}, o)
    return 0


def cmd_catalog(o: dict) -> int:
    """list built-in families"""
    _emit("catalog", {"entries": [{
        "name": e.name, "kind": e.kind, "summary": e.summary,
        "arity": e.arity,
        "params": [{"name": n, "meaning": m} for n, m in e.params],
        "defaults": dict(sorted(e.defaults.items())),
        "interval": e.interval,
        "flags": {"smooth": e.smooth, "symmetric": e.symmetric,
                  "exact_fixed_points": e.exact_fixed_points},
    } for e in _catalog.list_entries()]}, o)
    return 0


_HANDLERS = {"check": cmd_check, "derive": cmd_derive,
             "enumerate": cmd_enumerate, "catalog": cmd_catalog}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return _HANDLERS[ns.command](_effective_options(ns))
    except SystemExit as exc:  # argparse: 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    except (UsageError, OSError) as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 3
    except _deriv.KinkPointError as exc:  # read, loading deriv, only here
        print(f"ouro: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
