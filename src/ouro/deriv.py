"""Derivatives of idempotent candidates: forward-mode duals, central
differences, and the unity checks.

An idempotent f: A^n -> A satisfies f(f(x),...,f(x)) = f(x).  Where f is C^1
and the gradient at x does not vanish, differentiating that identity forces
the partials of f at the diagonal point (f(x),...,f(x)) to sum to exactly 1;
for n = 1 this reads f'(f(x)) = 1.  Whether those partials are furthermore
all equal to 1/n is a separate claim: it holds for symmetric candidates but
fails for, say, a weighted mean, so the two claims are always reported
separately.

Points where the hypotheses fail are never counted as violations: a vanishing
gradient (|grad f(x)| below GRADIENT_FLOOR) or a non-smooth diagonal point
yields DEGENERATE.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping

from ._record import Record
from .expr import (
    BINARY_RULES, BinOp, Call, Const, EvalDomainError, Expr, Neg,
    UnboundVariableError, Var, _ValueSource, evaluate,
)
from .verify import DomainBox, SamplePlan, Status, _expr_names

__all__ = [
    "KinkPointError", "UnityReport", "UnitySweep",
    "dual_eval", "fd_partial", "gradient",
    "check_unity", "unity_sweep",
    "GRADIENT_FLOOR", "TOL_UNITY", "KINK_RETRY_LIMIT",
]

# Identity checks run at 1e-6 with exact forward-mode derivatives and at a
# looser 1e-4 when both sides come from finite differences.
TOL_UNITY = {"dual": 1e-6, "fd": 1e-4}

# Below this max-norm of grad f(x) the differentiated identity is vacuous
# (0 = 0), so the point is reported DEGENERATE rather than checked.
GRADIENT_FLOOR = 1e-8

# How many fresh points to try when a sample lands within kink_margin of a
# non-smooth locus before giving up on that sample.
KINK_RETRY_LIMIT = 16


class KinkPointError(ValueError):
    """Evaluation touched a non-differentiable locus (jump or corner)."""

    def __init__(self, site: str):
        super().__init__(f"derivative undefined: {site}")
        self.site = site


# ---------------------------------------------------------------------------
# tangent functions
#
# Vector forward mode: every node has a value and a tangent, a tuple of any
# width holding one directional derivative per seed direction.
# _TangentSource states each derivative rule once, as the source it emits:
# one builder per node type and one per builtin of expr.BUILTIN_RULES.  It
# generates one function per expression and seeds.  The seeds are known
# when the source is written, each component 0.0 or 1.0, so each rule is
# written as one statement per tangent component not known then, and a
# known component costs nothing: x_i^p has a non-zero tangent only in
# component i.  This is source-transformation forward mode with static
# sparsity (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008,
# ch. 3 and 7).
#
# Values come from the very statements evaluate's generated function runs,
# so the value is bit-identical to evaluate(...) by construction.  Each
# component runs its rule's float operations in a fixed order, and a
# component is known early only when its bits are, sign of zero included.
# tests/test_deriv.py keeps the reference: the same rules written over
# whole tangents and run by a closure walk.  The generated functions match
# its tangents, kink checks and errors, with their nodes, bit for bit.

Tangent = tuple[float, ...]


# The rules of + - * /, one tangent component at a time:
# (a, a'_k, b, b'_k, value) -> component k.  They are plain float
# arithmetic, so each runs unchanged on floats and on the _Terms of a
# generated tangent function.
_COMPONENT_RULES = {
    "+": lambda a, da, b, db, v: da + db,
    "-": lambda a, da, b, db, v: da - db,
    "*": lambda a, da, b, db, v: da * b + a * db,
    "/": lambda a, da, b, db, v: (da - v * db) / b,
}


def _same_bits(x: float, y: float) -> bool:
    return x.hex() == y.hex()


def _is(x, constant: float) -> bool:
    return type(x) is float and _same_bits(x, constant)


def _finite(x) -> bool:
    return x.finite if isinstance(x, _Term) else math.isfinite(x)


def _arith(x, op: str, y):
    """x <op> y where at least one side is a _Term.  Folds only what holds
    bit for bit for every float: x * 1.0, x + -0.0 and x - 0.0 are x."""
    if _is(y, 1.0) and op == "*" or _is(y, -0.0) and op == "+" or (
            _is(y, 0.0) and op == "-"):
        return x
    if _is(x, 1.0) and op == "*" or _is(x, -0.0) and op == "+":
        return y
    source = (x if isinstance(x, _Term) else y).source
    return _Term(source, f"({source.code(x)} {op} {source.code(y)})")


class _Term:
    """A float the generated function computes when it runs: `code` is a
    Python expression over its locals and globals.  `finite` says it is
    known to be finite: a value, or a component already checked.  Float
    arithmetic on terms writes larger expressions, so a rule written in
    float arithmetic runs unchanged on them."""

    __slots__ = ("source", "code", "finite")

    def __init__(self, source: "_TangentSource", code: str,
                 finite: bool = False):
        self.source = source
        self.code = code
        self.finite = finite

    def __add__(self, y): return _arith(self, "+", y)
    def __radd__(self, x): return _arith(x, "+", self)
    def __sub__(self, y): return _arith(self, "-", y)
    def __rsub__(self, x): return _arith(x, "-", self)
    def __mul__(self, y): return _arith(self, "*", y)
    def __rmul__(self, x): return _arith(x, "*", self)
    def __truediv__(self, y): return _arith(self, "/", y)
    def __rtruediv__(self, x): return _arith(x, "/", self)

    def __neg__(self):
        return _Term(self.source, f"(-{self.code})", self.finite)


class _TangentSource(_ValueSource):
    """The source of one expression's tangent function for `seeds`,
    tangent(env, margin) -> (value, tangent), kept in Program.generated
    under its seeds.

    seeds[j] is the tangent of the j-th variable read, Program.names[j].
    Every component is 0.0 or 1.0: the key compares floats by value, so a
    -0.0 would share the function of 0.0.  The empty seeds have width 0:
    the function runs the values and the kink checks only.  A constant's
    tangent is zero.

    Each builder states its node's derivative rule.  It returns the node's
    value, a local's name, and its tangent, a tuple of floats known now and
    _Terms.  It emits the value and its check through _ValueSource's own
    builder, then the rule's kink checks and errors, then one statement per
    component not known now, then the check that those are finite.
    """

    params = "env, margin"

    def __init__(self, seeds: tuple[Tangent, ...] = ()):
        super().__init__()
        self.width = len(seeds[0]) if seeds else 0
        self.unread = iter(seeds)  # the seeds of variables not read yet
        self.namespace.update(KinkPointError=KinkPointError,
                              floor=math.floor, log=math.log)
        self.static: dict[str, float] = {}  # a constant's global -> value
        self.floats: dict[str, str] = {}  # float.hex -> its global
        self.tangents: dict[str, Tangent] = {}  # variable -> its seed
        self.calls = {"abs": self.corner, "relu": self.corner,
                      "sign": self.corner, "floor": self.jump,
                      "ceil": self.jump, "exp": self.exp, "ln": self.ln,
                      "sqrt": self.sqrt, "min": self.min_max,
                      "max": self.min_max, "clamp": self.clamp}

    def code(self, x) -> str:
        """Source for x: a term's expression, or a float's global."""
        if isinstance(x, _Term):
            return x.code
        name = self.floats.get(x.hex())
        if name is None:
            name = self.floats[x.hex()] = self.bind(x)
        return name

    def operand(self, name: str):
        """A value as a rule's operand: a constant's float, else a term."""
        if name in self.static:
            return self.static[name]
        return _Term(self, name, True)

    def settle(self, comps, node: Expr | None = None,
               inputs: tuple[str, ...] = ()) -> Tangent:
        """comps, each term's expression assigned to a local; for a checked
        `node`, those not known finite are checked, so that the whole
        tangent is."""
        out, unchecked = [], []
        for d in comps:
            if node is not None and type(d) is float and not math.isfinite(d):
                d = _Term(self, self.code(d))  # known now; raises when run
            if isinstance(d, _Term):
                if not d.code.isidentifier():
                    local = self.fresh()
                    self.lines.append(f"{local} = {d.code}")
                    d = _Term(self, local, d.finite)
                if not d.finite and node is not None:
                    unchecked.append(d.code)
                    d = _Term(self, d.code, True)
            out.append(d)
        if unchecked:
            self.lines += [
                f"if not ({' and '.join(f'isfinite({c})' for c in unchecked)}):",
                f"    raise EvalDomainError({self.bind(node)}, "
                f"({', '.join(inputs)},), 'derivative is not finite')"]
        return tuple(out)

    def kink(self, cond: str, site: str, *args: str) -> None:
        """Raise KinkPointError(site % args) where cond holds."""
        message = self.bind(site)
        if args:
            message += f" % ({', '.join(args)},)"
        self.lines += [f"if {cond}:", f"    raise KinkPointError({message})"]

    def select(self, cond: str, xs, ys) -> list:
        """Per component, x where cond holds when the function runs, else y."""
        out = []
        for x, y in zip(xs, ys):
            if x is y or type(x) is type(y) is float and _same_bits(x, y):
                out.append(x)
            else:
                out.append(_Term(
                    self, f"({self.code(x)} if {cond} else {self.code(y)})",
                    _finite(x) and _finite(y)))
        return out

    def const(self, node: Const):
        name = super().const(node)
        self.static[name] = node.value
        return name, (0.0,) * self.width

    def var(self, node: Var):
        value = super().var(node)
        tangent = self.tangents.get(node.name)
        if tangent is None:
            tangent = self.tangents[node.name] = next(self.unread, ())
        return value, tangent

    def neg(self, node: Neg, operand):
        a, at = operand
        return super().neg(node, a), self.settle([-d for d in at])

    def binop(self, node: BinOp, left, right):
        (a, at), (b, bt) = left, right
        v = super().binop(node, a, b)
        if node.op == "^":
            comps = self.power(node, a, at, b, bt, v)
        else:
            rule = _COMPONENT_RULES[node.op]
            A, B, V = self.operand(a), self.operand(b), self.operand(v)
            comps = [rule(A, da, B, db, V) for da, db in zip(at, bt)]
        return v, self.settle(comps, node, (a, b))

    def call(self, node: Call, *args):
        values = tuple(a for a, _ in args)
        v = super().call(node, *values)
        comps = self.calls[node.func](node, v, *args)
        return v, self.settle(comps, node, values)

    def returns(self, result) -> str:
        v, t = result
        return f"{v}, ({''.join(self.code(d) + ', ' for d in t)})"

    # -- the builtins, keyed like expr.BUILTIN_RULES

    def corner(self, node: Call, v: str, arg):
        (a, t), func = arg, node.func
        kind = "jump" if func == "sign" else "corner"
        self.kink(f"abs({a}) <= margin", f"{func} at its {kind} 0")
        if func == "sign":
            return [0.0] * len(t)
        other = [-d for d in t] if func == "abs" else [0.0] * len(t)
        return self.select(f"{a} > 0.0", t, other)

    def jump(self, node: Call, v: str, arg):
        (a, t), frac = arg, self.fresh()
        self.lines.append(f"{frac} = {a} - floor({a})")
        self.kink(f"{frac} <= margin or 1.0 - {frac} <= margin",
                  f"{node.func} at a jump near %r", a)
        return [0.0] * len(t)

    def exp(self, node: Call, v: str, arg):
        V = _Term(self, v, True)
        return [d * V for d in arg[1]]

    def ln(self, node: Call, v: str, arg):
        A = _Term(self, arg[0], True)  # never folded: a constant may be 0
        return [d / A for d in arg[1]]

    def sqrt(self, node: Call, v: str, arg):
        a, t = arg
        known = any(d != 0.0 for d in t if type(d) is float)
        unknown = [f"{d.code} != 0.0" for d in t if isinstance(d, _Term)]
        if known or unknown:
            cond = f"{a} == 0.0"
            if not known:
                cond += f" and ({' or '.join(unknown)})"
            self.lines += [
                f"if {cond}:",
                f"    raise EvalDomainError({self.bind(node)}, ({a},), "
                "'derivative of sqrt at zero')"]
        V = _Term(self, v, True)
        return self.select(f"{a} != 0.0", [d * 0.5 / V for d in t],
                           [0.0] * len(t))

    def min_max(self, node: Call, v: str, left, right):
        (a, t), (b, bt), func = left, right, node.func
        self.kink(f"abs({a} - {b}) <= margin", f"{func} tie at %r", a)
        return self.select(f"{a} {'<=' if func == 'min' else '>='} {b}",
                           t, bt)

    def clamp(self, node: Call, v: str, arg, lower, upper):
        (a, t), (lo, lot), (hi, hit) = arg, lower, upper
        self.kink(f"abs({a} - {lo}) <= margin",
                  "clamp lower corner tie at %r", a)
        m = self.fresh()
        self.lines.append(f"{m} = {a} if {a} >= {lo} else {lo}")
        self.kink(f"abs({m} - {hi}) <= margin",
                  "clamp upper corner tie at %r", m)
        return self.select(f"{m} <= {hi}",
                           self.select(f"{a} >= {lo}", t, lot), hit)

    # -- the power rule

    def power(self, node: BinOp, a: str, at, b: str, bt, v: str) -> list:
        """Component k of d(a^b) is b * a^(b-1) * a'_k where b'_k is 0.0
        (0.0 where a'_k or b is), else a^b * (b'_k * ln a + b * a'_k / a),
        which needs a positive base.  Each component takes the branch its
        exponent component selects, decided now where that component is
        known.  The base a^(b-1) is computed where a component needs it;
        the same inputs give the same bits and the same error, so it is
        computed again unless every path has computed it already."""
        here, inputs = self.bind(node), f"({a}, {b},)"
        B = self.operand(b)
        base = _Term(self, self.fresh(), True)
        computed = False  # on every path to the statement being written
        lines = self.lines
        positive = [f"if {a} <= 0.0:",
                    f"    raise EvalDomainError({here}, {inputs}, "
                    "'varying exponent needs a positive base')"]

        def indent(block: list[str]) -> list[str]:
            return ["    " + line for line in block]

        def get_base(conditional: bool) -> list[str]:
            nonlocal computed
            if computed:
                return []
            computed = not conditional
            return ["try:",
                    f"    {base.code} = {self.bind(BINARY_RULES['^'])}"
                    f"({a}, {b} - 1.0)",
                    "except Undefined as exc:",
                    f"    raise EvalDomainError({here}, {inputs}, str(exc))"
                    " from None"]

        def constant_exponent(da, out: str) -> list[str]:
            """Statements setting `out` to b * base * da, or to 0.0 where
            da or b is 0.0."""
            if _is_zero(da) or _is_zero(B):
                return [f"{out} = {self.code(0.0)}"]
            conds = [f"{x.code} != 0.0" for x in (da, B) if isinstance(x, _Term)]
            assign = f"{out} = {self.code(B * base * da)}"
            if not conds:
                return [*get_base(True), assign]
            return [f"if {' and '.join(conds)}:",
                    *indent([*get_base(True), assign]),
                    "else:", f"    {out} = {self.code(0.0)}"]

        def varying_exponent(da, db):
            return (_Term(self, v, True)
                    * (db * _Term(self, f"log({a})", True)
                       + B * da / _Term(self, a, True)))

        comps = []
        for da, db in zip(at, bt):
            if isinstance(db, _Term):
                out = self.fresh()
                lines += [f"if {db.code} == 0.0:",
                          *indent(constant_exponent(da, out)),
                          "else:", *indent(positive),
                          f"    {out} = {self.code(varying_exponent(da, db))}"]
                comps.append(_Term(self, out))
            elif db != 0.0:
                lines += positive
                comps.append(varying_exponent(da, db))
            elif _is_zero(da) or _is_zero(B):
                comps.append(0.0)
            elif isinstance(da, _Term) or isinstance(B, _Term):
                out = self.fresh()
                lines += constant_exponent(da, out)
                comps.append(_Term(self, out))
            else:
                lines += get_base(False)
                comps.append(B * base * da)
        return comps


def _is_zero(x) -> bool:
    """x is known now to be 0.0 or -0.0."""
    return type(x) is float and x == 0.0


@cache
def _unit_seeds(n: int) -> tuple[Tangent, ...]:
    """The n unit seeds of width n."""
    return tuple(tuple([1.0 if k == j else 0.0 for k in range(n)])
                 for j in range(n))


def dual_eval(f: Expr, env: Mapping[str, float], i: int, *,
              kink_margin: float = 0.0) -> tuple[float, float]:
    """Value and exact partial d f / d x_i at `env` by forward mode.

    Coordinates are indexed by first appearance, matching free_variables(f).
    The value half is bit-identical to evaluate(f, env).  KinkPointError is
    raised when any non-smooth builtin is evaluated within kink_margin of
    its jump or corner (and always when exactly on it).
    """
    names = f.program.names
    if not 0 <= i < len(names):
        raise ValueError(f"coordinate {i} out of range for {len(names)} variable(s)")
    seeds = tuple([(1.0,) if j == i else (0.0,) for j in range(len(names))])
    tangent = f.program.generated(_TangentSource, seeds)
    value, (deriv,) = tangent(env, kink_margin)
    return value, deriv


def fd_partial(f: Expr, env: Mapping[str, float], i: int) -> float:
    """Central-difference estimate of d f / d x_i at `env`, with step
    h = 1e-6 * max(1, |x_i|).

    Where one probe, x_i + h or x_i - h, raises EvalDomainError, the
    one-sided difference on the other side is taken; where both do, the
    upper probe's error propagates.  Keeping the probes away from kinks is
    the caller's part (the step is not validated against the box).
    """
    names = f.program.names
    if not 0 <= i < len(names):
        raise ValueError(f"coordinate {i} out of range for {len(names)} variable(s)")
    name = names[i]
    if name not in env:
        raise UnboundVariableError(name)
    x = env[name]
    if not math.isfinite(x):
        evaluate(f, env)  # raises the binding error for x as bound
    h = 1e-6 * max(1.0, abs(x))
    probe, ends, errors = dict(env), [], []
    for step in (h, -h):
        probe[name] = x + step
        try:
            ends.append((step, evaluate(f, probe)))
        except EvalDomainError as exc:
            errors.append(exc)
    if not ends:
        raise errors[0]
    if errors:  # x itself stands in for the probe that left the domain
        ends.append((0.0, evaluate(f, env)))
    (s0, y0), (s1, y1) = ends
    return (y0 - y1) / (s0 - s1)


def _gradient_walk(f: Expr, names: list[str], method: str):
    """The function (env, margin) -> f's value and gradient at env by
    `method`; its tangent function is looked up once."""
    if method not in TOL_UNITY:
        raise ValueError(f"unknown method {method!r}")
    if method == "dual":
        return f.program.generated(_TangentSource, _unit_seeds(len(names)))
    # Finite differencing cannot see kinks on its own: a width-0 walk
    # screens the point first.
    screen = f.program.generated(_TangentSource, ())

    def walk(env, margin):
        value, _ = screen(env, margin)
        return value, tuple([fd_partial(f, env, i) for i in range(len(names))])
    return walk


def gradient(f: Expr, env: Mapping[str, float], method: str = "dual", *,
             kink_margin: float = 0.0) -> tuple[float, ...]:
    """All partials of f at `env` by the chosen method."""
    return _gradient_walk(f, f.program.names, method)(env, kink_margin)[1]


class UnityReport(Record):
    """Outcome of the derivative identity checks at one point.

    sum_to_one constrains the sum of the diagonal partials to 1;
    equal_shares additionally constrains every partial to 1/n.  The two are
    independent claims and are always reported side by side.
    """

    n: int
    point: tuple[float, ...]
    value: float
    outer_gradient: tuple[float, ...]
    shares: tuple[float, ...] | None
    share_sum: float | None
    sum_to_one: Status
    equal_shares: Status
    method: str
    tol: float
    degenerate_reason: str | None = None


class UnitySweep(Record):
    reports: tuple[UnityReport, ...]
    points_skipped: int


def check_unity(f: Expr, env: Mapping[str, float], plan: SamplePlan,
                method: str = "dual") -> UnityReport:
    """Evaluate both unity claims for f at one point.

    DEGENERATE (for both claims) when |grad f(x)| is below the floor --
    there the differentiated identity is vacuous -- or when the diagonal
    point is a kink, where the partials do not exist.  Raises
    KinkPointError if x itself sits on a kink of the outer gradient.  Both
    claims are compared at TOL_UNITY[method].
    """
    names = f.program.names
    walk = _gradient_walk(f, names, method)
    tol = TOL_UNITY[method]
    n = len(names)
    if n == 0:
        raise ValueError("candidate has no free variables")
    margin = plan.kink_margin
    value, outer = walk(env, margin)
    zero_grad = max(map(abs, outer)) <= GRADIENT_FLOOR

    shares: tuple[float, ...] | None
    try:  # value is finite, so the diagonal point binds every name
        diag = dict.fromkeys(names, value)
        shares = walk(diag, margin)[1]
        share_sum = sum(shares)
    except KinkPointError:
        shares = None
        share_sum = None

    if zero_grad:
        reason = "zero_gradient"
    elif shares is None:
        reason = "kink_diagonal"
    else:
        reason = None

    if reason is not None:
        sum_status = equal_status = Status.DEGENERATE
    else:
        sum_status = Status.PASS if abs(share_sum - 1.0) <= tol else Status.FAIL
        target = 1.0 / n
        worst = max([abs(s - target) for s in shares])
        equal_status = Status.PASS if worst <= tol else Status.FAIL

    point = tuple([env[name] for name in names])
    return UnityReport(n, point, value, outer, shares, share_sum,
                       sum_status, equal_status, method, tol, reason)


def unity_sweep(f: Expr, domain: DomainBox, plan: SamplePlan,
                method: str = "dual") -> UnitySweep:
    """Run check_unity at plan.sample_count sampled points.

    A point whose outer gradient touches a kink is replaced by up to
    KINK_RETRY_LIMIT fresh draws; if all retries land on kinks too, the
    sample is counted in points_skipped.  Results are independent of
    evaluation order: candidate j for sample i depends only on (seed, i, j).
    The box must fit f as verify's membership check requires: one interval
    per variable, all of them the same.
    """
    names = _expr_names(f, domain)
    reports = []
    skipped = 0
    stride = KINK_RETRY_LIMIT + 1
    for i in range(plan.sample_count):
        placed = False
        for r in range(stride):
            point = domain.sample_point(plan.seed, i * stride + r)
            env = dict(zip(names, point))
            try:
                reports.append(check_unity(f, env, plan, method))
                placed = True
                break
            except KinkPointError:
                continue
        if not placed:
            skipped += 1
    return UnitySweep(tuple(reports), skipped)
