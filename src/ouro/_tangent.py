"""Tangent functions: the source emitter of ouro.deriv's forward mode.

One function is generated per expression and seed layout.  The layout says
which seed components are 0.0 or 1.0, so each derivative rule of ouro.deriv
is unrolled into one statement per tangent component whose value is not
known when the source is written, and a component that is known costs
nothing: x_i^p has a non-zero tangent only in component i.  This is
source-transformation forward mode with static sparsity (Griewank & Walther,
Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 3 and 7).

Values come from the very statements evaluate's generated function runs, so
the value is bit-identical to evaluate(...) by construction.  Each component
runs its rule's own float operations in the rule's order, and a component is
known early only when its bits are, sign of zero included; so the tangent,
each kink check and each error, with its node, are those of the rules in
ouro.deriv (BINARY_TANGENTS, _call_tangent), which tests/test_deriv.py
compares bit for bit.

deriv loads this module with the first tangent function it builds, so a
command that takes no derivative never compiles it.
"""

from __future__ import annotations

import math

from .deriv import (_COMPONENT_RULES, KinkPointError, Layout, Tangent,
                    _same_bits)
from .expr import (BINARY_RULES, BinOp, Call, Const, Expr, Neg, Var,
                   _ValueSource)


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
    """The source of one expression's tangent function for one seed layout,
    tangent(env, seeds, margin) -> (value, tangent).

    layout[j] is the tangent of the j-th variable read, Program.names[j]:
    each component is 0.0 or 1.0, known when the source is written, or None
    for one the function reads from seeds[j].  The empty layout has width
    0: the function runs the values and the kink checks only.  A constant's
    tangent is zero.

    Each builder returns its node's value, a local's name, and its tangent,
    a tuple of floats known now and _Terms.  It emits the value and its
    check through _ValueSource's own builder, then the kink checks and
    errors of the node's rule in the rule's order, then one statement per
    component not known now, then the check that those are finite.
    """

    params = "env, seeds, margin"

    def __init__(self, layout: Layout = ()):
        super().__init__()
        self.layout = layout
        self.width = len(layout[0]) if layout else 0
        self.namespace.update(KinkPointError=KinkPointError,
                              floor=math.floor, log=math.log)
        self.static: dict[str, float] = {}  # a constant's global -> value
        self.floats: dict[str, str] = {}  # float.hex -> its global
        self.tangents: dict[str, Tangent] = {}  # variable -> its tangent
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
        `node`, those not known finite are checked, as the rules' caller
        checks the whole tangent."""
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
            j, tangent = len(self.tangents), []
            for k, d in enumerate(self.layout[j] if self.layout else ()):
                if d is None:
                    d = _Term(self, self.fresh())
                    self.lines.append(f"{d.code} = seeds[{j}][{k}]")
                tangent.append(d)
            tangent = self.tangents[node.name] = tuple(tangent)
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

    # -- the builtins of _call_tangent, unrolled

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

    # -- _pow_tangent, unrolled

    def power(self, node: BinOp, a: str, at, b: str, bt, v: str) -> list:
        """Each component takes the branch its exponent component selects,
        decided now where that component is known.  The base a^(b-1) is
        computed where a component needs it; the same inputs give the same
        bits and the same error, so it is computed again unless every path
        has computed it already.  A varying exponent needs a positive
        base."""
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
