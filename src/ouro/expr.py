"""Expression DSL for candidate functions over the reals.

Grammar:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

NUMBER is an unsigned decimal literal with optional fraction and exponent
("2", "0.5", ".5", "1e-3").  IDENT is a letter followed by letters, digits
or underscores.  An IDENT whose next token is "(" is a builtin call, with
or without white space between them: "abs (x)" is abs(x), and "x (1)" is
the error "unknown builtin 'x'".  Any other IDENT is a free variable.
Spaces, tabs, carriage returns and newlines separate tokens.

The table _BINARY states how each binary operator binds, and the
tokenizer, the parser, format_expr and BinOp all read it.  "+ -" bind
loosest, then "* /", then unary minus, then "^".  All are left-associative
except "^", which is right-associative and takes an atom as its base, so
"-x^2" means -(x^2) while "x^-2" carries the sign in the exponent.  No walk
over an expression recurses, so nesting depth is bounded only by memory.

Evaluation is plain float arithmetic and deterministic: the same expression
and environment always produce the same bits.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import Callable, Mapping

from ._record import Record

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Call",
    "BUILTIN_ARITY", "ParseError", "EvaluationError",
    "UnboundVariableError", "EvalDomainError",
    "parse", "evaluate", "format_expr", "free_variables",
]

# Binary operator -> (its level, the least level of its left operand, the
# least level of its right operand, its spelling).  An operand of a lower
# level is parenthesised.  Unary minus sits at _NEG, and so does its
# operand's least level; numbers, names, calls and parenthesised groups
# are atoms.
_BINARY = {
    "+": (1, 1, 2, " + "),
    "-": (1, 1, 2, " - "),
    "*": (2, 2, 3, " * "),
    "/": (2, 2, 3, " / "),
    "^": (4, 5, 3, "^"),
}
_NEG, _ATOM = 3, 5

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")


class ParseError(ValueError):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EvaluationError(ValueError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class EvalDomainError(EvaluationError):
    """Arithmetic left the real domain (division by zero, ln of a
    non-positive number, overflow to infinity, ...)."""

    def __init__(self, node: "Expr", inputs: tuple, detail: str):
        super().__init__(
            f"{detail} in {format_expr(node)!r} with arguments {inputs}")
        self.node = node
        self.inputs = inputs
        self.detail = detail


class Expr(Record):
    """Base class for AST nodes.  Nodes are immutable records (see
    `_record.Record`): they compare and hash structurally by their fields,
    and `_asdict()` gives the fields by name.  The compiled `program` is
    kept in the instance __dict__ beside the fields and is not compared; a
    copy or a pickle is the canonical text, parsed back at any depth."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()

    @cached_property
    def program(self) -> "Program":
        """This expression compiled, built on first use and kept."""
        return Program(self)

    def __reduce__(self):
        return parse, (format_expr(self),)


class Const(Expr):
    """A numeric literal.  `value` is its float, derived from `literal`
    and neither compared nor shown."""

    literal: str

    def __post_init__(self):
        if not _NUMBER_RE.fullmatch(self.literal):
            raise ValueError(f"bad numeric literal {self.literal!r}")
        v = float(self.literal)
        if not math.isfinite(v):
            raise ValueError(f"literal {self.literal!r} is not finite")
        self.__dict__["value"] = v


class Var(Expr):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"bad variable name {self.name!r}")


class Neg(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _BINARY:
            raise ValueError(f"bad operator {self.op!r}")

    def children(self):
        return (self.left, self.right)


class Call(Expr):
    func: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        arity = BUILTIN_ARITY.get(self.func)
        if arity is None:
            raise ValueError(f"unknown builtin {self.func!r}")
        if len(self.args) != arity:
            raise ValueError(
                f"{self.func} takes {arity} argument(s), got {len(self.args)}")
        object.__setattr__(self, "args", tuple(self.args))

    def children(self):
        return self.args


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    rf"|(?P<number>{_NUMBER_RE.pattern})"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    rf"|(?P<op>[{re.escape(''.join(_BINARY))}])"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<bad>.)", re.DOTALL)


def _error(source: str, offset: int, message: str) -> ParseError:
    """A ParseError at the 1-based line and column of `offset`."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Each token of `source` as (kind, text, offset), then ("eof", "end of
    input", len(source)).  kind is number, ident, op, lparen, rparen or
    comma."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(source, m.start(),
                         f"unexpected character {m.group()!r}")
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "end of input", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# operator-precedence parser

def parse(source: str) -> Expr:
    """Parse DSL source into an AST.  Raises ParseError with a 1-based
    line/column on any malformed input.

    One loop reads the tokens with two explicit stacks, so nesting depth is
    bounded only by memory.  `operands` holds finished subtrees.  `pending`
    holds operators still waiting for their right operand and open groups,
    innermost last: an operator as (least level of its right operand, op),
    op None for unary minus, and a group as (0, call), call None for a
    parenthesis and (name, offset, args) for a builtin call.  An incoming
    operator of level L first builds every pending operator whose right
    operand must bind tighter than L; a group's 0 stops it.
    """
    tokens = _tokenize(source)
    operands: list[Expr] = []
    pending: list[tuple] = []

    def reduce(level: int) -> None:
        while pending and pending[-1][0] > level:
            op = pending.pop()[1]
            right = operands.pop()
            operands.append(BinOp(op, operands.pop(), right) if op else Neg(right))

    def unexpected(message: str) -> ParseError:  # at the current token
        return _error(source, at, f"{message} (at {text!r})")

    want_operand = True
    i = 0
    while True:
        kind, text, at = tokens[i]
        i += 1
        if want_operand:
            if kind == "number":
                try:
                    operands.append(Const(text))
                except ValueError as exc:
                    raise _error(source, at, str(exc)) from None
                want_operand = False
            elif kind == "ident" and tokens[i][0] == "lparen":
                pending.append((0, (text, at, [])))
                i += 1
            elif kind == "ident":
                operands.append(Var(text))
                want_operand = False
            elif kind == "lparen":
                pending.append((0, None))
            elif text == "-":
                pending.append((_NEG, None))
            else:
                raise unexpected("expected a number, name or '('")
            continue
        if kind == "op":
            level, _, right, _ = _BINARY[text]
            reduce(level)
            pending.append((right, text))
            want_operand = True
            continue
        reduce(0)
        if not pending:
            if kind == "eof":
                return operands[0]
            raise unexpected("unexpected trailing input")
        call = pending[-1][1]
        if call is None:
            if kind != "rparen":
                raise unexpected("expected ')'")
            pending.pop()
            continue
        if kind not in ("comma", "rparen"):
            raise unexpected("expected ')' or ','")
        name, start, args = call
        args.append(operands.pop())
        if kind == "comma":
            want_operand = True
            continue
        pending.pop()
        try:
            operands.append(Call(name, tuple(args)))
        except ValueError as exc:
            raise _error(source, start, str(exc)) from None


def free_variables(expr: Expr) -> list[str]:
    """Free variable names in order of first appearance."""
    return list(expr.program.names)


# ---------------------------------------------------------------------------
# evaluation
#
# _RULES is the only statement of what an operator or builtin computes: its
# parameters, then its Python source, statements whose last line is the
# result, with r as its one temporary local.  A rule takes finite floats and
# marks each input outside its domain with "raise Undefined(message)", a
# spelling that names no class.  _ValueSource.spell is the source's only
# reader: it writes a rule inline over given arguments, locals or constants'
# literals, and spells each such raise as an EvalDomainError raise.
# math.pow returns a finite float or raises, so "^" tests no result.  min
# and max keep the builtins' choice between tied values, so between 0.0 and
# -0.0 too; abs stays the builtin, since "-a if a < 0.0 else a" would keep
# -0.0.

_RULES = {
    "+": ("a", "b", "a + b"),
    "-": ("a", "b", "a - b"),
    "*": ("a", "b", "a * b"),
    "/": ("a", "b", """
        if b == 0.0:
            raise Undefined('division by zero')
        a / b"""),
    "^": ("a", "b", """
        try:
            r = math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise Undefined(f'invalid power ({exc})')
        r"""),
    "abs": ("a", "abs(a)"),
    "floor": ("a", "float(math.floor(a))"),
    "ceil": ("a", "float(math.ceil(a))"),
    "sign": ("a", "0.0 if a == 0.0 else (1.0 if a > 0.0 else -1.0)"),
    "relu": ("a", "a if a > 0.0 else 0.0"),
    "exp": ("a", """
        try:
            r = math.exp(a)
        except OverflowError:
            raise Undefined('exp overflows')
        r"""),
    "ln": ("a", """
        if a <= 0.0:
            raise Undefined('ln of a non-positive number')
        math.log(a)"""),
    "sqrt": ("a", """
        if a < 0.0:
            raise Undefined('sqrt of a negative number')
        math.sqrt(a)"""),
    "min": ("a", "b", "b if b < a else a"),
    "max": ("a", "b", "b if b > a else a"),
    "clamp": ("a", "lo", "hi", """
        r = lo if lo > a else a
        hi if hi < r else r"""),
}

# Builtin name -> required argument count.  "^" covers exponentiation; there
# is deliberately no variadic min/max at the expression level.
BUILTIN_ARITY = {name: len(rule) - 1 for name, rule in _RULES.items()
                 if name not in _BINARY}

# A string literal, the start of a domain error, or a name; compiled by re
# on first use, since only a command that evaluates an expression needs it.
_WORD = r"'[^']*'|Undefined\(|[A-Za-z_]\w*"


# ---------------------------------------------------------------------------
# compiled programs
#
# An expression is compiled once, on first use, into a Program and kept on
# its root node.  An interpreter is a source emitter: a table mapping each
# node type to a builder(node, *child_results) that appends Python source;
# _fold applies it in post-order, left to right, and _generate turns the
# source into one function.  _ValueSource emits evaluate's function;
# deriv._TangentSource extends it, so both run the same value statements.

# The operators whose result can overflow on finite operands, so the value
# source checks it after their rule; the rules of "^" and exp check their
# own.  A test pins that every other rule returns a finite float or raises.
_UNBOUNDED_OPS = ("+", "-", "*", "/")


class _ValueSource:
    """The source of one expression's value function, value(env) -> float,
    emitted node by node.

    Each builder appends the statements that compute its node into a new
    local and returns that local's name.  Every node's value is finite where
    it is made, in the tree walk's order, so the function raises what the
    walk would: a variable's binding is checked where it is first read, the
    result of + - * / is checked where it is made, and each operator and
    builtin writes its rule inline (see spell, the rules' only reader),
    raising EvalDomainError where the rule spells a raise of Undefined; a
    constant, and the negation of a finite value, need no check.  A
    constant, and so the negation of one, is written as the repr of its
    float, which reads back to the same bits: "x / -6" tests no divisor.
    No other user text reaches the source but variable names, which Var has
    validated, and only inside repr string literals: the keys and the
    binding error's message.  Nodes are reached through the function's
    globals.
    """

    params = "env"

    def __init__(self):
        self.lines: list[str] = []
        self.namespace = {"isfinite": math.isfinite, "math": math,
                          "EvalDomainError": EvalDomainError,
                          "EvaluationError": EvaluationError,
                          "UnboundVariableError": UnboundVariableError}
        self.reads: dict[str, str] = {}
        self.static: dict[str, float] = {}  # a constant's literal -> value
        self.bound: dict[int, str] = {}  # id of an object bound -> its global
        self.locals = 0
        self.table = {Const: self.const, Var: self.var, Neg: self.neg,
                      BinOp: self.binop, Call: self.call}

    def bind(self, obj) -> str:
        """The global holding obj, added on its first bind.  The namespace
        keeps obj alive, so its id names no other object meanwhile."""
        name = self.bound.get(id(obj))
        if name is None:
            name = self.bound[id(obj)] = f"g{len(self.namespace)}"
            self.namespace[name] = obj
        return name

    def fresh(self) -> str:
        self.locals += 1
        return f"v{self.locals}"

    def const(self, node: Const) -> str:
        return self.literal(node.value)

    def literal(self, value: float) -> str:
        text = repr(value)
        self.static[text] = value
        return text

    def var(self, node: Var) -> str:
        # read and checked at its first use only, which is where a missing
        # or non-finite binding raises
        out = self.reads.get(node.name)
        if out is None:
            out = self.reads[node.name] = self.fresh()
            message = f"non-finite binding {node.name}="
            self.lines += ["try:", f"    {out} = env[{node.name!r}]",
                           "except KeyError:",
                           f"    raise UnboundVariableError({node.name!r}) from None",
                           f"if not isfinite({out}):",
                           f"    raise EvaluationError({message!r} + repr({out}))"]
        return out

    def neg(self, node: Neg, operand: str) -> str:
        if operand in self.static:
            return self.literal(-self.static[operand])
        out = self.fresh()
        self.lines.append(f"{out} = -{operand}")
        return out

    def binop(self, node: BinOp, left: str, right: str) -> str:
        return self.checked(node, node.op, (left, right))

    def call(self, node: Call, *args: str) -> str:
        return self.checked(node, node.func, args)

    def checked(self, node: Expr, rule: str, args: tuple[str, ...]) -> str:
        out, here = self.fresh(), self.bind(node)
        inputs = f"({', '.join(args)},)"
        self.lines += self.spell(rule, args, out, here, inputs)
        if rule in _UNBOUNDED_OPS:
            self.lines += [
                f"if not isfinite({out}):",
                f"    raise EvalDomainError({here}, {inputs}, 'result is not finite')"]
        return out

    def spell(self, rule: str, args: tuple[str, ...], out: str, here: str,
              inputs: str) -> list[str]:
        """Rule `rule`'s statements over the expressions `args`, setting
        `out`: each parameter renamed to its argument, and each
        `raise Undefined(m)` written `raise EvalDomainError(here, inputs,
        m) from None`.  r is renamed to `out` where it is the result, else
        to `out` + "r", so each local is assigned once.  A test that reads
        only parameters whose arguments are constants, the keys of
        self.static, is decided now and written only where it holds."""
        *params, source = _RULES[rule]
        lines = source.strip("\n").splitlines()
        indent = len(lines[0]) - len(lines[0].lstrip())
        lines = [line[indent:] for line in lines]
        temp = out if lines[-1] == "r" else out + "r"
        fault = f"EvalDomainError({here}, {inputs}, "
        names = {**dict(zip(params, args)), "r": temp, "Undefined(": fault}
        known = {p: self.static[a] for p, a in zip(params, args)
                 if a in self.static}
        lines = iter(lines)
        spelt = []
        for line in lines:
            test = line[3:-1] if line.startswith("if ") else ""
            if (test and set(re.findall(_WORD, test)) <= known.keys()
                    and not eval(test, {}, known)):
                next(lines)  # the raise it guards
                continue
            line = re.sub(_WORD, lambda m: names.get(m[0], m[0]), line)
            raise_ = line.lstrip().startswith("raise ")
            spelt.append(line + " from None" if raise_ else line)
        result = spelt.pop()
        if result != out:
            spelt.append(f"{out} = {result}")
        return spelt

    def result(self, expr: Expr) -> str:
        """The expression the function returns: `expr` folded by the table."""
        return _fold(expr, self.table)


def _generate(expr: Expr, emitter: Callable[..., _ValueSource], *args
              ) -> tuple[Callable, tuple[str, ...]]:
    """The function `emitter(*args)` generates from `expr`, taking its
    params, and the variable names it reads, in order of first read."""
    source = emitter(*args)
    result = source.result(expr)
    body = "".join(f"    {line}\n" for line in [*source.lines, f"return {result}"])
    exec(compile(f"def run({source.params}):\n{body}", "<ouro.expr program>",
                 "exec"), source.namespace)
    return source.namespace["run"], tuple(source.reads)


def _fold(root: Expr, rules: Mapping[type, Callable]):
    """Apply rules[type(node)](node, *the results of its children) to each
    node in post-order, left to right, and return the root's result.  The
    walk keeps an explicit stack, so tree depth is bounded only by memory.
    A node whose type has no rule raises TypeError."""
    results: list = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        rule = rules.get(type(node))
        if rule is None:
            raise TypeError(f"not an Expr: {node!r}")
        kids = node.children()
        if kids and not ready:
            stack.append((node, True))
            stack += [(kid, False) for kid in reversed(kids)]
            continue
        cut = len(results) - len(kids)
        args = results[cut:]
        del results[cut:]
        results.append(rule(node, *args))
    return results[0]


class Program:
    """An expression compiled once.

    names are its free variables in order of first appearance, the order
    in which the generated value function reads them.  value(env) is that
    function, which evaluate calls.
    """

    __slots__ = ("expr", "names", "value", "_generated")

    def __init__(self, expr: Expr):
        self.expr = expr
        self.value, self.names = _generate(expr, _ValueSource)
        self._generated: dict[tuple, Callable] = {}

    def generated(self, emitter: Callable[..., _ValueSource],
                  *args) -> Callable:
        """The function another emitter, built with `args`, generates from
        this program; built on first use and kept under (emitter, *args)."""
        key = (emitter, *args)
        run = self._generated.get(key)
        if run is None:
            run = self._generated[key] = _generate(self.expr, emitter, *args)[0]
        return run


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate `expr` with variables bound by `env`.

    Every variable `expr` reads must be bound to a finite number; keys it
    does not read are ignored.  Raises UnboundVariableError for a missing
    variable, EvaluationError for a non-finite one, and EvalDomainError,
    naming the offending subexpression and its inputs, when arithmetic
    leaves the reals.  Each is raised where the tree walk meets it, so a
    node fault before a variable's first read comes first.
    """
    return expr.program.value(env)


# ---------------------------------------------------------------------------
# formatting

def _wrap(operand: tuple[str, int], least: int) -> str:
    text, level = operand
    return f"({text})" if level < least else text


def _format_binop(node: BinOp, left, right) -> tuple[str, int]:
    level, least_left, least_right, spelling = _BINARY[node.op]
    return _wrap(left, least_left) + spelling + _wrap(right, least_right), level


# Node type -> rule(node, *formatted children) -> (text, level).
_FORMAT = {
    Const: lambda node: (node.literal, _ATOM),
    Var: lambda node: (node.name, _ATOM),
    Neg: lambda node, operand: ("-" + _wrap(operand, _NEG), _NEG),
    BinOp: _format_binop,
    Call: lambda node, *args: (
        f"{node.func}({', '.join(text for text, _ in args)})", _ATOM),
}


def format_expr(node: Expr) -> str:
    """Render an AST back to canonical source with minimal parentheses.

    parse(format_expr(e)) is structurally equal to e, and formatting an
    already-canonical string is a fixed point.
    """
    return _fold(node, _FORMAT)[0]
