"""Parser, evaluator and formatter tests for the expression DSL."""

import copy
import io
import itertools
import math
import pickle
import random
import re
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _REFERENCE_RULES, Undefined, _random_ast

import ouro
from ouro._record import Record
from ouro.deriv import _TangentSource, _unit_seeds
from ouro.expr import (
    _BINARY, _RULES, BUILTIN_ARITY, BinOp, Call, Const, EvalDomainError,
    EvaluationError, Expr, Neg, ParseError, UnboundVariableError, Var,
    _IDENT_RE, _UNBOUNDED_OPS, _fold, _ValueSource, evaluate, format_expr,
    free_variables, parse,
)


def test_number_literals():
    assert evaluate(parse("2"), {}) == 2.0
    assert evaluate(parse("0.5"), {}) == 0.5
    assert evaluate(parse(".5"), {}) == 0.5
    assert evaluate(parse("1e-3"), {}) == 1e-3
    assert evaluate(parse("2.5E2"), {}) == 250.0
    assert parse("١") == Const("١") and Const("١").value == 1.0


@pytest.mark.parametrize("literal", ["-1", "+3", " 2", "1_0", "1.", "2 ", ""])
def test_const_takes_only_the_dsl_number_literals(literal):
    # Else BinOp("^", Const("-1"), Const("2")) would format as -1^2, which
    # parses as -(1^2).
    with pytest.raises(ValueError, match="bad numeric literal"):
        Const(literal)


@given(st.text(alphabet="0123456789١.eE+-_ \tx", max_size=8))
@settings(max_examples=500)
def test_const_accepts_what_parse_reads_as_one_literal(text):
    try:
        e = parse(text)
    except ParseError:
        e = None
    try:
        Const(text)
    except ValueError:
        assert not (isinstance(e, Const) and e.literal == text)
    else:
        assert isinstance(e, Const) and e.literal == text


def test_precedence_and_associativity():
    e = parse("1 + 2 * 3")
    assert evaluate(e, {}) == 7.0
    assert evaluate(parse("(1 + 2) * 3"), {}) == 9.0
    # left-associative subtraction and division
    assert evaluate(parse("10 - 4 - 3"), {}) == 3.0
    assert evaluate(parse("16 / 4 / 2"), {}) == 2.0
    # ^ binds tighter than unary minus and is right-associative
    assert evaluate(parse("-2^2"), {}) == -4.0
    assert evaluate(parse("2^3^2"), {}) == 512.0
    assert evaluate(parse("2^-1"), {}) == 0.5


def test_unary_minus_nests():
    assert evaluate(parse("--3"), {}) == 3.0
    assert evaluate(parse("2 - -3"), {}) == 5.0


def test_call_parsing():
    e = parse("clamp(x, 0, 1)")
    assert isinstance(e, Call)
    assert e.func == "clamp"
    assert len(e.args) == 3
    assert evaluate(e, {"x": 2.5}) == 1.0
    assert evaluate(parse("min(3, max(1, 2))"), {}) == 2.0


def test_identifier_is_variable_unless_called():
    e = parse("min + 1")  # "min" not followed by "(" is a plain name
    assert free_variables(e) == ["min"]
    assert evaluate(e, {"min": 2.0}) == 3.0
    # the next token decides, so white space may come before the "("
    assert parse("abs (x)") == parse("abs\n(x)") == parse("abs(x)")


def test_free_variables_first_appearance_order():
    e = parse("x2 + x1 * x2 - y")
    assert free_variables(e) == ["x2", "x1", "y"]


@pytest.mark.parametrize("source, line, col", [
    ("", 1, 1),
    ("1 +", 1, 4),
    ("(1 + 2", 1, 7),
    ("min(1)", 1, 1),          # wrong arity reported at the call site
    ("foo(1)", 1, 1),          # unknown builtin
    ("1 2", 1, 3),
    ("x @ y", 1, 3),
    ("max(1,)", 1, 7),
    ("x (1)", 1, 1),           # a name followed by "(" is a call
])
def test_parse_errors_carry_position(source, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.line == line
    assert err.value.col == col
    assert str(err.value).startswith(f"{line}:{col}:")


def test_parse_error_position_spans_lines():
    with pytest.raises(ParseError) as err:
        parse("1 +\n* 2")
    assert err.value.line == 2
    assert err.value.col == 1


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": 1.0})


def test_evaluate_rejects_non_finite_bindings():
    with pytest.raises(ValueError):
        evaluate(parse("x"), {"x": float("nan")})
    with pytest.raises(ValueError):
        evaluate(parse("x"), {"x": float("inf")})
    # checked where the variable is first read, so a fault in a node
    # evaluated earlier comes first
    with pytest.raises(EvalDomainError, match="ln of a non-positive"):
        evaluate(parse("ln(0) + x"), {"x": float("nan")})
    with pytest.raises(EvaluationError, match="non-finite binding x=nan"):
        evaluate(parse("x + ln(0)"), {"x": float("nan")})


@pytest.mark.parametrize("source, env", [
    ("1 / x", {"x": 0.0}),
    ("ln(x)", {"x": 0.0}),
    ("ln(x)", {"x": -1.0}),
    ("sqrt(x)", {"x": -4.0}),
    ("x^0.5", {"x": -2.0}),
    ("10^x", {"x": 400.0}),       # overflow is a domain error, not inf
    ("exp(x)", {"x": 1000.0}),
    ("x * x", {"x": 1e200}),        # + - * overflow too, unlike -x
    ("x + x", {"x": 1e308}),
    ("-x - x", {"x": 1e308}),
])
def test_evaluate_domain_errors(source, env):
    with pytest.raises(EvalDomainError):
        evaluate(parse(source), env)


def test_domain_error_names_the_subexpression():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("1 + ln(x - 2)"), {"x": 2.0})
    assert "ln(x - 2)" in str(err.value)
    assert err.value.inputs == (0.0,)


def test_builtins_match_reference_values():
    env = {"x": -2.7}
    assert evaluate(parse("abs(x)"), env) == 2.7
    assert evaluate(parse("floor(x)"), env) == -3.0
    assert evaluate(parse("ceil(x)"), env) == -2.0
    assert evaluate(parse("sign(x)"), env) == -1.0
    assert evaluate(parse("sign(0)"), {}) == 0.0
    assert evaluate(parse("relu(x)"), env) == 0.0
    assert evaluate(parse("relu(3)"), {}) == 3.0
    assert evaluate(parse("exp(1)"), {}) == math.e
    assert evaluate(parse("ln(exp(2))"), {}) == pytest.approx(2.0)
    assert evaluate(parse("sqrt(81)"), {}) == 9.0


def test_evaluation_is_deterministic():
    e = parse("sqrt(x1 * x2) + x1^0.25 / ln(x2)")
    env = {"x1": 1.7, "x2": 9.3}
    first = evaluate(e, env)
    assert all(evaluate(e, env) == first for _ in range(5))


def test_program_is_compiled_once():
    e = parse("x1 * min(x2, x1)")
    program = e.program
    assert evaluate(e, {"x1": 2.0, "x2": 3.0}) == 4.0
    assert e.program is program
    assert program.names == ("x1", "x2")
    assert e == parse("x1 * min(x2, x1)")  # the program is not compared


def test_compiled_expression_pickles_and_copies():
    e = parse("ln(x) + x")
    assert evaluate(e, {"x": 1.0}) == 1.0  # compiles e.program
    for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert twin == e
        assert evaluate(twin, {"x": 1.0}) == 1.0
        with pytest.raises(EvalDomainError) as info:
            evaluate(twin, {"x": -1.0})
        # the copy's own program raises, naming the copy's node
        assert info.value.node is twin.left
        assert twin.program is not e.program


def test_deep_expression_pickles_and_copies_as_its_text():
    e = parse("-" * 2000 + "x")
    text = format_expr(e)
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert twin is not e
        assert format_expr(twin) == text
        assert evaluate(twin, {"x": 1.5}) == evaluate(e, {"x": 1.5}) == 1.5


def _oracle(node, env):
    """The recursive tree walk evaluate replaced, kept as the slow
    reference: it calls test_acceptance's reference rules."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            v = env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
        if not math.isfinite(v):
            raise EvaluationError(f"non-finite binding {node.name}={v!r}")
        return v
    if isinstance(node, Neg):
        return -_oracle(node.operand, env)
    if isinstance(node, BinOp):
        inputs = (_oracle(node.left, env), _oracle(node.right, env))
        rule = _REFERENCE_RULES[node.op]
    else:
        inputs = tuple([_oracle(arg, env) for arg in node.args])
        rule = _REFERENCE_RULES[node.func]
    try:
        r = rule(*inputs)
    except Undefined as exc:
        raise EvalDomainError(node, inputs, str(exc)) from None
    if not math.isfinite(r):
        raise EvalDomainError(node, inputs, "result is not finite")
    return r


def _outcome(fn):
    try:
        return fn().hex()  # bit for bit, -0.0 included
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "node", None)


def test_evaluate_matches_the_tree_walk_oracle():
    rng = random.Random(20261018)
    pool = (0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 700.0, -700.0)
    # a second stream, so the trees and points drawn from rng stay as they were
    spoil = random.Random(20261021)
    kinds = {}
    for _ in range(2500):
        f = _random_ast(rng, 5)
        env = {name: (rng.choice(pool) if rng.random() < 0.3
                      else rng.uniform(-4.0, 4.0))
               for name in free_variables(f)}
        if env and rng.random() < 0.1:
            del env[rng.choice(sorted(env))]
        if spoil.random() < 0.15:  # a variable read or not, non-finite
            name = spoil.choice(("x", "x1", "x2", "y", "unread"))
            env[name] = spoil.choice((math.nan, math.inf, -math.inf))
        got, want = _outcome(lambda: evaluate(f, env)), _outcome(lambda: _oracle(f, env))
        assert got == want, (format_expr(f), env)
        if isinstance(want, tuple):  # the very node, not an equal one
            assert got[2] is want[2]
        kind = want[0].__name__ if isinstance(want, tuple) else (
            "-0.0" if want == "-0x0.0p+0" else "value")
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["value"] >= 1000 and kinds["-0.0"] >= 50
    assert kinds["EvalDomainError"] >= 300
    assert kinds["UnboundVariableError"] >= 50
    assert kinds["EvaluationError"] >= 50


def _renamed(node, names):
    """`node` with every variable renamed through the dict `names`."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, Neg):
        return Neg(_renamed(node.operand, names))
    if isinstance(node, BinOp):
        return BinOp(node.op, _renamed(node.left, names),
                     _renamed(node.right, names))
    if isinstance(node, Call):
        return Call(node.func, tuple(_renamed(a, names) for a in node.args))
    return node


def _depth(node):
    return 1 + max(map(_depth, node.children()), default=0)


def _var_count(node):
    return isinstance(node, Var) + sum(map(_var_count, node.children()))


def test_generated_programs_match_the_oracle_on_deep_trees_and_awkward_names():
    # Names that the generated source itself uses, or that Python reserves,
    # may reach it only as string keys; _random_ast draws from four names,
    # so most trees read some variable more than once.
    rng = random.Random(20261019)
    awkward = ("env", "None", "lambda", "t0", "isfinite")
    deep = repeated = faults = 0
    for _ in range(800):
        names = dict(zip(("x", "x1", "x2", "y"), rng.sample(awkward, 4)))
        f = _renamed(_random_ast(rng, 9), names)
        env = {name: rng.uniform(-3.0, 3.0) for name in free_variables(f)}
        if env and rng.random() < 0.1:
            del env[rng.choice(sorted(env))]
        got, want = _outcome(lambda: evaluate(f, env)), _outcome(lambda: _oracle(f, env))
        assert got == want, (format_expr(f), env)
        if isinstance(want, tuple):
            assert got[2] is want[2]
            faults += 1
        deep += _depth(f) >= 8
        repeated += _var_count(f) > len(free_variables(f))
    assert deep >= 100 and repeated >= 200 and faults >= 50


# Arguments for the rule pins: both zeros, values that tie, divisors of
# either sign of zero, and operands that overflow + - * / ^ exp or leave
# the domain of ln, sqrt and ^.
_PIN_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 710.0, 1e200, -1e308,
               5e-324, sys.float_info.max)


def _called(rule, args):
    """A reference rule's result by its bits, or its error's type and
    text."""
    try:
        return rule(*args).hex()
    except Undefined as exc:
        return type(exc), str(exc)


def _node(name, args, as_constant):
    """The node applying rule `name` to `args`, each a variable or a
    literal, and the bindings of its variables.  A negative literal, -0
    among them, is a negated constant."""
    env, kids = {}, []
    for i, value in enumerate(args):
        if as_constant:
            kid = Const(repr(abs(value)))
            kids.append(Neg(kid) if math.copysign(1.0, value) < 0.0 else kid)
        else:
            kids.append(Var(f"x{i}"))
            env[f"x{i}"] = value
    if name in _BINARY:
        return BinOp(name, *kids), env
    return Call(name, tuple(kids)), env


def _pin_rule(name):
    """Assert that rule `name`, inlined over variables and over constants,
    gives the reference rule's bits or error on every tuple of
    _PIN_VALUES."""
    arity = BUILTIN_ARITY.get(name, 2)
    for args in itertools.product(_PIN_VALUES, repeat=arity):
        for as_constant in (False, True):
            f, env = _node(name, args, as_constant)
            want = _outcome(lambda: _oracle(f, env))
            assert _outcome(lambda: evaluate(f, env)) == want, (format_expr(f), args)


def test_inlined_operators_are_their_rules():
    # The generated value function writes + - * as the Python operators
    # they are; the pin is value by value against the operator functions.
    for op in ("+", "-", "*"):
        _pin_rule(op)


@pytest.mark.parametrize("name", sorted(_REFERENCE_RULES.keys() - {"+", "-", "*"}))
def test_every_rule_matches_its_reference_called_and_inlined(name):
    _pin_rule(name)  # + - * are pinned above


def test_rule_pins_meet_zeros_ties_overflow_and_domain_faults():
    # the pins above see each kind of argument they exist for
    outcomes = {name: {_called(_REFERENCE_RULES[name], args) for args in
                       itertools.product(_PIN_VALUES, repeat=BUILTIN_ARITY.get(name, 2))}
                for name in _REFERENCE_RULES}
    for name, message in [("/", "division by zero"), ("ln", "ln of a non-positive number"),
                          ("sqrt", "sqrt of a negative number"), ("exp", "exp overflows"),
                          ("^", "invalid power (math range error)"),
                          ("^", "invalid power (math domain error)")]:
        assert (Undefined, message) in outcomes[name]
    for op in _UNBOUNDED_OPS:
        assert math.inf.hex() in outcomes[op] or (-math.inf).hex() in outcomes[op]
    for name in ("min", "max", "clamp"):
        assert {"0x0.0p+0", "-0x0.0p+0"} <= outcomes[name], name
    # of tied arguments the first is kept, as the builtins keep it
    assert evaluate(parse("min(x1, x2)"), {"x1": 0.0, "x2": -0.0}).hex() == "0x0.0p+0"
    assert evaluate(parse("max(x1, x2)"), {"x1": -0.0, "x2": 0.0}).hex() == "-0x0.0p+0"
    assert evaluate(parse("clamp(-0, 0, 1)"), {}).hex() == "-0x0.0p+0"


def _every_rule_tree():
    """A tree applying every operator and builtin to variables."""
    names = iter(f"x{i}" for i in range(100))
    parts = [BinOp(op, Var(next(names)), Var(next(names))) for op in _BINARY]
    parts += [Call(func, tuple(Var(next(names)) for _ in range(arity)))
              for func, arity in BUILTIN_ARITY.items()]
    tree = parts[0]
    for part in parts[1:]:
        tree = BinOp("+", tree, part)
    return tree


def test_generated_functions_call_no_rule_function():
    # every rule is written inline: no reference rule function is among
    # the globals of a value or tangent function, no global is called, and
    # neither is the builtin min or max; abs stays the builtin
    f = _every_rule_tree()
    rules = _REFERENCE_RULES.values()
    seeds = _unit_seeds(len(free_variables(f)))
    for emitter in (_ValueSource, _TangentSource, lambda: _TangentSource(seeds)):
        source = emitter()
        _fold(f, source.table)
        text = "\n".join(source.lines)
        assert not [g for g in source.namespace.values()
                    if any(g is rule for rule in rules)]
        assert not re.search(r"\bg\d+\(|\bmin\(|\bmax\(", text)
        assert "abs(" in text


# Finite floats with the edges drawn often: the largest magnitude, the
# smallest normal and subnormal magnitudes, and both zeros.
_EDGES = (sys.float_info.max, sys.float_info.min, 5e-324, 0.0, 1.0, 0.5)
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGES + tuple(-x for x in _EDGES)))

# The rules whose results the value function does not check.
_SELF_CHECKED = _RULES.keys() - set(_UNBOUNDED_OPS)


@pytest.mark.parametrize("name", sorted(_SELF_CHECKED))
@given(args=st.tuples(_FINITE, _FINITE, _FINITE))
@settings(max_examples=300)
def test_unchecked_rules_return_a_finite_float_or_raise_undefined(name, args):
    # so a new builtin that can overflow fails here, not at a user's point:
    # the value function returns such a rule's result unchecked, and an
    # EvalDomainError on this one-node tree is the rule's own raise
    f, env = _node(name, args[:BUILTIN_ARITY.get(name, 2)], False)
    try:
        r = evaluate(f, env)
    except EvalDomainError as exc:
        assert exc.node is f and exc.detail != "result is not finite"
        return
    assert type(r) is float and math.isfinite(r), (name, args, r)


def test_checked_operators_can_leave_the_reals():
    big = sys.float_info.max
    partner = {"+": big, "-": -big, "*": big, "/": 0.5}
    assert partner.keys() == set(_UNBOUNDED_OPS)
    for op, b in partner.items():
        assert _REFERENCE_RULES[op](big, b) == math.inf
        with pytest.raises(EvalDomainError, match="result is not finite"):
            evaluate(BinOp(op, Var("a"), Var("b")), {"a": big, "b": b})


def test_every_operator_binds_and_computes():
    # the binding table and the rule table name the same operators, and
    # the reference states every rule
    assert _BINARY.keys() == _RULES.keys() - BUILTIN_ARITY.keys()
    assert _REFERENCE_RULES.keys() == _RULES.keys()


def test_generated_source_holds_only_variable_names():
    # Rules are written inline, nodes and kink messages are reached through
    # the globals, and a constant is written as the repr of its float, which
    # reads back to the same bits.  So the only text in the value and
    # tangent source that the emitter did not write is a validated name,
    # read once, inside string literals, or a constant's repr: no builtin
    # name, and no literal as the expression spells it.  x_1 is read twice
    # but read and checked once.
    e = parse("x_1 * 12345.5 + ln(x_1) / 6789e-3 - .5 * \u0663")
    constants = {"12345.5", "6.789", "0.5", "3.0"}
    for emitter in (_ValueSource, _TangentSource,
                    lambda: _TangentSource(((1.0,),))):
        source = emitter()
        _fold(e, source.table)
        text = "\n".join(source.lines)
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        kinds = {kind: [t.string for t in tokens if t.type == kind]
                 for kind in (tokenize.NUMBER, tokenize.NAME, tokenize.STRING)}
        # the emitter's own numbers are 0.0 and 1.0
        assert constants <= set(kinds[tokenize.NUMBER]) <= constants | {"0.0", "1.0"}
        assert not {"6789e-3", ".5", "\u0663"} & set(kinds[tokenize.NUMBER])
        assert not {"x_1", "ln"} & set(kinds[tokenize.NAME])
        assert "'ln'" not in kinds[tokenize.STRING]
        assert kinds[tokenize.STRING].count("'x_1'") == 2  # one read and the error it may raise
        assert kinds[tokenize.STRING].count("'non-finite binding x_1='") == 1
        # no constant is a global; a tangent function's one float global
        # is inf, for a float known when it is written that overflows
        floats = [g for g in source.namespace.values() if type(g) is float]
        assert floats == ([math.inf] if emitter is not _ValueSource else [])
        assert "ln" not in source.namespace.values()


def test_a_negated_constant_is_a_constant():
    # -2 is written as the literal -2.0, so the test of the divisor is
    # decided when the source is written and nothing negates a constant
    # when the function runs
    for text in ("x / -2", "max(x, -3.5)", "clamp(x, -3.5, 2.0)"):
        source = _ValueSource()
        _fold(parse(text), source.table)
        assert not [line for line in source.lines
                    if re.fullmatch(r"v\d+ = -[A-Za-z_]\w*", line)
                    or "== 0.0" in line], text
    with pytest.raises(EvalDomainError, match="^" + re.escape(
            "division by zero in 'x / -0' with arguments (1.0, -0.0)") + "$"):
        evaluate(parse("x / -0"), {"x": 1.0})


@pytest.mark.parametrize("source, canonical", [
    ("x1+x2*x3", "x1 + x2 * x3"),
    ("(x1+x2)/2", "(x1 + x2) / 2"),
    ("-x^2", "-x^2"),
    ("(-x)^2", "(-x)^2"),
    ("x^-2", "x^-2"),
    ("((x))", "x"),
    ("1-(2-3)", "1 - (2 - 3)"),
    ("1/(2/3)", "1 / (2 / 3)"),
    ("(1/2)/3", "1 / 2 / 3"),
    ("2^(3^2)", "2^3^2"),
    ("(2^3)^2", "(2^3)^2"),
    ("-(x+1)", "-(x + 1)"),
    ("min( x , 1 )", "min(x, 1)"),
])
def test_format_canonicalizes(source, canonical):
    assert format_expr(parse(source)) == canonical


@pytest.mark.parametrize("node", [1, "x", BinOp("+", Var("x"), 2.0),
                                  Neg(None)])
def test_format_rejects_what_is_not_an_expr(node):
    with pytest.raises(TypeError, match="^not an Expr: "):
        format_expr(node)


# --- property tests ---------------------------------------------------------

_names = st.sampled_from(["x", "x1", "x2", "y", "alpha", "v_2"])
_literals = st.sampled_from(["0", "1", "2", "0.5", "3.25", "1e-3", ".75", "10"])


def _exprs(depth=4):
    leaves = st.one_of(_literals.map(Const), _names.map(Var))

    def extend(children):
        unary = children.map(Neg)
        ops = st.sampled_from(["+", "-", "*", "/", "^"])
        binop = st.builds(BinOp, ops, children, children)
        call1 = st.builds(
            lambda f, a: Call(f, (a,)),
            st.sampled_from(["abs", "floor", "ceil", "sign", "relu",
                             "exp", "ln", "sqrt"]),
            children)
        call2 = st.builds(lambda f, a, b: Call(f, (a, b)),
                          st.sampled_from(["min", "max"]), children, children)
        call3 = st.builds(lambda a, b, c: Call("clamp", (a, b, c)),
                          children, children, children)
        return st.one_of(unary, binop, call1, call2, call3)

    return st.recursive(leaves, extend, max_leaves=25)


@given(_exprs())
@settings(max_examples=300)
def test_roundtrip_parse_of_formatted_ast(e):
    assert parse(format_expr(e)) == e


@given(_exprs())
@settings(max_examples=300)
def test_format_is_a_fixed_point(e):
    text = format_expr(e)
    assert format_expr(parse(text)) == text


@given(st.text(alphabet="x12+-*/^(), .eE<&abmin", max_size=40))
@settings(max_examples=500)
def test_fuzz_only_raises_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_seeded_fuzz_corpus():
    # The property fuzzer above shrinks; this fixed corpus guards the exact
    # distribution of rough inputs independent of hypothesis internals.
    rng = random.Random(20240809)
    alphabet = "x1 2.()+-*/^,minaxclprefloqsg\t\n"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 30)))
        try:
            e = parse(text)
        except ParseError:
            continue
        assert parse(format_expr(e)) == e


# --- the reference front end -------------------------------------------------
#
# The tokenizer, recursive-descent parser and formatter that parse and
# format_expr replaced, kept as the slow reference.  They state operator
# binding through their own methods and _LEVEL_* constants, apart from
# _BINARY, so the comparisons below check the table-driven code rather
# than repeat it.  They recurse, so they serve only shallow inputs.

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")


class _Token(Record):
    kind: str  # number ident op lparen rparen comma eof
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, line, col))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, line, col))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, line, col))
        elif ch == ",":
            tokens.append(_Token("comma", ch, line, col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"{message} (at {shown!r})", tok.line, tok.col)

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek().kind != "eof":
            self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            try:
                return Const(tok.text)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "lparen":
                self.next()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.expr())
                if self.peek().kind != "rparen":
                    self.error("expected ')' or ','")
                self.next()
                try:
                    return Call(tok.text, tuple(args))
                except ValueError as exc:
                    raise ParseError(str(exc), tok.line, tok.col) from None
            return Var(tok.text)
        if tok.kind == "lparen":
            self.next()
            e = self.expr()
            if self.peek().kind != "rparen":
                self.error("expected ')'")
            self.next()
            return e
        self.error("expected a number, name or '('")


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_ADD
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _wrap(node: Expr, floor_level: int) -> str:
    text = _reference_format(node)
    if _level(node) < floor_level:
        return f"({text})"
    return text


def _reference_format(node: Expr) -> str:
    """Render an AST back to canonical source with minimal parentheses.

    parse(format_expr(e)) is structurally equal to e, and formatting an
    already-canonical string is a fixed point.
    """
    if isinstance(node, Const):
        return node.literal
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _LEVEL_NEG)
    if isinstance(node, BinOp):
        if node.op in "+-":
            return f"{_wrap(node.left, _LEVEL_ADD)} {node.op} {_wrap(node.right, _LEVEL_MUL)}"
        if node.op in "*/":
            return f"{_wrap(node.left, _LEVEL_MUL)} {node.op} {_wrap(node.right, _LEVEL_NEG)}"
        return f"{_wrap(node.left, _LEVEL_ATOM)}^{_wrap(node.right, _LEVEL_NEG)}"
    if isinstance(node, Call):
        args = ", ".join(_reference_format(a) for a in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"not an Expr: {node!r}")


def _reference_parse(source: str) -> Expr:
    return _Parser(_tokenize(source)).parse()


def _front_end(parse_fn, format_fn, text):
    """The tree and canonical text `text` gives, or the type, message and
    position of what it raises."""
    try:
        tree = parse_fn(text)
    except Exception as exc:  # compared below, so never swallowed
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))
    return tree, format_fn(tree)


def _compare_front_ends(texts):
    """Assert that both front ends agree on every text; count the outcomes
    by kind, a ParseError's kind being its message without the position
    and quoted text."""
    kinds = {}
    for text in texts:
        got = _front_end(parse, format_expr, text)
        want = _front_end(_reference_parse, _reference_format, text)
        assert got == want, repr(text)
        if isinstance(want[0], Expr):
            kind = "tree"
        else:
            kind = re.sub(r"^\d+:\d+: | \(at .*\)$|'.*?'", "", want[1])
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


# Pieces of random source: every token kind, white space, characters the
# tokenizer rejects, a literal that overflows and a non-ASCII digit.
_PIECES = ("x", "x1", "y", "min", "max", "clamp", "abs", "sqrt", "foo",
           "1", "2.5", ".5", "1e-3", "1e999", "٣", "e", "E2", ".",
           "+", "-", "*", "/", "^", "-", "(", "(", ")", ")", ",",
           " ", " ", "\n", "\t", "\r", "$", "\f", "@")


def test_parse_matches_the_reference_on_random_token_strings():
    rng = random.Random(20261019)
    texts = ["".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 14)))
             for _ in range(40000)]
    kinds = _compare_front_ends(texts)
    assert kinds["tree"] >= 500
    for kind in ("unexpected character ", "expected a number, name or ",
                 "expected ", "expected  or ", "unexpected trailing input",
                 "literal  is not finite", "unknown builtin "):
        assert kinds.get(kind, 0) >= 20, (kind, kinds)


def _grammar_text(rng: random.Random, depth: int) -> str:
    """Source drawn from the grammar, with random spacing, redundant
    parentheses and, now and then, a call of the wrong arity or name."""
    def space():
        return rng.choice(("", "", "", " ", "  ", "\n", "\t", " \r"))

    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(("x", "x1", "y_2", "min", "e5", "0", "1", "2.5",
                           ".5", "1e-3", "2E+2", "٣", "1e999"))
    kind = rng.randrange(4)
    if kind == 0:
        return "-" + space() + _grammar_text(rng, depth - 1)
    if kind == 1:
        return (_grammar_text(rng, depth - 1) + space() + rng.choice("+-*/^")
                + space() + _grammar_text(rng, depth - 1))
    if kind == 2:
        return "(" + space() + _grammar_text(rng, depth - 1) + space() + ")"
    func = rng.choice((*BUILTIN_ARITY, "foo"))
    arity = max(1, BUILTIN_ARITY.get(func, 1) + rng.choice((0, 0, 0, 0, 0, 1, -1)))
    args = ("," + space()).join(_grammar_text(rng, depth - 1)
                                for _ in range(arity))
    return func + space() + "(" + space() + args + space() + ")"


def test_parse_matches_the_reference_on_grammar_strings():
    rng = random.Random(20261020)
    kinds = _compare_front_ends(_grammar_text(rng, 6) for _ in range(5000))
    assert kinds["tree"] >= 2500
    assert kinds["literal  is not finite"] >= 100
    assert kinds["unknown builtin "] >= 100
    assert sum(n for kind, n in kinds.items() if " takes " in kind) >= 200


def _recursive_fold(node, rules):
    kids = [_recursive_fold(child, rules) for child in node.children()]
    return rules[type(node)](node, *kids)


def test_fold_calls_builders_in_the_recursive_order():
    rng = random.Random(20261022)
    for _ in range(500):
        f = _random_ast(rng, 7)
        logs = []
        for fold in (_fold, _recursive_fold):
            log = []

            def rule(node, *args):
                log.append((id(node), args))
                return len(log)

            assert fold(f, dict.fromkeys((Const, Var, Neg, BinOp, Call), rule)) == len(log)
            logs.append(log)
        assert logs[0] == logs[1]


# --- deep inputs ---------------------------------------------------------------

_DEEP = [
    # source, its canonical text, env, value
    ("(" * 5000 + "x" + ")" * 5000, "x", {"x": 1.5}, 1.5),
    ("-" * 5000 + "x", "-" * 5000 + "x", {"x": 1.5}, 1.5),
    ("abs(" * 5000 + "x" + ")" * 5000, "abs(" * 5000 + "x" + ")" * 5000,
     {"x": -1.5}, 1.5),
    (" + ".join(f"x{i % 3}" for i in range(3000)),
     " + ".join(f"x{i % 3}" for i in range(3000)),
     {"x0": 1.0, "x1": 2.0, "x2": 4.0}, 7000.0),
]


@pytest.mark.parametrize("source, canonical, env, value", _DEEP,
                         ids=["parentheses", "minus", "calls", "sum"])
def test_deep_inputs_parse_format_and_evaluate(source, canonical, env, value):
    # trees are compared by their text: Record equality itself recurses
    tree = parse(source)
    assert format_expr(tree) == canonical
    assert format_expr(parse(canonical)) == canonical
    assert evaluate(tree, env) == value


def test_no_recursion_limit_is_raised_or_caught():
    for path in Path(ouro.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "setrecursionlimit" not in text and "RecursionError" not in text
