"""Tests for forward-mode duals, finite differences and the unity checks."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _REFERENCE_RULES, Undefined, _random_ast

from ouro.catalog import instantiate, list_entries
from ouro.deriv import (
    GRADIENT_FLOOR, KINK_RETRY_LIMIT, TOL_UNITY, _COMPONENT_RULES,
    KinkPointError, Tangent, _TangentSource, _UnitySource, _unit_seeds,
    _unity_checker, check_unity, dual_eval, fd_partial, gradient, unity_sweep,
)
from ouro.expr import (
    _RULES, BinOp, Const, EvalDomainError, EvaluationError, Neg,
    UnboundVariableError, Var, _fold, evaluate, free_variables, parse,
)
from ouro.verify import DomainBox, SamplePlan, Status, check_iterated, check_membership

PLAN = SamplePlan()


def test_policy_constants():
    assert TOL_UNITY == {"dual": 1e-6, "fd": 1e-4}
    assert GRADIENT_FLOOR == 1e-8
    assert KINK_RETRY_LIMIT == 16


# --- forward mode -------------------------------------------------------------

def test_dual_value_channel_matches_evaluate_bitwise():
    cases = [
        ("x^2 + 3 * x - 1", {"x": 1.7}),
        ("sqrt(x1 * x2)", {"x1": 2.0, "x2": 8.0}),
        ("exp(ln(x)) / x", {"x": 5.3}),
        ("clamp(x, 0, 1)", {"x": 0.42}),
        ("min(x1, x2) + max(x1, x2)", {"x1": 1.25, "x2": -7.5}),
        ("relu(x) - abs(x)", {"x": 3.9}),
        ("(x1 + x2 + x3) / 3", {"x1": 0.1, "x2": 0.2, "x3": 0.7}),
        ("x^0.25", {"x": 9.1}),
    ]
    for source, env in cases:
        f = parse(source)
        value, _ = dual_eval(f, env, 0)
        assert value == evaluate(f, env)


def test_linear_rules():
    f = parse("2 * x + 3")
    assert dual_eval(f, {"x": 10.0}, 0) == (23.0, 2.0)
    assert dual_eval(parse("-x"), {"x": 4.0}, 0) == (-4.0, -1.0)


def test_product_and_quotient_rules():
    f = parse("x1 * x2")
    assert dual_eval(f, {"x1": 3.0, "x2": 5.0}, 0) == (15.0, 5.0)
    assert dual_eval(f, {"x1": 3.0, "x2": 5.0}, 1) == (15.0, 3.0)
    g = parse("x1 / x2")
    value, deriv = dual_eval(g, {"x1": 1.0, "x2": 4.0}, 1)
    assert value == 0.25
    assert deriv == pytest.approx(-1.0 / 16.0)


def test_power_rule_constant_exponent():
    assert dual_eval(parse("x^2"), {"x": 3.0}, 0) == (9.0, 6.0)
    assert dual_eval(parse("x^0"), {"x": 3.0}, 0) == (1.0, 0.0)
    value, deriv = dual_eval(parse("x^-2"), {"x": 2.0}, 0)
    assert value == 0.25
    assert deriv == pytest.approx(-0.25)


def test_power_rule_varying_exponent():
    value, deriv = dual_eval(parse("x^x"), {"x": 2.0}, 0)
    assert value == 4.0
    assert deriv == 4.0 * (math.log(2.0) + 1.0)
    with pytest.raises(EvalDomainError):
        dual_eval(parse("x^x"), {"x": -2.0}, 0)


def test_chain_rules_for_exp_ln_sqrt():
    value, deriv = dual_eval(parse("exp(2 * x)"), {"x": 0.5}, 0)
    assert value == math.exp(1.0)
    assert deriv == pytest.approx(2.0 * math.e)
    value, deriv = dual_eval(parse("ln(x^2)"), {"x": 3.0}, 0)
    assert deriv == pytest.approx(2.0 / 3.0)
    value, deriv = dual_eval(parse("sqrt(x)"), {"x": 16.0}, 0)
    assert (value, deriv) == (4.0, 1.0 / 8.0)


def test_sqrt_at_zero():
    # constant argument: no sensitivity, derivative is 0 by convention
    assert dual_eval(parse("sqrt(0 * x)"), {"x": 2.0}, 0) == (0.0, 0.0)
    with pytest.raises(EvalDomainError):
        dual_eval(parse("sqrt(x)"), {"x": 0.0}, 0)


def test_piecewise_derivatives_off_the_kink():
    assert dual_eval(parse("abs(x)"), {"x": -3.0}, 0) == (3.0, -1.0)
    assert dual_eval(parse("relu(x)"), {"x": 2.0}, 0) == (2.0, 1.0)
    assert dual_eval(parse("relu(x)"), {"x": -2.0}, 0) == (0.0, 0.0)
    assert dual_eval(parse("floor(x)"), {"x": 2.5}, 0) == (2.0, 0.0)
    assert dual_eval(parse("sign(x)"), {"x": -0.5}, 0) == (-1.0, 0.0)
    assert dual_eval(parse("min(x1, x2)"), {"x1": 1.0, "x2": 2.0}, 0) == (1.0, 1.0)
    assert dual_eval(parse("min(x1, x2)"), {"x1": 1.0, "x2": 2.0}, 1) == (1.0, 0.0)


@pytest.mark.parametrize("source, env", [
    ("abs(x)", {"x": 0.0}),
    ("relu(x)", {"x": 0.0}),
    ("sign(x)", {"x": 0.0}),
    ("floor(x)", {"x": 2.0}),
    ("ceil(x)", {"x": -3.0}),
    ("min(x1, x2)", {"x1": 1.5, "x2": 1.5}),
    ("max(x1, x2)", {"x1": -2.0, "x2": -2.0}),
    ("clamp(x, 0, 1)", {"x": 1.0}),
])
def test_exact_kinks_always_raise(source, env):
    with pytest.raises(KinkPointError):
        dual_eval(parse(source), env, 0)


def test_a_kink_is_an_evaluation_error():
    assert issubclass(KinkPointError, EvaluationError)
    with pytest.raises(EvaluationError, match="abs at its corner 0"):
        check_unity(parse("abs(x)"), {"x": 0.0}, SamplePlan())


def test_kink_margin_widens_the_guard():
    f = parse("abs(x)")
    assert dual_eval(f, {"x": 1e-6}, 0, kink_margin=1e-7) == (1e-6, 1.0)
    with pytest.raises(KinkPointError):
        dual_eval(f, {"x": 1e-8}, 0, kink_margin=1e-7)
    # margin zero still flags the exact corner but nothing nearby
    assert dual_eval(f, {"x": 1e-300}, 0)[1] == 1.0


def test_dual_eval_validates_inputs():
    f = parse("x1 + x2")
    with pytest.raises(ValueError):
        dual_eval(f, {"x1": 1.0, "x2": 2.0}, 2)
    with pytest.raises(ValueError):
        dual_eval(f, {"x1": 1.0}, 0)
    with pytest.raises(ValueError):
        dual_eval(f, {"x1": 1.0, "x2": float("nan")}, 0)
    # the coordinate is an integer: True is not 1, nor is 1.0
    env = {"x1": 2.0, "x2": 3.0}
    for i in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="i must be an integer"):
            dual_eval(f, env, i)
    assert dual_eval(parse("x1 * x2"), env, np.int64(1)) == (6.0, 2.0)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.floats(-10, 10, allow_nan=False))
@settings(max_examples=200)
def test_dual_matches_hand_derivative_for_quadratics(a, b, c, x):
    # a*x^2 + b*x + c, built directly as an AST; a literal is unsigned
    def coef(k):
        return Neg(Const(str(-k))) if k < 0 else Const(str(k))

    f = BinOp("+", BinOp("+",
                         BinOp("*", coef(a), BinOp("*", Var("x"), Var("x"))),
                         BinOp("*", coef(b), Var("x"))),
              coef(c))
    value, deriv = dual_eval(f, {"x": x}, 0)
    assert value == evaluate(f, {"x": x})
    assert deriv == pytest.approx(2.0 * a * x + b, abs=1e-9)


# --- finite differences ---------------------------------------------------------

def test_fd_linear_is_nearly_exact():
    got = fd_partial(parse("(x1 + x2) / 2"), {"x1": 1.3, "x2": -4.2}, 0)
    assert abs(got - 0.5) <= 1e-9


def test_fd_quadratic():
    got = fd_partial(parse("x^2"), {"x": 3.0}, 0)
    assert abs(got - 6.0) <= 1e-7


def test_fd_agrees_with_dual_on_a_smooth_case():
    f = parse("sqrt(x1 * x2)")
    env = {"x1": 2.0, "x2": 8.0}
    assert dual_eval(f, env, 0) == (4.0, 1.0)
    assert abs(fd_partial(f, env, 0) - 1.0) <= 1e-6


def test_fd_is_one_sided_where_one_probe_leaves_the_domain():
    h = 1e-6
    # x - h < 0 is outside sqrt's domain, so the difference looks up
    f = parse("sqrt(x)^2")
    got = fd_partial(f, {"x": 1e-8}, 0)
    assert got == (evaluate(f, {"x": 1e-8 + h}) - evaluate(f, {"x": 1e-8})) / h
    assert abs(got - 1.0) <= 1e-9
    # x + h > 0 is outside it here, so the difference looks down
    g = parse("sqrt(-x)^2")
    got = fd_partial(g, {"x": -1e-8}, 0)
    assert got == (evaluate(g, {"x": -1e-8}) - evaluate(g, {"x": -1e-8 - h})) / h
    assert abs(got + 1.0) <= 1e-9


def test_fd_raises_the_upper_probe_error_where_both_leave_the_domain():
    f = parse("sqrt(x) + sqrt(-x)")
    with pytest.raises(EvalDomainError) as upper:
        evaluate(f, {"x": 1e-6})
    with pytest.raises(EvalDomainError) as got:
        fd_partial(f, {"x": 0.0}, 0)
    assert str(got.value) == str(upper.value)


@pytest.mark.parametrize("x", [1.7976931348623157e308,
                               -1.7976931348623157e308])
def test_fd_is_one_sided_where_a_probe_overflows(x):
    # x + h (or x - h) rounds to inf, which is no binding the caller made:
    # that probe has left the domain, and the difference looks inward
    h = 1e-6 * abs(x)
    inward = x - math.copysign(h, x)
    got = fd_partial(parse("x"), {"x": x}, 0)
    assert got == (x - inward) / math.copysign(h, x)
    assert got == 1.0000000000287559


def test_fd_leaves_env_alone():
    f = parse("x1^3 - x2")
    env = {"x1": 2.0, "x2": 5.0}
    h = 1e-6 * 2.0
    expected = (evaluate(f, {"x1": 2.0 + h, "x2": 5.0})
                - evaluate(f, {"x1": 2.0 - h, "x2": 5.0})) / (2.0 * h)
    assert fd_partial(f, env, 0) == expected
    assert env == {"x1": 2.0, "x2": 5.0}


def test_fd_coordinate_validation():
    with pytest.raises(ValueError):
        fd_partial(parse("x"), {"x": 1.0}, 1)
    f, env = parse("x1 * x2"), {"x1": 2.0, "x2": 3.0}
    for i in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="i must be an integer"):
            fd_partial(f, env, i)
    assert fd_partial(f, env, np.int64(1)) == pytest.approx(2.0)
    # a missing binding is named, whichever coordinate is probed
    for i in (0, 1):
        with pytest.raises(UnboundVariableError, match="x2"):
            fd_partial(parse("x1 + x2"), {"x1": 1.0}, i)


# --- gradients -------------------------------------------------------------------

def test_gradient_both_methods():
    f = parse("x1^2 + 3 * x2")
    env = {"x1": 2.0, "x2": 5.0}
    assert gradient(f, env, "dual") == (4.0, 3.0)
    fd = gradient(f, env, "fd")
    assert fd == pytest.approx((4.0, 3.0), abs=1e-6)
    with pytest.raises(ValueError):
        gradient(f, env, "newton")


def test_gradient_of_a_deeply_nested_catalog_formula():
    # min_all at n = 300 is 299 nested min calls
    f = instantiate("min_all", n=300).expr
    env = {f"x{i}": float(i) for i in range(1, 301)}
    want = (1.0,) + (0.0,) * 299
    assert gradient(f, env, "dual") == want
    assert gradient(f, env, "fd") == pytest.approx(want, abs=1e-6)


def test_fd_gradient_is_kink_guarded():
    # finite differencing cannot see the corner on its own; the dual-walk
    # screen must reject the point before any probing happens
    with pytest.raises(KinkPointError):
        gradient(parse("abs(x)"), {"x": 1e-9}, "fd", kink_margin=1e-7)


def test_ouroboros_gradient_evaluates_at_the_diagonal():
    # check_unity's shares are the partials at (f(x), ..., f(x))
    f = parse("0.3 * x1 + 0.7 * x2")
    env = {"x1": 2.0, "x2": 9.0}
    # linear weights: same gradient everywhere, exactly the weights
    assert check_unity(f, env, PLAN).shares == (0.3, 0.7)
    g = parse("(x1 + x2) / 2")
    assert check_unity(g, {"x1": 1.0, "x2": 3.0}, PLAN).shares == (0.5, 0.5)
    # the diagonal is really f(x): x^2 at x = 3 has share f'(9) = 18
    assert check_unity(parse("x^2"), {"x": 3.0}, PLAN).shares == (18.0,)


def test_gradient_power_rule_per_component():
    # the exponent varies only along x2: constant-exponent rule for x1,
    # varying-exponent rule for x2, each equal to its dual_eval
    f = parse("x1^x2")
    env = {"x1": 2.0, "x2": 3.0}
    grad = gradient(f, env)
    assert grad == (12.0, 8.0 * math.log(2.0))
    assert grad == (dual_eval(f, env, 0)[1], dual_eval(f, env, 1)[1])
    # a negative base is fine while only the base varies
    neg = {"x1": -2.0, "x2": 3.0}
    assert dual_eval(f, neg, 0) == (-8.0, 12.0)
    with pytest.raises(EvalDomainError, match="varying exponent needs a positive base"):
        gradient(f, neg)


def _outcome(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:  # KinkPointError included
        return exc


def _shown(outcome):
    """An outcome as data that compares: a value, or an exception's class
    and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome


def test_vector_tangent_matches_per_coordinate_duals():
    # Differential test of the width-n walk against n width-1 walks and the
    # value against evaluate, on random trees, points and kink margins.
    rng = random.Random(20261017)
    pool = (0.0, 1.0, -1.0, 2.0, 0.5, -0.5)
    checked = completed = 0
    while checked < 2000:
        f = _random_ast(rng, 5)
        names = free_variables(f)
        env = {name: (rng.choice(pool) if rng.random() < 0.2
                      else rng.uniform(-4.0, 4.0)) for name in names}
        margin = rng.choice((0.0, 1e-7, 0.05))
        walked = _outcome(lambda: f.program.generated(
            _TangentSource, _unit_seeds(len(names)))(env, margin))
        grad = _outcome(lambda: gradient(f, env, kink_margin=margin))
        oracle = _outcome(lambda: tuple(
            dual_eval(f, env, i, kink_margin=margin)[1]
            for i in range(len(names))))
        if not names:  # no coordinate: both methods walk the value alone
            fd = _outcome(lambda: gradient(f, env, "fd", kink_margin=margin))
            assert _shown(grad) == _shown(fd), (f, margin, grad, fd)
            continue
        checked += 1
        assert isinstance(grad, Exception) == isinstance(oracle, Exception), \
            (f, env, margin, grad, oracle)
        assert isinstance(walked, Exception) == isinstance(grad, Exception)
        if isinstance(grad, Exception):
            continue
        completed += 1
        assert grad == oracle, (f, env, margin)
        value, tangent = walked
        assert tangent == grad
        assert value == evaluate(f, env)
    assert completed >= 500


# The reference rules: each derivative over whole tangents, keyed like
# test_acceptance._REFERENCE_RULES.  A rule takes the values and tangents
# of its arguments and the node's value.  They are written apart from
# deriv._TangentSource, which states the same rules as the source it emits,
# so the oracle below checks the emitter rather than repeating it.

def _near(a: float, b: float, margin: float) -> bool:
    return abs(a - b) <= margin


def _neg(t: Tangent) -> Tangent:
    return tuple([-d for d in t])


def _zeros(t: Tangent) -> Tangent:
    return (0.0,) * len(t)


def _check_tie(a: float, b: float, margin: float, site: str) -> None:
    if _near(a, b, margin):
        raise KinkPointError(f"{site} tie at {a!r}")


def _pow_tangent(a: float, at: Tangent, b: float, bt: Tangent,
                 v: float) -> Tangent:
    base = None
    out = []
    for da, db in zip(at, bt):
        if db == 0.0:
            # constant exponent: d(a^c) = c * a^(c-1) * a'
            if da == 0.0 or b == 0.0:
                out.append(0.0)
                continue
            if base is None:
                base = _REFERENCE_RULES["^"](a, b - 1.0)
            out.append(b * base * da)
        else:
            if a <= 0.0:
                raise Undefined("varying exponent needs a positive base")
            out.append(v * (db * math.log(a) + b * da / a))
    return tuple(out)


def _componentwise(rule):
    return lambda a, at, b, bt, v: tuple([rule(a, da, b, db, v)
                                          for da, db in zip(at, bt)])


# Keyed like expr._BINARY: (a, a', b, b', value) -> tangent.
BINARY_TANGENTS = {**{op: _componentwise(rule)
                      for op, rule in _COMPONENT_RULES.items()},
                   "^": _pow_tangent}


def _call_tangent(func: str, args, v: float, margin: float) -> Tangent:
    """Kink checks and tangent of builtin `func` with value v; args holds
    the (value, tangent) pair of every argument."""
    a, t = args[0]
    if func in ("abs", "relu", "sign"):
        if _near(a, 0.0, margin):
            kind = "jump" if func == "sign" else "corner"
            raise KinkPointError(f"{func} at its {kind} 0")
        if func == "sign":
            return _zeros(t)
        if a > 0.0:
            return t
        return _neg(t) if func == "abs" else _zeros(t)
    if func in ("floor", "ceil"):
        frac = a - math.floor(a)
        if frac <= margin or 1.0 - frac <= margin:
            raise KinkPointError(f"{func} at a jump near {a!r}")
        return _zeros(t)
    if func == "exp":
        return tuple([d * v for d in t])
    if func == "ln":
        return tuple([d / a for d in t])
    if func == "sqrt":
        if a != 0.0:
            return tuple([d * 0.5 / v for d in t])
        if any(t):
            raise Undefined("derivative of sqrt at zero")
        return _zeros(t)
    b, bt = args[1]
    if func == "min":
        _check_tie(a, b, margin, "min")
        return t if a <= b else bt
    if func == "max":
        _check_tie(a, b, margin, "max")
        return t if a >= b else bt
    # clamp(a, lo, hi) = min(max(a, lo), hi), lo = b
    hi, hit = args[2]
    _check_tie(a, b, margin, "clamp lower corner")
    m, mt = (a, t) if a >= b else (b, bt)
    _check_tie(m, hi, margin, "clamp upper corner")
    return mt if m <= hi else hit


def _tangent_oracle(node, bound, margin, zero):
    """The recursive closure walk the generated tangent function replaced,
    kept as the slow reference: it reads _REFERENCE_RULES and
    BINARY_TANGENTS / _call_tangent directly.  bound maps each variable to
    its (value, seed) pair."""
    if isinstance(node, Const):
        return node.value, zero
    if isinstance(node, Var):
        return bound[node.name]
    pairs = [_tangent_oracle(child, bound, margin, zero)
             for child in node.children()]
    if isinstance(node, Neg):
        (v, t), = pairs
        return -v, tuple([-d for d in t])
    inputs = tuple([v for v, _ in pairs])
    if isinstance(node, BinOp):
        rule = _REFERENCE_RULES[node.op]
        (a, at), (b, bt) = pairs
        tangent = lambda v: BINARY_TANGENTS[node.op](a, at, b, bt, v)
    else:
        rule = _REFERENCE_RULES[node.func]
        tangent = lambda v: _call_tangent(node.func, pairs, v, margin)
    try:
        v = rule(*inputs)
    except Undefined as exc:
        raise EvalDomainError(node, inputs, str(exc)) from None
    if not math.isfinite(v):
        raise EvalDomainError(node, inputs, "result is not finite")
    try:
        t = tangent(v)
    except Undefined as exc:
        raise EvalDomainError(node, inputs, str(exc)) from None
    if not all(map(math.isfinite, t)):
        raise EvalDomainError(node, inputs, "derivative is not finite")
    return v, t


def _bits(fn):
    try:
        v, t = fn()
    except ValueError as exc:  # KinkPointError and EvalDomainError
        return type(exc), str(exc), getattr(exc, "node", None)
    return v.hex(), tuple([d.hex() for d in t])  # -0.0 included


def _walk_against_oracle(f, env, seeds, margin):
    """The tangent function's outcome, asserted equal to the oracle's: the
    value and tangent bits, or the exception's class, message and very
    node."""
    names = free_variables(f)
    # with no variable there are no seeds, and the zero tangent is ()
    zero = (0.0,) * len(seeds[0]) if seeds else ()
    bound = {name: (env[name], seed) for name, seed in zip(names, seeds)}
    got = _bits(lambda: f.program.generated(_TangentSource, seeds)(env, margin))
    want = _bits(lambda: _tangent_oracle(f, bound, margin, zero))
    assert got == want, (f, env, seeds, margin)
    if isinstance(want[0], type):  # the very node, not an equal one
        assert got[2] is want[2]
    return want


def test_generated_tangent_matches_the_closure_walk_oracle():
    rng = random.Random(20261020)
    pool = (0.0, 1.0, -1.0, 2.0, 0.5, -0.5)
    kinds = {}
    for _ in range(2000):
        f = _random_ast(rng, 6)
        names = free_variables(f)
        env = {name: (rng.choice(pool) if rng.random() < 0.2
                      else rng.uniform(-4.0, 4.0)) for name in names}
        width = rng.choice((0, 1, len(names)))
        seeds = tuple([tuple([rng.choice((0.0, 1.0)) for _ in range(width)])
                       for _ in names])
        want = _walk_against_oracle(f, env, seeds,
                                    rng.choice((0.0, 1e-7, 0.05)))
        kind = want[0].__name__ if isinstance(want[0], type) else "value"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["value"] >= 1000, kinds
    assert kinds["KinkPointError"] >= 300, kinds
    assert kinds["EvalDomainError"] >= 200, kinds
    # faults that random points on random trees almost never reach
    for source, x, detail in [
            ("exp(x^2)", 26.63, "derivative is not finite"),
            ("ln(x)", 1e-310, "derivative is not finite"),
            ("1 / x", 1e-310, "result is not finite"),
            ("sqrt(x)", 0.0, "derivative of sqrt at zero"),
            ("x^x", -1.0, "varying exponent needs a positive base"),
            # a float known when the source is written overflows in a
            # component: 2.0 * 1e308 is written as inf
            ("(x + x) * 1e308", 0.5, "derivative is not finite"),
            ("(x + x + x) * 6e307", 0.5, "derivative is not finite"),
            ("(x + x) * -1e308", 0.5, "derivative is not finite")]:
        want = _walk_against_oracle(parse(source), {"x": x}, ((1.0,),), 0.0)
        assert want[0] is EvalDomainError and want[1].startswith(detail)


@pytest.mark.parametrize("source, env, raised", [
    ("(x1 + x2)^3", {"x1": 0.75, "x2": -2.0}, None),
    ("(x1 + x2)^-1", {"x1": 1.5, "x2": -1.5}, "invalid power (math domain error)"),
    # d/dx1 needs 0^-0.5; d/dx2, whose da is x1 = 0.0, needs no base
    ("(x1 * x2)^0.5", {"x1": 0.0, "x2": 3.0}, "invalid power (math domain error)"),
    ("(x1 * x2)^0.5", {"x1": 0.0, "x2": 0.0}, None),
])
def test_power_components_that_need_the_base_match_the_oracle(source, env,
                                                               raised):
    # each component that needs a^(b-1) computes it, with the same bits
    # and the same error
    f = parse(source)
    for seeds in (((1.0, 1.0), (1.0, 0.0)), ((0.0,), (1.0,)), ((), ())):
        _walk_against_oracle(f, env, seeds, 0.0)
    want = _walk_against_oracle(f, env, _unit_seeds(2), 0.0)
    if raised is None:
        assert not isinstance(want[0], type), want
    else:
        assert want[0] is EvalDomainError and want[1].startswith(raised)


@pytest.mark.parametrize("source, seeds, calls", [
    # the value, then a^(b-1) once for both components
    ("(x1 + x2)^3", _unit_seeds(2), 2),
    ("(x1 - x2)^2 + (x1 + x2 + x3)^3", _unit_seeds(3), 4),
    # each component's base is behind its own test of a'_k
    ("(x1 * x2)^0.5", _unit_seeds(2), 3),
    ("x^3", ((1.0,),), 2),
])
def test_a_base_every_path_needs_is_computed_once(source, seeds, calls):
    emitter = _TangentSource(seeds)
    _fold(parse(source), emitter.table)
    assert "\n".join(emitter.lines).count("math.pow(") == calls


def test_each_node_is_bound_once():
    # checked, settle and power all name the "^" node, through one global,
    # and the unity function's diagonal half reuses it
    f = parse("(x1 + x2)^3")
    for emitter in (_TangentSource, _UnitySource):
        source = emitter(_unit_seeds(2))
        source.result(f)
        held = [name for name, obj in source.namespace.items() if obj is f]
        assert len(held) == 1, (emitter, held)


# --- the unity function ---------------------------------------------------------

def _two_walks(f, env, margin, method="dual"):
    """The unity walk's reference: the tangent function at env, then at
    the diagonal point dict.fromkeys(names, value), where a KinkPointError
    means shares None.  For fd that function has width 0, and fd_partial
    then gives the gradient at env and, where shares are not None, at the
    diagonal point."""
    names = free_variables(f)
    seeds = _unit_seeds(len(names)) if method == "dual" else ()
    tangent = f.program.generated(_TangentSource, seeds)
    value, outer = tangent(env, margin)
    diagonal = dict.fromkeys(names, value)
    try:
        shares = tangent(diagonal, margin)[1]
    except KinkPointError:
        shares = None
    if method == "fd":
        outer = tuple(fd_partial(f, env, i) for i in range(len(names)))
        if shares is not None:
            shares = tuple(fd_partial(f, diagonal, i)
                           for i in range(len(names)))
    return value, outer, shares


def _unity_outcome(fn):
    try:
        return _hexed(fn())
    except ValueError as exc:  # KinkPointError and EvalDomainError
        return type(exc), str(exc), getattr(exc, "node", None)


def _unity_against_two_walks(f, env, margin, method="dual"):
    """The unity checker's outcome, asserted equal to the two walks': the
    value, outer gradient and shares by float.hex, or the exception's
    class, message and very node.  Both methods reach it through the
    unity function of their seeds."""
    check = _unity_checker(f, SamplePlan(kink_margin=margin), method)
    seeds = _unit_seeds(len(env)) if method == "dual" else ()
    assert (_UnitySource, seeds) in f.program._generated

    def unity():
        report = check(env, None)
        return report.value, report.outer_gradient, report.shares
    got = _unity_outcome(unity)
    want = _unity_outcome(lambda: _two_walks(f, env, margin, method))
    assert got == want, (f, env, margin, method)
    if isinstance(want[0], type):
        assert got[2] is want[2]
    return want


def _kind(outcome):
    if isinstance(outcome[0], type):
        return outcome[0].__name__
    return "kink_diagonal" if outcome[2] is None else "shares"


def test_unity_function_matches_the_two_walks_on_random_trees():
    rng = random.Random(20261021)
    pool = (0.0, 1.0, -1.0, 2.0, 0.5, -0.5)
    kinds = {"dual": {}, "fd": {}}
    for _ in range(2000):
        f = _random_ast(rng, 6)
        names = free_variables(f)
        if not names:
            continue
        env = {name: (rng.choice(pool) if rng.random() < 0.2
                      else rng.uniform(-4.0, 4.0)) for name in names}
        margin = rng.choice((0.0, 1e-7, 0.05))
        for method, counts in kinds.items():
            want = _unity_against_two_walks(f, env, margin, method)
            counts[_kind(want)] = counts.get(_kind(want), 0) + 1
    # a kink and a fault at the point, a kink and a fault at the diagonal
    for counts in kinds.values():
        assert counts["shares"] >= 500, kinds
        assert counts["kink_diagonal"] >= 100, kinds
        assert counts["KinkPointError"] >= 200, kinds
        assert counts["EvalDomainError"] >= 200, kinds


def test_unity_function_matches_the_two_walks_on_the_catalog():
    rng = random.Random(20261022)
    for entry in list_entries():
        if entry.kind == "vector-operator":
            continue
        inst = instantiate(entry.name)
        names = free_variables(inst.expr)
        for i in range(64):
            point = inst.box.sample_point(rng.randrange(1 << 64), i)
            if i % 8 == 0:  # on the diagonal itself
                point = (point[0],) * len(point)
            env = dict(zip(names, point))
            margin = rng.choice((0.0, 1e-7, 0.05))
            for method in ("dual", "fd"):
                _unity_against_two_walks(inst.expr, env, margin, method)


@pytest.mark.parametrize("method", ["dual", "fd"])
def test_both_methods_meet_the_diagonal_fault_before_the_probes(method):
    # at x = 1 the value is sqrt(-0.0); the probes x +- h leave sqrt's
    # domain, but the diagonal point -0.0 leaves it first
    f = parse("sqrt(-(x - 1)^2)")
    with pytest.raises(EvalDomainError) as exc:
        check_unity(f, {"x": 1.0}, PLAN, method)
    assert str(exc.value) == ("sqrt of a negative number in "
                              "'sqrt(-(x - 1)^2)' with arguments (-1.0,)")


def test_a_fault_only_the_diagonal_meets_raises_from_the_unity_function():
    f = parse("x1 + 0 * ln(x2)")
    want = _unity_against_two_walks(f, {"x1": -1.0, "x2": 2.0}, 1e-7)
    assert want[:2] == (EvalDomainError, "ln of a non-positive number in "
                        "'ln(x2)' with arguments (-1.0,)")
    # at the point, the same fault raises from the first half
    want = _unity_against_two_walks(f, {"x1": 2.0, "x2": -1.0}, 1e-7)
    assert want[:2] == (EvalDomainError, "ln of a non-positive number in "
                        "'ln(x2)' with arguments (-1.0,)")
    # a kink at the point raises; one at the diagonal returns no shares
    g = parse("abs(x1) + 0 * abs(x2 - 1)")
    want = _unity_against_two_walks(g, {"x1": 0.0, "x2": 3.0}, 1e-7)
    assert want[:2] == (KinkPointError, "derivative undefined: abs at its "
                        "corner 0")
    want = _unity_against_two_walks(g, {"x1": 1.0, "x2": 3.0}, 1e-7)
    assert want[2] is None


def test_check_unity_makes_one_generated_call_per_point(monkeypatch):
    calls = []
    f = parse("(x1 + x2) / 2")
    unity = f.program.generated(_UnitySource, _unit_seeds(2))
    f.program._generated[_UnitySource, _unit_seeds(2)] = (
        lambda env, margin: calls.append(env) or unity(env, margin))
    sweep = unity_sweep(f, DomainBox.uniform(-1.0, 1.0, 2),
                        SamplePlan(sample_count=16))
    assert len(sweep.reports) == len(calls) == 16
    assert len(f.program._generated) == 1


def test_fd_check_unity_makes_one_generated_call_per_point():
    calls = []
    f = parse("(x1 + x2) / 2")
    screen = f.program.generated(_UnitySource, ())
    f.program._generated[_UnitySource, ()] = (
        lambda env, margin: calls.append(dict(env)) or screen(env, margin))
    sweep = unity_sweep(f, DomainBox.uniform(-1.0, 1.0, 2),
                        SamplePlan(sample_count=16), "fd")
    assert len(sweep.reports) == len(calls) == 16
    assert [tuple(c.values()) for c in calls] == [
        r.point for r in sweep.reports]
    assert len(f.program._generated) == 1


def test_value_checks_build_no_tangent_function():
    # Only derivative calls generate the tangent function, on first use.
    f = parse("(x1 + x2) / 2")
    box, plan = DomainBox.uniform(-1.0, 1.0, 2), SamplePlan(sample_count=16)
    assert check_membership(f, box, plan).status is Status.PASS
    assert check_iterated(f, box, plan).status is Status.PASS
    assert f.program._generated == {}
    gradient(f, {"x1": 0.25, "x2": 0.5})
    assert len(f.program._generated) == 1


def _hexed(x):
    """x with every float spelled by float.hex, so -0.0 differs from 0.0."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(_hexed, x))
    if hasattr(x, "_asdict"):
        return _hexed(tuple(x._asdict().items()))
    return x


def test_each_seed_layout_gets_its_own_tangent_function():
    # One program serves dual_eval (width 1), gradient (width n) and the fd
    # kink screen of check_unity (width 0) in every order; each must give
    # what a fresh parse gives, so no layout's function serves another.
    source = "x1^3 * x2 + exp(x1 - x2) / 4 - abs(x2)"
    env = {"x1": 0.6, "x2": -0.4}
    steps = [lambda f: dual_eval(f, env, 1),
             lambda f: gradient(f, env),
             lambda f: check_unity(f, env, PLAN, method="fd")]
    for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                  (2, 1, 0)):
        shared = parse(source)
        for i in order:
            assert _hexed(steps[i](shared)) == _hexed(steps[i](parse(source)))
        assert len(shared.program._generated) == 3


def test_check_unity_looks_up_its_tangent_function_once(monkeypatch):
    # the walks at x and at the diagonal point share one lookup
    program = type(parse("x").program)
    lookups = []
    generated = program.generated

    def counted(self, emitter, *args):
        lookups.append((emitter, *args))
        return generated(self, emitter, *args)

    monkeypatch.setattr(program, "generated", counted)
    f = parse("(x1 * x2)^0.5")
    for method, layout in (("dual", _unit_seeds(2)), ("fd", ())):
        lookups.clear()
        r = check_unity(f, {"x1": 2.0, "x2": 3.0}, PLAN, method)
        assert r.sum_to_one is Status.PASS
        assert lookups == [(_UnitySource, layout)]


def test_every_operator_has_a_tangent_rule():
    assert _TangentSource.derivatives.keys() == _RULES.keys()


@pytest.mark.parametrize("method, message", [
    ("bogus", "unknown method 'bogus'"),
    ("dual", "candidate has no free variables"),
    ("fd", "candidate has no free variables"),
])
def test_check_unity_validates_the_method_before_the_variables(method, message):
    with pytest.raises(ValueError) as exc:
        check_unity(parse("1"), {}, PLAN, method)
    assert str(exc.value) == message


def test_each_kink_test_is_written_once():
    # median n3 is max(min(x1, x2), min(max(x1, x2), x3)): min(x1, x2) and
    # max(x1, x2) share one tie test, which raises with min's message
    f = instantiate("median", n=3).target
    for seeds in ((), _unit_seeds(3)):
        source = _TangentSource(seeds)
        _fold(f, source.table)
        ties = [line for line in source.lines if line.startswith("if abs(")]
        assert len(ties) == len(set(ties)) == 3
        assert ties.count(f"if abs({source.reads['x1']} - {source.reads['x2']}) <= margin:") == 1
    with pytest.raises(KinkPointError, match="min tie at 0.5"):
        dual_eval(f, {"x1": 0.5, "x2": 0.5, "x3": 0.0}, 0)


# --- unity checks ------------------------------------------------------------------

def test_univariate_unity_passes_for_abs():
    r = check_unity(parse("abs(x)"), {"x": -3.0}, PLAN)
    assert r.n == 1
    assert r.value == 3.0
    assert r.shares == (1.0,)
    assert r.share_sum == 1.0
    assert r.sum_to_one is Status.PASS
    assert r.equal_shares is Status.PASS
    assert r.degenerate_reason is None


def test_unity_mean_passes_both_claims():
    f = parse("(x1 + x2 + x3) / 3")
    r = check_unity(f, {"x1": 0.3, "x2": 5.0, "x3": -2.0}, PLAN)
    assert r.sum_to_one is Status.PASS
    assert r.equal_shares is Status.PASS
    assert r.share_sum == pytest.approx(1.0, abs=1e-12)


def test_unity_weighted_mean_separates_the_claims():
    f = parse("0.3 * x1 + 0.7 * x2")
    r = check_unity(f, {"x1": 2.0, "x2": 9.0}, PLAN)
    assert r.shares == (0.3, 0.7)
    assert r.sum_to_one is Status.PASS
    assert r.equal_shares is Status.FAIL


def test_unity_saturated_clamp_is_degenerate():
    r = check_unity(parse("clamp(x, 0, 1)"), {"x": 2.0}, PLAN)
    assert r.degenerate_reason == "zero_gradient"
    assert r.sum_to_one is Status.DEGENERATE
    assert r.equal_shares is Status.DEGENERATE
    # the diagonal point 1.0 is also a corner, so no shares were computable
    assert r.shares is None


def test_unity_constant_is_degenerate_with_shares():
    r = check_unity(parse("0 * x + 5.0"), {"x": 2.0}, PLAN)
    assert r.degenerate_reason == "zero_gradient"
    assert r.shares == (0.0,)
    assert r.share_sum == 0.0
    assert r.sum_to_one is Status.DEGENERATE


def test_unity_median_diagonal_is_a_kink():
    f = parse("max(min(x1, x2), min(max(x1, x2), x3))")
    r = check_unity(f, {"x1": 1.0, "x2": 5.0, "x3": 2.0}, PLAN)
    assert r.degenerate_reason == "kink_diagonal"
    assert r.shares is None
    assert r.sum_to_one is Status.DEGENERATE
    assert r.equal_shares is Status.DEGENERATE
    # the outer gradient existed: the median is smooth at generic points
    assert r.outer_gradient == (0.0, 0.0, 1.0)


def test_unity_raises_on_an_outer_kink():
    with pytest.raises(KinkPointError):
        check_unity(parse("abs(x)"), {"x": 0.0}, PLAN)


def test_unity_fd_method():
    f = parse("0.3 * x1 + 0.7 * x2")
    r = check_unity(f, {"x1": 2.0, "x2": 9.0}, PLAN, method="fd")
    assert r.tol == 1e-4  # the report names no method; the document does
    assert r.sum_to_one is Status.PASS
    assert r.equal_shares is Status.FAIL
    assert r.shares == pytest.approx((0.3, 0.7), abs=1e-8)


def test_unity_validation():
    with pytest.raises(ValueError):
        check_unity(parse("1 + 2"), {}, PLAN)
    with pytest.raises(ValueError):
        check_unity(parse("x"), {"x": 1.0}, PLAN, method="symbolic")
    with pytest.raises(ValueError):
        check_unity(parse("x1 + x2"), {"x1": 1.0}, PLAN)


_ENGINES = {
    "evaluate": evaluate,
    "program.value": lambda f, env: f.program.value(env),
    "dual_eval": lambda f, env: dual_eval(f, env, 0),
    "fd_partial": lambda f, env: fd_partial(f, env, 0),
    "gradient-dual": lambda f, env: gradient(f, env, "dual"),
    "gradient-fd": lambda f, env: gradient(f, env, "fd"),
    "check_unity-dual": lambda f, env: check_unity(f, env, PLAN, "dual"),
    "check_unity-fd": lambda f, env: check_unity(f, env, PLAN, "fd"),
}


@pytest.mark.parametrize("engine", _ENGINES.values(), ids=_ENGINES)
def test_every_engine_keeps_one_binding_rule(engine):
    # every variable read must be bound to a finite number; keys that are
    # not read are ignored
    f = parse("x^2")
    alone = _hexed(engine(f, {"x": 1.5}))
    for bad in (math.nan, math.inf, -math.inf):
        assert _hexed(engine(f, {"x": 1.5, "y": bad})) == alone
        with pytest.raises(EvaluationError) as info:
            engine(f, {"x": bad, "y": 1.5})
        assert str(info.value) == f"non-finite binding x={bad!r}"
    with pytest.raises(UnboundVariableError, match="'x'"):
        engine(f, {"y": 1.5})


# --- sweeps ---------------------------------------------------------------------

def test_sweep_abs_all_pass():
    sweep = unity_sweep(parse("abs(x)"), DomainBox.uniform(-10.0, 10.0, 1), PLAN)
    assert sweep.points_skipped == 0
    assert len(sweep.reports) == PLAN.sample_count
    assert all(r.sum_to_one is Status.PASS for r in sweep.reports)


def test_sweep_median_all_degenerate():
    f = parse("max(min(x1, x2), min(max(x1, x2), x3))")
    sweep = unity_sweep(f, DomainBox.uniform(-10.0, 10.0, 3), PLAN)
    assert len(sweep.reports) == PLAN.sample_count
    assert all(r.degenerate_reason == "kink_diagonal" for r in sweep.reports)


def test_sweep_skips_when_every_retry_kinks():
    # with the margin covering the whole box every draw is "near" the corner
    plan = SamplePlan(sample_count=8, kink_margin=0.6)
    sweep = unity_sweep(parse("abs(x)"), DomainBox.uniform(-0.5, 0.5, 1), plan)
    assert sweep.reports == ()
    assert sweep.points_skipped == 8


def test_sweep_is_deterministic():
    plan = SamplePlan(sample_count=32, kink_margin=0.2)
    box = DomainBox.uniform(-1.0, 1.0, 1)
    first = unity_sweep(parse("abs(x)"), box, plan)
    second = unity_sweep(parse("abs(x)"), box, plan)
    assert first == second
    assert len(first.reports) + first.points_skipped == 32


@pytest.mark.parametrize("name, params, method, margin", [
    ("abs", {}, "dual", 0.05),
    ("clamp", {"lo": -1.1, "hi": 4.84}, "dual", 0.05),
    ("median", {"n": 3}, "dual", 1e-7),
    ("power_mean", {"n": 3, "p": 3.0}, "dual", 1e-7),
    ("weighted_mean", {"w": (0.625, 0.375)}, "dual", 1e-7),
    ("arith_mean", {"n": 3}, "fd", 1e-7),
    ("relu", {}, "fd", 0.05),
])
def test_sweep_reports_are_check_unity_at_their_points(name, params, method,
                                                       margin):
    # the sweep's one checker gives what check_unity gives at each point
    inst = instantiate(name, **params)
    plan = SamplePlan(seed=20261020, sample_count=48, kink_margin=margin)
    sweep = unity_sweep(inst.expr, inst.box, plan, method)
    assert sweep.reports
    names = free_variables(inst.expr)
    for r in sweep.reports:
        env = dict(zip(names, r.point))
        assert _hexed(r) == _hexed(check_unity(inst.expr, env, plan, method))


def test_sweep_shape_validation():
    with pytest.raises(ValueError):
        unity_sweep(parse("x1 + x2"), DomainBox.uniform(0.0, 1.0, 1), PLAN)
    ragged = DomainBox(((0.0, 1.0), (5.0, 6.0)))
    with pytest.raises(ValueError, match="uniform box"):
        unity_sweep(parse("(x1 + x2) / 2"), ragged, PLAN)
