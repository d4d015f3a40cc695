"""Acceptance suite: one test per release criterion.

Each test prints exactly one "ACCEPTANCE <n>: PASS|FAIL" line (visible with
pytest -s; the -v listing carries the same verdict per test).  Tolerances are
fixed here on purpose: 1e-6 for dual-method unity checks, 1e-4 for finite
differences, 1e-9 + 1e-9*|f| for membership residuals.
"""

import functools
import itertools
import json
import math
import operator
import random
import subprocess
import sys
import time

import pytest

from ouro.catalog import CatalogError, instantiate, list_entries
from ouro.deriv import dual_eval, fd_partial, unity_sweep
from ouro.expr import (
    BinOp, Call, Const, Neg, ParseError, Var, evaluate, format_expr,
    free_variables, parse,
)
from ouro.finite import (
    FiniteEndofunction, count_idempotent, enumerate_idempotent,
    image_fixing_holds, is_idempotent,
)
from ouro.verify import DomainBox, SamplePlan, Status, check_iterated, \
    check_membership

UNITY_TOL = 1e-6
FD_TOL = 1e-4
PLAN64 = SamplePlan(sample_count=64)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number}: PASS  {title}")
        return run
    return wrap


@criterion(1, "symmetric families have equal derivative shares 1/n")
def test_criterion_1_symmetric_unity():
    started = time.monotonic()
    for name in ("arith_mean", "geo_mean", "harmonic_mean", "power_mean"):
        for n in (2, 3, 4, 5, 6):
            kwargs = {"n": n, "p": 2.0} if name == "power_mean" else {"n": n}
            inst = instantiate(name, **kwargs)
            sweep = unity_sweep(inst.expr, inst.box, PLAN64)
            assert sweep.points_skipped == 0, (name, n)
            assert len(sweep.reports) == 64
            for r in sweep.reports:
                assert r.degenerate_reason is None, (name, n, r)
                assert r.sum_to_one is Status.PASS
                assert r.equal_shares is Status.PASS
                assert abs(r.share_sum - 1.0) <= UNITY_TOL
                assert max(abs(s - 1.0 / n) for s in r.shares) <= UNITY_TOL
    # The median is the symmetric family without the 1/n conclusion: its
    # diagonal point is a tie of every comparison, the partials there do
    # not exist, and the verdict must say so instead of failing.
    for n in (3, 5):
        inst = instantiate("median", n=n)
        sweep = unity_sweep(inst.expr, inst.box, PLAN64)
        assert sweep.points_skipped == 0
        assert len(sweep.reports) == 64
        for r in sweep.reports:
            assert r.degenerate_reason == "kink_diagonal", (n, r)
            assert r.sum_to_one is Status.DEGENERATE
            assert r.equal_shares is Status.DEGENERATE
    # even argument counts do not define a single middle element
    with pytest.raises(CatalogError):
        instantiate("median", n=4)
    assert time.monotonic() - started < 5.0


@criterion(2, "univariate members satisfy f'(f(x)) = 1 away from flats")
def test_criterion_2_univariate_unity():
    passing = [
        (instantiate("abs").expr, DomainBox.uniform(1e-3, 10.0, 1)),
        (instantiate("identity").expr, DomainBox.uniform(-10.0, 10.0, 1)),
        (instantiate("clamp", lo=0.0, hi=1.0).expr,
         DomainBox.uniform(0.01, 0.99, 1)),
        (instantiate("max_const", c=0.0).expr, DomainBox.uniform(0.5, 10.0, 1)),
        (instantiate("min_const", c=0.0).expr, DomainBox.uniform(-10.0, -0.5, 1)),
    ]
    for expr, box in passing:
        sweep = unity_sweep(expr, box, PLAN64)
        assert sweep.points_skipped == 0, format_expr(expr)
        assert len(sweep.reports) == 64
        for r in sweep.reports:
            assert r.sum_to_one is Status.PASS, (format_expr(expr), r)
            assert abs(r.share_sum - 1.0) <= UNITY_TOL

    degenerate = [
        (instantiate("clamp", lo=0.0, hi=1.0).expr,
         DomainBox.uniform(1.5, 10.0, 1)),
        (instantiate("max_const", c=0.0).expr,
         DomainBox.uniform(-10.0, -0.5, 1)),
        (instantiate("min_const", c=0.0).expr, DomainBox.uniform(0.5, 10.0, 1)),
        (instantiate("constant", c=5.0).expr, DomainBox.uniform(-10.0, 10.0, 1)),
    ]
    for expr, box in degenerate:
        sweep = unity_sweep(expr, box, PLAN64)
        assert len(sweep.reports) == 64
        for r in sweep.reports:
            assert r.sum_to_one is Status.DEGENERATE, (format_expr(expr), r)
            assert r.equal_shares is Status.DEGENERATE

    # mixed boxes cross the flats and corners; anything may be degenerate
    # or skipped there, but nothing is allowed to FAIL
    for name in ("abs", "relu", "clamp", "max_const", "min_const"):
        inst = instantiate(name)
        sweep = unity_sweep(inst.expr, inst.box, PLAN64)
        for r in sweep.reports:
            assert r.sum_to_one is not Status.FAIL, (name, r)
            assert r.equal_shares is not Status.FAIL


@criterion(3, "weighted means pass sum-to-one and fail equal-shares")
def test_criterion_3_sum_without_symmetry():
    for weights in ((0.3, 0.7), (0.1, 0.2, 0.7)):
        inst = instantiate("weighted_mean", w=weights)
        sweep = unity_sweep(inst.expr, inst.box, PLAN64)
        assert sweep.points_skipped == 0
        assert len(sweep.reports) == 64
        for r in sweep.reports:
            assert r.sum_to_one is Status.PASS, (weights, r)
            assert abs(r.share_sum - 1.0) <= UNITY_TOL
            assert r.equal_shares is Status.FAIL, (weights, r)


@criterion(4, "every catalog entry passes membership and deep iteration")
def test_criterion_4_membership_and_iteration():
    plan = SamplePlan(atol=1e-9, rtol=1e-9, k_max=64)
    for entry in list_entries():
        inst = instantiate(entry.name)
        membership = check_membership(inst.target, inst.box, plan)
        assert membership.status is Status.PASS, (entry.name, membership)
        iterated = check_iterated(inst.target, inst.box, plan)
        assert iterated.status is Status.PASS, (entry.name, iterated)
        if entry.exact_fixed_points:
            assert iterated.max_drift == 0.0, (entry.name, iterated.max_drift)


@criterion(5, "finite-domain enumeration agrees with independent oracles")
def test_criterion_5_finite_oracles():
    started = time.monotonic()
    known = {1: 1, 2: 3, 3: 10, 4: 41, 5: 196}
    for m, expected in known.items():
        brute = _brute_idempotent(m)
        assert len(brute) == expected
        assert enumerate_idempotent(m) == brute
    for m in range(1, 8):
        assert count_idempotent(m) == len(enumerate_idempotent(m))
    for m in range(1, 6):
        for table in itertools.product(range(m), repeat=m):
            f = FiniteEndofunction(table)
            assert is_idempotent(f) == image_fixing_holds(f)
    assert time.monotonic() - started < 10.0


@criterion(6, "dual and finite-difference partials agree on smooth entries")
def test_criterion_6_differentiation_cross_validation():
    for entry in list_entries():
        if not entry.smooth:
            continue
        inst = instantiate(entry.name)
        lo, hi = inst.box.interval
        width = hi - lo
        interior = DomainBox.uniform(lo + 0.05 * width, hi - 0.05 * width,
                                     inst.arity)
        names = free_variables(inst.expr)
        for i in range(64):
            env = dict(zip(names, interior.sample_point(0, i)))
            for j in range(len(names)):
                exact = dual_eval(inst.expr, env, j, kink_margin=1e-7)[1]
                approx = fd_partial(inst.expr, env, j)
                assert abs(exact - approx) <= FD_TOL, (entry.name, env, j)


@criterion(7, "non-members fail with independently reproducible witnesses")
def test_criterion_7_negative_controls():
    plan = SamplePlan()
    cases = [
        ("x + 1", 1), ("x / 2", 1), ("x^2", 1), ("x1 * x2", 2),
    ]
    for source, arity in cases:
        f = parse(source)
        box = DomainBox.uniform(-10.0, 10.0, arity)
        verdict = check_membership(f, box, plan)
        assert verdict.status is Status.FAIL, source
        w = verdict.witness
        names = free_variables(f)
        value = evaluate(f, dict(zip(names, w.point)))
        assert value == w.value, source
        if w.reason == "RESIDUAL":
            revalue = evaluate(f, {name: w.value for name in names})
            assert revalue == w.revalue, source
            assert revalue - w.value == w.residual, source
            assert abs(w.residual) > plan.tol(w.value)
        else:
            assert w.reason == "RANGE_ESCAPE", source
            slack = plan.atol + plan.rtol * 10.0
            assert box.signed_escape(0, value, slack) == w.residual, source
            assert w.residual != 0.0


@criterion(8, "reports with fixed flags and seed are byte-identical")
def test_criterion_8_determinism():
    def run(*args):
        r = subprocess.run([sys.executable, "-m", "ouro", *args],
                           capture_output=True, timeout=120)
        assert r.returncode in (0, 1), r.stderr
        return r.stdout

    commands = [
        ("check", "--expr", "clamp(x, 0, 1)", "--format", "json",
         "--samples", "64"),
        ("check", "--catalog", "simplex_projection", "--format", "json",
         "--samples", "64"),
        ("derive", "--catalog", "weighted_mean", "--w", "0.3,0.7",
         "--format", "json", "--samples", "32"),
        ("derive", "--expr", "(x1 + x2) / 2", "--format", "json",
         "--samples", "32", "--seed", "9"),
        # the text and csv renderers are held to the same byte identity
        ("check", "--catalog", "simplex_projection", "--samples", "64"),
        ("enumerate", "--m", "4", "--format", "csv"),
    ]
    for args in commands:
        first = run(*args)
        second = run(*args)
        assert first == second, args
        if "json" in args:
            json.loads(first.decode("utf-8"))  # and it is valid JSON


def _brute_idempotent(m: int) -> list:
    """The idempotent self-maps of {0, ..., m-1} found by filtering all m^m
    tables by the definition, in lexicographic table order: the oracle for
    the constructive enumeration."""
    return [FiniteEndofunction(table)
            for table in itertools.product(range(m), repeat=m)
            if all(table[table[x]] == table[x] for x in range(m))]


def _random_ast(rng: random.Random, depth: int):
    """A random tree.  Its leaves include -0, and a node of two or three
    operands now and then repeats one, so the value rules meet signed
    zeros and ties."""
    leaf_pool = ("x", "x1", "x2", "y")
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            literal = rng.choice(("0", "1", "2", "0.5", "3.25", "1e-3", ".75", "-0"))
            return Neg(Const("0")) if literal == "-0" else Const(literal)
        return Var(rng.choice(leaf_pool))

    def operands(count):
        kids = [_random_ast(rng, depth - 1) for _ in range(count)]
        if rng.random() < 0.2:
            kids[-1] = rng.choice(kids[:-1])
        return kids

    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 1:
        op = rng.choice(("+", "-", "*", "/", "^"))
        return BinOp(op, *operands(2))
    if kind == 2:
        func = rng.choice(("abs", "floor", "ceil", "sign", "relu",
                           "exp", "ln", "sqrt"))
        return Call(func, (_random_ast(rng, depth - 1),))
    if rng.random() < 0.5:
        return Call(rng.choice(("min", "max")), tuple(operands(2)))
    return Call("clamp", tuple(operands(3)))


# The reference rules: the functions the generated value functions called
# before expr stated each rule once, as source that they write inline.
# They are the oracle of test_expr and test_deriv: every rule, inlined over
# variables and over constants, is pinned to them.

class Undefined(Exception):
    """A reference rule's inputs lie outside its domain; the message says
    how, in the words of the rule's EvalDomainError."""


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise Undefined("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    try:
        r = math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise Undefined(f"invalid power ({exc})") from None
    if not math.isfinite(r):
        raise Undefined("power overflows")
    return r


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise Undefined("exp overflows") from None


def _ln(v: float) -> float:
    if v <= 0.0:
        raise Undefined("ln of a non-positive number")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise Undefined("sqrt of a negative number")
    return math.sqrt(v)


_REFERENCE_RULES = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "^": _pow,
    "abs": abs,
    "floor": lambda v: float(math.floor(v)),
    "ceil": lambda v: float(math.ceil(v)),
    "sign": lambda v: 0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0),
    "relu": lambda v: v if v > 0.0 else 0.0,
    "exp": _exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "min": min,
    "max": max,
    "clamp": lambda v, lo, hi: min(max(v, lo), hi),
}



@criterion(9, "parser round-trip, format idempotence and fuzz safety")
def test_criterion_9_parser_properties():
    corpus = [
        "x", "x1 + x2", "1 + 2 * 3", "(1 + 2) * 3", "-x^2", "(-x)^2",
        "x^-2", "x^2^3", "(x^2)^3", "1 - 2 - 3", "1 - (2 - 3)",
        "1 / 2 / 3", "1 / (2 / 3)", "--x", "-(x + 1)", "abs(x)",
        "min(x1, max(x2, x3))", "clamp(x, 0, 1)", "sqrt(x1 * x2)",
        "exp(ln(x))", "relu(x - 5)", "floor(x) + ceil(y)", "sign(x) * 2",
        "0.5", ".5", "1e-3", "2.5E2", "((x))", "x * (y + 1)",
        "min(1, 2) + max(3, 4)", "x1 * x2 * x3", "x^0.25 / ln(y)",
        "clamp(min(x, 0), -(1), abs(y))", "2^3^2",
        "0.3 * x1 + 0.7 * x2", "(x1 + x2 + x3) / 3",
    ]
    rng = random.Random(20240814)
    while len(corpus) < 200:
        corpus.append(format_expr(_random_ast(rng, 5)))
    assert len(corpus) >= 200
    for source in corpus:
        tree = parse(source)
        text = format_expr(tree)
        assert parse(text) == tree, source
        assert format_expr(parse(text)) == text, source

    alphabet = "x12y .()+-*/^,abcdefgilmnopqrstuE\t\n<&"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 60)))
        try:
            tree = parse(text)
        except ParseError:
            continue
        rendered = format_expr(tree)
        assert parse(rendered) == tree
